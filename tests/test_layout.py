"""Structural checks on the package source."""

import ast
import pathlib

import ttnborn

# The functions allowed an import in their body: the optional threadpoolctl,
# and the tree's epoch method, whose module ``training`` imports ``ttn``.
FUNCTION_IMPORTS = {("cli.py", "_limit_threads"), ("ttn.py", "sweep_epoch")}


def test_imports_sit_at_module_level():
    found = {}
    for path in sorted(pathlib.Path(ttnborn.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # breadth first, so a nested function's name wins
                found.update(((path.name, node.lineno), fn.name)
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    stray = sorted(f"{name}:{line} in {fn}"
                   for (name, line), fn in found.items()
                   if (name, fn) not in FUNCTION_IMPORTS)
    assert not stray, f"imports inside functions: {stray}"
