"""Structural checks on the package source."""

import ast
import pathlib
import re

import ttnborn

# The one function allowed an import in its body: the optional threadpoolctl.
FUNCTION_IMPORTS = {("cli.py", "_limit_threads")}

# The private names that one module of the package imports from another, as
# (importer, module, name): none.  A name a sibling module uses is public
# or lives with its one user.
PRIVATE_IMPORTS = set()

def _sources():
    for path in sorted(pathlib.Path(ttnborn.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_imports_sit_at_module_level():
    found = {}
    for name, tree in _sources():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # breadth first, so a nested function's name wins
                found.update(((name, node.lineno), fn.name)
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    stray = sorted(f"{name}:{line} in {fn}"
                   for (name, line), fn in found.items()
                   if (name, fn) not in FUNCTION_IMPORTS)
    assert not stray, f"imports inside functions: {stray}"


def test_no_new_private_name_crosses_a_module():
    found = {(name, node.module, alias.name)
             for name, tree in _sources() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")}
    new, gone = sorted(found - PRIVATE_IMPORTS), sorted(PRIVATE_IMPORTS - found)
    assert not new, f"private names imported across modules: {new}"
    assert not gone, f"no longer imported, so drop from PRIVATE_IMPORTS: {gone}"


def test_born_sits_below_both_models():
    # the package modules each module imports, by ``from .x import y`` or
    # ``from . import x``
    found = {name: set() for name, _ in _sources()}
    for name, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found[name].update([node.module] if node.module
                                   else [alias.name for alias in node.names])
    born = found.get("born.py", set())
    assert born <= {"errors", "tensor"}, born
    for name in ("training.py", "sampling.py", "data.py"):
        assert not found[name] & {"ttn", "mps"}, f"{name}: {found[name]}"


def test_benchmark_only_imports_are_the_benchmarks():
    # a name that a module imports on a ``# noqa: F401`` line, not to use
    # it, is one that perfbench/bench.py wraps or calls by that module's
    # name, as ``<module>.<name>`` or ``(<module>, "<name>")``
    bench = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "bench.py").read_text()
    stray = []
    for path in sorted(pathlib.Path(ttnborn.__file__).parent.glob("*.py")):
        text, module = path.read_text(), path.stem
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                stray += [f"{module}.{alias.name}" for alias in node.names
                          if not re.search(
                              rf'\b{module}\.{alias.name}\b'
                              rf'|\({module}, "{alias.name}"', bench)]
    assert not stray, f"imported for a benchmark that does not use: {stray}"
