"""Structural checks on the package source."""

import ast
import pathlib

import ttnborn

# The functions allowed an import in their body: the optional threadpoolctl,
# and the tree's epoch method, whose module ``training`` imports ``ttn``.
FUNCTION_IMPORTS = {("cli.py", "_limit_threads"), ("ttn.py", "sweep_epoch")}

# The private names that one module of the package imports from another, as
# (importer, module, name).  The set only shrinks: a new entry fails the
# test, and so does an entry that is no longer imported, so that deleting
# one also deletes it here.
PRIVATE_IMPORTS = {
    ("factor_graph.py", "ttn", "_clamp_weights"),
    ("factor_graph.py", "ttn", "_in_window"),
    ("factor_graph.py", "ttn", "_row_chunks"),
    ("mps.py", "training", "_exit_epoch"),
    ("mps.py", "training", "_sweep"),
    ("mps.py", "ttn", "_rescale_rows"),
    ("mps.py", "ttn", "_rooted_copy"),
    ("mps.py", "ttn", "_signed_logs"),
    ("sampling.py", "ttn", "_data_log_z"),
    ("sampling.py", "ttn", "_rescale_rows"),
    ("sampling.py", "ttn", "_row_chunks"),
    ("training.py", "tensor", "_svd_sign_fix"),
    ("training.py", "tensor", "_truncated_svd"),
    ("training.py", "ttn", "_EYE2"),
    ("training.py", "ttn", "_contract_node"),
    ("training.py", "ttn", "_toward"),
}


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
