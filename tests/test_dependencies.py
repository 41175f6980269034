"""The library imports nothing beyond the standard library and numpy."""

import ast
import pathlib
import sys

import qmdl

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qmdl"}


def test_library_imports_only_the_standard_library_and_numpy():
    modules = sorted(pathlib.Path(qmdl.__file__).parent.rglob("*.py"))
    assert modules
    stray = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert not stray, f"imports outside the standard library and numpy: {stray}"
