"""The library imports nothing beyond the standard library and numpy, and its exports match."""

import ast
import importlib
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


def test_package_imports_match_each_module_all():
    init = pathlib.Path(qmdl.__file__)
    mismatched = []
    for node in ast.parse(init.read_text(), str(init)).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = importlib.import_module(f"qmdl.{node.module}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        mismatched += [f"{node.module}.{alias.name} not in __all__"
                       for alias in node.names if alias.name not in exported]
        mismatched += [f"{node.module}.__all__ names missing {name}"
                       for name in exported if not hasattr(module, name)]
    assert not mismatched, f"package imports and __all__ disagree: {mismatched}"
