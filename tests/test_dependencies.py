"""The library imports nothing beyond the standard library and numpy, and its exports match and are reached."""

import ast
import importlib
import pathlib
import sys

import qmdl

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qmdl"}
ROOT = pathlib.Path(__file__).resolve().parents[1]

# Exported names that no library module, demo, benchmark file or acceptance criterion reads yet:
# the paper's prediction quantities and its Q-restriction. ROADMAP item 7 asks for a route tied
# to a paper statement or their deletion; item 16 gives strategy_step such a route.
UNREACHED = {"bullet", "cond_density", "strategy_step", "q_restrict"}


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


def _read_names(path: pathlib.Path) -> set[str]:
    """The names a file reads: the id of each ast Name and the attr of each Attribute.
    Strings, docstrings and import aliases are not reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_exported_name_is_reached():
    """Each name of a module's __all__ is read by the library, a demo, the benchmark or an
    acceptance criterion; a name only its own tests call is a second entry point to delete."""
    package = pathlib.Path(qmdl.__file__).parent
    readers = [*package.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(_read_names, readers))
    exported = {name for path in package.glob("*.py") if path.stem != "__init__"
                for name in getattr(importlib.import_module(f"qmdl.{path.stem}"), "__all__", ())}
    unreached = exported - read
    assert unreached == UNREACHED, f"unreached: {sorted(unreached - UNREACHED)}; " \
                                   f"reached, drop from UNREACHED: {sorted(UNREACHED - unreached)}"


def _eigensolver_uses(path: pathlib.Path) -> list[str]:
    """Lines of a module that name numpy.linalg.eigh or eigvalsh, as an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"):
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                found.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in ("eigh", "eigvalsh", "*")]
    return found


def test_only_opcore_calls_the_lapack_eigensolvers():
    """Every eigen-solve goes through opcore, which applies the one Hermitian rule."""
    package = pathlib.Path(qmdl.__file__).parent
    assert _eigensolver_uses(package / "opcore.py")  # the scan sees what it looks for
    stray = [use for path in sorted(package.rglob("*.py")) if path.name != "opcore.py"
             for use in _eigensolver_uses(path)]
    assert not stray, f"numpy.linalg eigensolvers outside opcore: {stray}"
