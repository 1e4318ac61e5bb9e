"""The public surface: one import path per name, and no import or
definition that nothing in the package uses; and a test suite that
imports nothing but the standard library, pytest and the package."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pencils


def test_top_level_holds_the_counts_and_the_error_types():
    assert sorted(pencils.__all__) == sorted([
        "Genus1Tuple",
        "count",
        "weighted_count",
        "RamificationProblem",
        "genus_g_count",
        "count_laurent",
        "DomainError",
        "CrossCheckError",
        "IntegralityError",
    ])
    for name in pencils.__all__:
        assert getattr(pencils, name).__module__.startswith("pencils."), name


def test_every_module_exports_what_it_lists():
    names = [info.name for info in pkgutil.iter_modules(pencils.__path__)]
    assert "cli" in names and "verify" in names
    for name in names:
        if name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"pencils.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), (name, public)


SOURCES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(Path(pencils.__file__).parent.glob("*.py"))
}
# public, and called only from outside the package
OUTSIDE_ONLY = {("cli", "argv_from_query")}


def _listed(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _read(node):
    """The names a node reads."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def test_every_import_is_used_or_exported():
    for module, tree in SOURCES.items():
        used = _read(tree) | _listed(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                assert bound in used, (module, bound)


def test_every_function_and_class_is_referenced():
    # by its own module, or imported by name into another (the package's only
    # cross-module access); methods are not checked, as an operator names none
    for module, tree in SOURCES.items():
        imported = {
            alias.name
            for other in SOURCES.values()
            for node in ast.walk(other)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names
        }
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (module, node.name) in OUTSIDE_ONLY:
                continue
            local = any(node.name in _read(stmt) for stmt in tree.body if stmt is not node)
            assert local or node.name in imported, (module, node.name)


def test_tests_import_only_the_stdlib_pytest_and_the_package():
    # a further test dependency could draw or cache what the commit does not
    # fix, as hypothesis did
    root = Path(__file__).resolve().parents[1]
    folders = [root / "tests", root / "perfbench" / "tests"]
    local = {path.stem for folder in folders + [root / "perfbench"] for path in folder.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"pytest", "pencils"} | local
    for path in sorted(path for folder in folders for path in folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (path.name, name)


def test_only_errors_writes_a_bound_refusal():
    # every up-front bound goes through errors.require_within
    for path in sorted(Path(pencils.__file__).parent.glob("*.py")):
        if path.name != "errors.py":
            assert "exceeds the bound" not in path.read_text(), path.name
    assert "exceeds the bound" in (Path(pencils.__file__).parent / "errors.py").read_text()
