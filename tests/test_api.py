"""The public surface: one import path per name."""

import importlib
import pkgutil

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
