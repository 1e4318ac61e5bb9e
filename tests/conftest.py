"""Shared fixtures: the package's memos, found by walking its modules."""

import importlib
import pkgutil

import pytest

import pencils


@pytest.fixture(scope="session")
def package_memos():
    """Each package module, with the lru_caches defined in it."""
    modules = [pencils] + [
        importlib.import_module(f"pencils.{info.name}")
        for info in pkgutil.iter_modules(pencils.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    return {
        module: [
            obj
            for obj in vars(module).values()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        ]
        for module in modules
    }


@pytest.fixture
def fresh_memos(package_memos):
    """Every package memo empty when the test starts, and again after it, so
    counts do not depend on test order and a mutant's values never outlive
    its test."""
    memos = [memo for found in package_memos.values() for memo in found]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
