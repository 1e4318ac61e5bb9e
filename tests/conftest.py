"""Shared fixtures: the package's memos, found by walking its modules, and
one way to wrap a callable where the package binds it.

The suite needs only the standard library and pytest.  A quantified
property runs as an exhaustive sweep of its domain or, where that is too
large, as a loop over ``random.Random`` with a literal seed, so a run
depends on the commit alone and writes no cache."""

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


class Bindings:
    """Replace a callable where the package binds it, undone with the test.

    ``owner`` is a dict (the entry ``name``), a class (the attribute every
    instance reads) or a module (its binding of ``name``; with
    ``everywhere``, also every package module that binds the same object
    under that name, so no caller keeps the original)."""

    def __init__(self, monkeypatch, modules):
        self._monkeypatch = monkeypatch
        self._modules = modules

    def replace(self, owner, name, new, everywhere=False):
        """Put ``new`` in place of ``name``; return the original."""
        if isinstance(owner, dict):
            original = owner[name]
            self._monkeypatch.setitem(owner, name, new)
            return original
        original = getattr(owner, name)
        owners = {owner}
        if everywhere:
            owners.update(module for module in self._modules if vars(module).get(name) is original)
        for each in owners:
            self._monkeypatch.setattr(each, name, new)
        return original

    def record(self, owner, name, everywhere=False) -> list:
        """Wrap ``name`` so each call appends its argument tuple to the
        returned list, then runs the original."""
        calls = []

        def recording(*args):
            calls.append(args)
            return original(*args)

        original = self.replace(owner, name, recording, everywhere)
        return calls


@pytest.fixture
def bindings(monkeypatch, package_memos):
    return Bindings(monkeypatch, list(package_memos))
