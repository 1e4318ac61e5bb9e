"""Every memo in the package is bounded, by the number its docstring states."""

import importlib
import pkgutil
import re
from pathlib import Path

import pencils


def _modules():
    yield pencils
    for info in pkgutil.iter_modules(pencils.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            yield importlib.import_module(f"pencils.{info.name}")


def test_every_memo_has_its_documented_bound():
    found = set()
    for module in _modules():
        memos = [
            obj
            for obj in vars(module).values()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        ]
        # a memo this walk cannot reach (a method, a nested function) breaks the count
        source = Path(module.__file__).read_text()
        decorators = re.findall(r"@(?:functools\.)?(?:lru_)?cache\b", source)
        assert len(memos) == len(decorators), module.__name__
        for memo in memos:
            name = f"{module.__name__}.{memo.__name__}"
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None, f"{name} is unbounded"
            documented = re.search(r"(\d+) entries hold", memo.__doc__ or "")
            assert documented, f"{name} does not document its bound"
            assert maxsize == int(documented.group(1)), name
            found.add(memo.__name__)
    assert found >= {"_triple_multisets", "_tail_class", "_convolution", "power_3_2"}
