"""Every memo in the package is bounded, by the number its docstring states."""

import re
from pathlib import Path


def test_every_memo_has_its_documented_bound(package_memos):
    found = set()
    for module, memos in package_memos.items():
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
    assert found >= {
        "_triple_multisets",
        "_tail_class",
        "_tails_class",
        "_convolution",
        "power_3_2",
        "_tau",
        "sigma1_power",
        "count_laurent",
        "_block_pair",
        "_series_half",
        "_schubert_half",
    }
