"""Every memo in the package is bounded, by the number its docstring states,
and holds a class, a series, a Laurent product, a series coefficient or a
polynomial's coefficients, never a count."""

import re
from pathlib import Path

from pencils import degeneration, genus1


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
    assert found == {
        "_triple_multisets",
        "_tail_class",
        "_tails_class",
        "_convolution",
        "_tau",
        "sigma1_power",
        "_block_pair",
        "_series_half",
        "_schubert_pair",
        "_weighted_unit",
        "_inversion_block",
    }


def test_no_public_count_is_memoized():
    counts = [
        *genus1.METHODS.values(),
        genus1.weighted_count,
        genus1.weighted_fixed_first,
        genus1.weighted_from_unweighted,
        genus1.unweighted_from_weighted,
        degeneration.genus_g_count,
        degeneration.genus_g_weighted,
        degeneration.count_with_padding,
    ]
    assert [count.__name__ for count in counts if hasattr(count, "cache_info")] == []
