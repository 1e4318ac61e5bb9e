"""Every memo in the package is bounded, by the number its docstring states,
and holds a class, a series, a Laurent product or a polynomial's
coefficients, never a count.  Its traffic is pinned in the
op-count table, which its docstring names, not stated in prose."""

import re
from pathlib import Path

from pencils import degeneration, genus1

from test_op_counts import TABLE

# a number within three words of a traffic word, either way round, in one clause
_WORDS = r"[^\w.;:]+(?:\w+[^\w.;:]+){0,3}"
TRAFFIC = re.compile(
    rf"\d{_WORDS}(?:reads?|hits?|miss(?:es)?|distinct|keys?)\b"
    rf"|\b(?:reads?|hits?|miss(?:es)?|distinct|keys?){_WORDS}\d"
)


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
        "_pair",
        "_schur_coefficients",
        "_schubert_pair",
        "_inversion_pair",
    }


def test_every_memo_names_its_op_count_groups_and_states_no_traffic(package_memos):
    # measured traffic in prose goes stale silently; a row of the table fails
    for module, memos in package_memos.items():
        for memo in memos:
            name = f"{module.__name__}.{memo.__name__}"
            doc = " ".join((memo.__doc__ or "").split())
            listed = re.search(r"Op-count groups: ((?:``[\w-]+``(?:, )?)+)\.", doc)
            assert listed, f"{name} names no op-count group"
            groups = re.findall(r"``([\w-]+)``", listed.group(1))
            assert set(groups) <= set(TABLE), (name, groups)
            stated = TRAFFIC.search(doc)
            assert stated is None, (name, stated and stated.group())


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
