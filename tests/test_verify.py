"""Self-verification properties: mutants of the facts they rest on that each
must catch, and the text each failure reports."""

import pytest

from pencils import degeneration, exactmath, genus1, grassmann, verify
from pencils.degeneration import RamificationProblem
from pencils.errors import CrossCheckError
from pencils.genus1 import count_series
from pencils.grassmann import SchubertClass, mul, sigma, unit

from oracles import quadruple_chain, sigma1_chain


# ------------------------------------------- prefix walks against chains


def test_quadruple_walk_matches_the_mul_chain():
    # every ambient of the level-9 gate's two quadruple sweeps, and level 13's last
    for ambient in (*range(2, 15), 18):
        s1 = sigma(1, 0, ambient)
        starts = [(unit(ambient), 2 * ambient - 4)]
        if ambient >= 3:
            starts.append((8 * sigma(1, 1, ambient) - 2 * mul(s1, s1), 2 * ambient - 6))
        for start, total in starts:
            got = list(verify._quadruple_integrals(start, total))
            assert got == list(quadruple_chain(start, total)), (ambient, total)


def test_sigma1_walk_matches_the_per_partition_chain():
    # every degree of the level-9 consolidation sweep, and level 13's last:
    # one tree per degree holds each weight's partitions in the chain's order
    for d in (*range(2, 8), 11):
        nodes = list(verify._sigma1_products(unit(d + 1), 2 * d - 3))
        want = [list(sigma1_chain(d + 1, w)) for w in range(1, 2 * d - 2)]
        assert len(nodes) == sum(map(len, want)), d
        for w, chain in enumerate(want, start=1):
            assert [node for node in nodes if sum(node[0]) == w] == chain, (d, w)


# ------------------------------------------------ mutants of the facts


def _sigma1_power_missing_its_first_term(k, ambient):
    terms = dict(grassmann.sigma1_power(k, ambient).terms)
    if terms:
        del terms[min(terms, key=lambda key: key[1])]
    return SchubertClass(ambient, terms)


def test_consolidation_catches_a_sigma1_power_missing_a_term(monkeypatch, fresh_memos):
    # the pipeline reads the same wrong class for a problem and its
    # consolidation, so only the product of the per-point classes differs
    for module in (verify, degeneration):
        monkeypatch.setattr(module, "sigma1_power", _sigma1_power_missing_its_first_term)
    with pytest.raises(CrossCheckError, match="sigma1 powers of fixed"):
        verify.weighted_consolidation_invariance(5)


def _unmerged(p):
    return RamificationProblem(p.g, p.d, p.fixed, p.moving)


def _merged_one_too_high(p):
    return RamificationProblem(p.g, p.d, (sum(p.fixed) - p.n + 2,), p.moving)


def test_consolidation_catches_a_wrong_merged_order(monkeypatch, fresh_memos):
    # left unmerged, the problem counts the same as itself: only the
    # comparison with the merged problem sees it
    monkeypatch.setattr(verify, "consolidate_fixed", _unmerged)
    with pytest.raises(CrossCheckError, match=r"fixed \(2, 2\) does not consolidate to \(3,\)"):
        verify.weighted_consolidation_invariance(5)
    monkeypatch.setattr(verify, "consolidate_fixed", _merged_one_too_high)
    result = verify.run_property(verify.weighted_consolidation_invariance, 5)
    assert not result.passed and result.detail.startswith("DomainError: off-shell")


# ------------------------------------------------- failure text of mutants


def _series_off_by_one_on_5432(t):
    return count_series(t) + (t.orders() == (5, 4, 3, 2))


def _pieri_missing_its_last_term(c, k):
    # the Pieri range stops one short of min(a, b + k)
    out = {}
    for (a, b), coeff in c.terms.items():
        for bp in range(max(b, a + b + k - (c.ambient - 2)), min(a, b + k)):
            key = (a + b + k - bp, bp)
            out[key] = out.get(key, 0) + coeff
    return SchubertClass(c.ambient, out)


def _product_one_high_at_the_end(left, right, n):
    out = exactmath.cut_product(left, right, n)
    out[-1] += 1
    return out


@pytest.mark.parametrize(
    "prop, namespace, name, mutant, detail",
    [
        (
            verify.four_method_agreement,
            genus1.METHODS,
            "series",
            _series_off_by_one_on_5432,
            "methods disagree on (5, 4, 3, 2): "
            "{'schubert': 72, 'laurent': 72, 'polynomial': 72, 'series': 73}",
        ),
        (
            # the top-gap polynomial without the reflection onto its branch
            verify.closed_form_branch_guard,
            vars(verify),
            "count_polynomial",
            lambda t: genus1._bottom_gap_value(t.reflected().sorted_desc()),
            "closed form vs constant term on (5, 5, 5, 1)",
        ),
        (
            verify.sigma1_powers_match_tableau_counts,
            vars(verify),
            "pieri_mul",
            _pieri_missing_its_last_term,
            "sigma1^1 on Gr(2,3) at (1,0): 0 != 1",
        ),
        (
            # the gate's own integer products, with the Catalan powers left right
            verify.series_coefficient_identities,
            vars(verify),
            "cut_product",
            _product_one_high_at_the_end,
            "f_1 * f_1 != f_2",
        ),
    ],
    ids=["methods", "closed-form", "pieri", "identity-products"],
)
def test_a_failing_check_reports_its_case(prop, namespace, name, mutant, detail, monkeypatch,
                                          fresh_memos):
    monkeypatch.setitem(namespace, name, mutant)
    result = verify.run_property(prop, 7)
    assert not result.passed
    assert result.detail == f"CrossCheckError: {detail}"
