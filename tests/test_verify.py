"""Self-verification properties: the work each one does, and mutants of the
facts they rest on that each must catch."""

import pytest

from pencils import degeneration, genus1, grassmann, qseries, verify
from pencils.degeneration import RamificationProblem
from pencils.errors import CrossCheckError
from pencils.genus1 import count_series
from pencils.grassmann import SchubertClass

from oracles import tau_class


def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_consolidation_counts_each_merged_problem_once(monkeypatch):
    calls = _counted(monkeypatch, verify, "genus_g_weighted")
    detail = verify.weighted_consolidation_invariance(7)
    assert detail == "192 problems with g <= 2, d <= 5"
    # one count per problem, plus one per (genus, degree, weight, moving
    # orders) for the merged problem all its fixed partitions share
    assert len(calls) == 192 + 67 == 259


def test_basis_duality_builds_each_box_class_once(monkeypatch):
    calls = _counted(monkeypatch, verify, "sigma")
    verify.basis_duality(7)
    # Gr(2, N) has N(N-1)/2 basis classes, N = 2..8
    assert len(calls) == sum(n * (n - 1) // 2 for n in range(2, 9)) == 84


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
    ],
    ids=["methods", "closed-form", "pieri"],
)
def test_a_failing_check_reports_its_case(prop, namespace, name, mutant, detail, monkeypatch,
                                          fresh_memos):
    monkeypatch.setitem(namespace, name, mutant)
    result = verify.run_property(prop, 7)
    assert not result.passed
    assert result.detail == f"CrossCheckError: {detail}"


# -------------------------------------------- memo traffic of the sweeps


def test_four_method_agreement_builds_each_tau_once(fresh_memos):
    verify.four_method_agreement(7)
    info = genus1._tau.cache_info()
    # 109 distinct pairs of 96 tuples, two classes each, from 43 distinct
    # (index, ambient) keys
    assert (info.misses, info.hits) == (43, 2 * 109 - 43) == (43, 175)


def test_consolidation_builds_each_sigma1_power_once(fresh_memos):
    verify.weighted_consolidation_invariance(7)
    info = grassmann.sigma1_power.cache_info()
    assert (info.misses, info.hits) == (16, 496)


def test_consolidation_multiplies_each_tails_class_once(monkeypatch, fresh_memos):
    calls = _counted(monkeypatch, degeneration, "mul")
    verify.weighted_consolidation_invariance(7)
    # a weighted fixed part is a sigma1 power, not a product, so every
    # product is a tail product: g - 1 per multiset of each tails class
    assert len(calls) == 47


def test_gate_builds_each_block_pair_once(fresh_memos):
    verify.run_suite("all", 9)
    info = genus1._block_pair.cache_info()
    # 1,358 Laurent counts of 691 distinct tuples and 371 weighted recursions
    # ask for 3,458 pair products: 108 distinct P pairs and 106 distinct W pairs
    assert (info.misses, info.hits) == (108 + 106, 2 * (1358 + 371) - 214) == (214, 3244)


def test_gate_builds_each_half_product_once(fresh_memos):
    verify.run_suite("all", 9)
    # 149 series counts without an order 1 and 190 Schubert counts read two
    # halves each; every miss is a distinct (pair, degree) key
    info = qseries._series_half.cache_info()
    assert (info.misses, info.hits) == (168, 2 * 149 - 168) == (168, 130)
    info = genus1._schubert_pair.cache_info()
    assert (info.misses, info.hits) == (193, 2 * 190 - 193) == (193, 187)


def test_gate_makes_its_exact_products(monkeypatch, package_memos, fresh_memos):
    # exact operation counts gate what wall time cannot; pairing memoized
    # halves took them from 842 series products and 12,992 Schubert ones,
    # and the closed-form (1-4q)^(3/2) drops the product of each of its 12 orders
    series = _counted(monkeypatch, qseries.TruncatedSeries, "__mul__")
    schubert = []
    original = grassmann.mul

    def counted(*args):
        schubert.append(args)
        return original(*args)

    for module in package_memos:
        if vars(module).get("mul") is original:
            monkeypatch.setattr(module, "mul", counted)
    assert all(result.passed for result in verify.run_suite("all", 9))
    assert (len(series), len(schubert)) == (635, 12615)


def test_cached_tau_classes_stay_equal_to_the_oracle(monkeypatch, fresh_memos):
    # a caller that mutated a shared class would leave a wrong one cached
    seen = {}
    memo = genus1._tau

    def recording(k, ambient):
        seen[k, ambient] = cls = memo(k, ambient)
        return cls

    monkeypatch.setattr(genus1, "_tau", recording)
    assert all(result.passed for result in verify.run_suite("all", 9))
    assert len(seen) == memo.cache_info().currsize == 64
    for (k, ambient), cls in seen.items():
        assert memo(k, ambient) is cls
        assert cls.terms == tau_class(k, ambient), (k, ambient)
