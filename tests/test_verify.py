"""Self-verification properties: the work each one does, and mutants of the
facts they rest on that each must catch."""

import pytest

from pencils import degeneration, grassmann, verify
from pencils.degeneration import RamificationProblem
from pencils.errors import CrossCheckError
from pencils.grassmann import SchubertClass


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


def test_consolidation_catches_a_sigma1_power_missing_a_term(monkeypatch):
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


def test_consolidation_catches_a_wrong_merged_order(monkeypatch):
    # left unmerged, the problem counts the same as itself: only the
    # comparison with the merged problem sees it
    monkeypatch.setattr(verify, "consolidate_fixed", _unmerged)
    with pytest.raises(CrossCheckError, match=r"fixed \(2, 2\) does not consolidate to \(3,\)"):
        verify.weighted_consolidation_invariance(5)
    monkeypatch.setattr(verify, "consolidate_fixed", _merged_one_too_high)
    result = verify.run_property(verify.weighted_consolidation_invariance, 5)
    assert not result.passed and result.detail.startswith("DomainError: off-shell")
