"""The release gate against mutants: each row patches one wrong function into
the package, shows that it changes a count, and names every property that
must fail in the level-9 suite, with its exact text."""

import pytest

from pencils import degeneration, genus1, grassmann, qseries, verify
from pencils.degeneration import RamificationProblem
from pencils.genus1 import Genus1Tuple
from pencils.grassmann import SchubertClass

_sigma1_power = grassmann.sigma1_power
_weighted_fixed_first = genus1.weighted_fixed_first
_assemble = degeneration._assemble
_count_schubert = genus1.count_schubert
_bottom_gap_value = genus1._bottom_gap_value
_series_half = qseries._series_half
_schubert_pair = genus1._schubert_pair

EXAMPLE = RamificationProblem(1, 4, (3, 2), (3, 3, 2))  # weighted count 72


def _sigma1_power_scaled_by_two_to_the_k(k, ambient):
    return SchubertClass(ambient, {
        key: 2**k * c for key, c in _sigma1_power(k, ambient).terms.items()
    })


def _weighted_fixed_first_tripled_from_order_4(t):
    return _weighted_fixed_first(t) * (3 if t.d1 >= 4 else 1)


def _assemble_plus_one_at_genus_0(p, weighted):
    return _assemble(p, weighted) + (p.g == 0)


def _assemble_plus_one_weighted_at_genus_1(p, weighted):
    return _assemble(p, weighted) + (weighted and p.g == 1)


def _assemble_plus_one_at_genus_1_with_two_fixed_from_degree_4(p, weighted):
    return _assemble(p, weighted) + (not weighted and p.g == 1 and p.n >= 2 and p.d >= 4)


def _assemble_plus_one_at_genus_2_from_degree_6(p, weighted):
    return _assemble(p, weighted) + (p.g == 2 and p.d >= 6)


def _count_schubert_plus_one_from_degree_5(t):
    return _count_schubert(t) + (t.degree >= 5)


def _bottom_gap_value_plus_one_from_order_3(orders):
    return _bottom_gap_value(orders) + (orders[3] >= 3)


def _identity_reflection(t):
    return t


_halves_by_pair = {}  # the one mutant with a memo of its own; each test empties it


def _series_half_keyed_without_degree(with_power, a, b, degree):
    # the half built at the first degree that meets a pair serves every later one
    return _halves_by_pair.setdefault((with_power, a, b), _series_half(with_power, a, b, degree))


def _series_half_with_the_power_on_both(with_power, a, b, degree):
    return _series_half(True, a, b, degree)


def _schubert_pair_shifting_one_tau_index(a, b, ambient):
    # tau(a - 1) * tau(b - 3) in place of tau(a - 2) * tau(b - 2)
    return _schubert_pair(a + 1, b - 1, ambient)


ROWS = [
    pytest.param(
        # the consolidation sweep reads the same wrong class on both sides
        grassmann, "sigma1_power", _sigma1_power_scaled_by_two_to_the_k,
        lambda: degeneration.genus_g_weighted(EXAMPLE), 8 * 72,
        [
            ("sigma1_powers_match_tableau_counts",
             "sigma1^1 on Gr(2,3) at (1,0): 1 != 2"),
            ("genus1_reduction",
             "weighted tail assembly vs closed form on (2, 2, 2, 2) (pivot 0)"),
            ("hyperelliptic_sextuple", "weighted, 2 simple fixed points on genus 0, degree 2"),
        ],
        id="sigma1_power",
    ),
    pytest.param(
        genus1, "weighted_fixed_first", _weighted_fixed_first_tripled_from_order_4,
        lambda: degeneration.genus_g_weighted(EXAMPLE), 152,
        [
            ("weighted_recursion_consistency",
             "base-point splitting vs closed form on (4, 3, 3, 2)"),
            ("genus1_reduction",
             "weighted tail assembly vs closed form on (4, 3, 3, 2) (pivot 0)"),
        ],
        id="weighted_fixed_first",
    ),
    pytest.param(
        # no other property counts at genus 0
        degeneration, "_assemble", _assemble_plus_one_at_genus_0,
        lambda: degeneration.genus_g_count(RamificationProblem(0, 3, (2, 2, 2, 2))), 3,
        [("hyperelliptic_sextuple", "2 simple fixed points on genus 0, degree 2")],
        id="assemble-genus-0",
    ),
    pytest.param(
        # the consolidation sweep reads the same wrong count on both sides
        degeneration, "_assemble", _assemble_plus_one_weighted_at_genus_1,
        lambda: degeneration.genus_g_weighted(EXAMPLE), 73,
        [
            ("genus1_reduction",
             "weighted tail assembly vs closed form on (2, 2, 2, 2) (pivot 0)"),
            ("hyperelliptic_sextuple", "weighted, 1 simple fixed points on genus 1, degree 2"),
        ],
        id="assemble-weighted-genus-1",
    ),
    pytest.param(
        # the genus-1 reductions have one fixed point, the worked example degree 3
        degeneration, "_assemble", _assemble_plus_one_at_genus_1_with_two_fixed_from_degree_4,
        lambda: degeneration.genus_g_count(RamificationProblem(1, 4, (2,) * 5, (2, 2, 2))), 31,
        [("hyperelliptic_sextuple", "5 simple fixed points on genus 1, degree 4")],
        id="assemble-genus-1-fixed",
    ),
    pytest.param(
        degeneration, "_assemble", _assemble_plus_one_at_genus_2_from_degree_6,
        lambda: degeneration.genus_g_count(RamificationProblem(2, 6, (2,) * 8, (2,) * 6)),
        720 * 42 + 1,
        [("hyperelliptic_sextuple", "8 simple fixed points on genus 2, degree 6")],
        id="assemble-genus-2",
    ),
    pytest.param(
        # METHODS binds the pipelines at import, so the mutant goes there
        genus1.METHODS, "schubert", _count_schubert_plus_one_from_degree_5,
        lambda: genus1.count(Genus1Tuple(5, 4, 3, 2)).values["schubert"], 73,
        [
            ("four_method_agreement",
             "methods disagree on (4, 4, 3, 3): "
             "{'schubert': 209, 'laurent': 208, 'polynomial': 208, 'series': 208}"),
        ],
        id="METHODS-schubert",
    ),
    pytest.param(
        genus1, "_bottom_gap_value", _bottom_gap_value_plus_one_from_order_3,
        lambda: genus1.count_polynomial(Genus1Tuple(3, 3, 3, 3)), 97,
        [
            ("four_method_agreement",
             "methods disagree on (3, 3, 3, 3): "
             "{'schubert': 96, 'laurent': 96, 'polynomial': 97, 'series': 96}"),
            ("closed_form_branch_guard", "closed form vs constant term on (3, 3, 3, 3)"),
        ],
        id="bottom-gap-value",
    ),
    pytest.param(
        # the closed form's top-gap branch and the duality sweep share the involution
        Genus1Tuple, "reflected", _identity_reflection,
        lambda: genus1.count_polynomial(Genus1Tuple(8, 4, 4, 4)), -564,
        [
            ("four_method_agreement",
             "methods disagree on (8, 4, 4, 4): "
             "{'schubert': 486, 'laurent': 486, 'polynomial': -564, 'series': 486}"),
            ("closed_form_branch_guard", "closed form vs constant term on (8, 4, 4, 4)"),
            ("degree_reflection_duality", "reflection of (4,4,4,2) gives (4, 4, 4, 2)"),
        ],
        id="Genus1Tuple-reflected",
    ),
    pytest.param(
        # the degree-3 half of (3, 3) is one coefficient short at degree 4
        qseries, "_series_half", _series_half_keyed_without_degree,
        lambda: [qseries.n_via_series(*quad) for quad in ((3, 3, 2, 2), (3, 3, 3, 3))], [16, 64],
        [
            ("four_method_agreement",
             "methods disagree on (3, 3, 3, 3): "
             "{'schubert': 96, 'laurent': 96, 'polynomial': 96, 'series': 64}"),
        ],
        id="series-half-without-degree",
    ),
    pytest.param(
        qseries, "_series_half", _series_half_with_the_power_on_both,
        lambda: qseries.n_via_series(3, 3, 2, 2), -256,
        [
            ("four_method_agreement",
             "anchor (2,2,2,2): {'schubert': 6, 'laurent': 6, 'polynomial': 6, 'series': 48}"),
        ],
        id="series-half-power-on-both",
    ),
    pytest.param(
        genus1, "_schubert_pair", _schubert_pair_shifting_one_tau_index,
        lambda: genus1.count_schubert(Genus1Tuple(4, 4, 3, 3)), 72,
        [
            ("four_method_agreement",
             "anchor (2,2,2,2): {'schubert': 0, 'laurent': 6, 'polynomial': 6, 'series': 6}"),
        ],
        id="schubert-half-wrong-tau",
    ),
]


def _patch(monkeypatch, package_memos, target, name, mutant):
    if isinstance(target, dict):
        monkeypatch.setitem(target, name, mutant)
        return
    if isinstance(target, type):  # a method: every instance reads it from the class
        monkeypatch.setattr(target, name, mutant)
        return
    # every package namespace that binds the name, so no caller keeps the original
    original = getattr(target, name)
    for namespace in package_memos:
        if vars(namespace).get(name) is original:
            monkeypatch.setattr(namespace, name, mutant)


@pytest.mark.parametrize("target, name, mutant, witness, wrong, failures", ROWS)
def test_gate_fails_exactly_the_properties_a_mutant_breaks(
    target, name, mutant, witness, wrong, failures, monkeypatch, package_memos, fresh_memos
):
    _halves_by_pair.clear()
    _patch(monkeypatch, package_memos, target, name, mutant)
    assert witness() == wrong  # the mutant changes a count
    failed = [(r.name, r.detail) for r in verify.run_suite("all", 9) if not r.passed]
    assert failed == [(prop, f"CrossCheckError: {text}") for prop, text in failures]
