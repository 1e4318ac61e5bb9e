"""The release gate against mutants: each row patches one wrong function into
the package, shows that it changes a count, and names every property that
must fail in the level-9 suite, with its exact text."""

from fractions import Fraction

import pytest

from pencils import degeneration, genus1, grassmann, qseries, verify
from pencils.degeneration import RamificationProblem
from pencils.genus1 import Genus1Tuple
from pencils.grassmann import SchubertClass

_pieri_mul = grassmann.pieri_mul
_sigma1_power = grassmann.sigma1_power
_weighted_fixed_first = genus1.weighted_fixed_first
_assemble = degeneration._assemble
_count_schubert = genus1.count_schubert
_bottom_gap_value = genus1._bottom_gap_value
_pair = qseries._pair
_schur_coefficients = qseries._schur_coefficients
_schubert_pair = genus1._schubert_pair
_truncated_product = qseries._truncated_product
_sqrt_one_minus_4q = qseries.sqrt_one_minus_4q
_weighted_unit = genus1._weighted_unit
_inversion_block = genus1._inversion_block
_inversion_pair = genus1._inversion_pair

EXAMPLE = RamificationProblem(1, 4, (3, 2), (3, 3, 2))  # weighted count 72


def _pieri_mul_doubled_from_k_3(c, k):
    return _pieri_mul(c, k) * (2 if k >= 3 else 1)


def _mul_forgetting_the_s11_shift(c1, c2):
    # s(c, e) read as s(c - e, 0): the factor s(1,1)^e is dropped
    out = grassmann.zero(c1.ambient)
    for (c, e), q in c2.terms.items():
        out = out + q * _pieri_mul(c1, c - e)
    return out


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


def _pair_one_high_at_the_end_for_orders_4_4(a, b, degree):
    # F_4^2 = 9 - 12q + 4q^2 read as 9 - 12q + 5q^2
    coeffs = _pair(a, b, degree)
    return (*coeffs[:-1], coeffs[-1] + 1) if a == b == 4 else coeffs


def _pair_cut_one_short(a, b, degree):
    # each factor cut to floor((a+b)/2) - 2 coefficients: the pair's top one is lost
    return _pair(a, b, degree)[: (a + b) // 2 - 2]


def _schur_coefficients_one_high_at_q1_for_index_4(j):
    # s_4 = 1 - 3q + q^2 read as 1 - 2q + q^2, so F_d is wrong from d = 6
    coeffs = _schur_coefficients(j)
    return (coeffs[0], coeffs[1] + 1, *coeffs[2:]) if j == 4 else coeffs


def _schubert_pair_shifting_one_tau_index(a, b, ambient):
    # tau(a - 1) * tau(b - 3) in place of tau(a - 2) * tau(b - 2)
    return _schubert_pair(a + 1, b - 1, ambient)


def _truncated_product_one_high_at_the_end_on_ints(left, right):
    # the series pipeline's Fraction products stay right
    out = _truncated_product(left, right)
    if isinstance(left[0], int):
        out[-1] += 1
    return out


def _sqrt_one_minus_4q_half_off_at_q3(order):
    # int() would truncate -9/2 back to the right -4: only an integrality check sees it
    coeffs = list(_sqrt_one_minus_4q(order).coeffs)
    if order >= 3:
        coeffs[3] -= Fraction(1, 2)
    return qseries.TruncatedSeries(coeffs)


def _weighted_unit_one_high_at_degree_5(m):
    return _weighted_unit(m) + (m == 5)


def _inversion_block_one_high_at_order_6(di):
    # the coefficient of x^1 in A_6, -C(4, 1) * 3 = -12, read as -11
    block = _inversion_block(di)
    return (block[0], block[1] + 1, *block[2:]) if di == 6 else block


def _inversion_pair_one_high_at_x0_for_orders_3_3(a, b):
    # A_3^2 = 4 + 0x + 0x^2 read as 5 + 0x + 0x^2
    coeffs = _inversion_pair(a, b)
    return (coeffs[0] + 1, *coeffs[1:]) if a == b == 3 else coeffs


ROWS = [
    pytest.param(
        # the sigma1 sweeps step by s(1, 0) only; the quadruple sweeps' walks catch it
        grassmann, "pieri_mul", _pieri_mul_doubled_from_k_3,
        lambda: genus1.count_schubert(Genus1Tuple(5, 4, 3, 2)), 80,
        [
            ("fourfold_closed_form_matches_engine", "fourfold (3, 3, 0, 0) on Gr(2,5)"),
            ("special_quadratic_integral_matches_engine",
             "quadratic correction (3, 1, 0, 0) on Gr(2,5)"),
            ("four_method_agreement",
             "methods disagree on (5, 4, 3, 2): "
             "{'schubert': 80, 'laurent': 72, 'polynomial': 72, 'series': 72}"),
            ("genus1_reduction", "tail assembly vs direct count on (4, 3, 3, 2) (pivot 0)"),
            ("total_ramification_family", "padded one-moving-point problem at d=4: (30, 60, 2)"),
            ("hyperelliptic_sextuple", "two total points on the line, degree 4"),
        ],
        id="pieri_mul",
    ),
    pytest.param(
        # the quadruple sweeps take Pieri steps, and s(1,0)^2 has no s(1,1) factor;
        # the consolidation sweep's sigma1 products catch it, and its one tree per
        # degree meets the weight 3 of (4,) first on Gr(2,4)
        grassmann, "mul", _mul_forgetting_the_s11_shift,
        lambda: genus1.count_schubert(Genus1Tuple(5, 4, 3, 2)), 0,
        [
            ("basis_duality", "pairing (0,0)x(1,1) on Gr(2,3)"),
            ("four_method_agreement",
             "methods disagree on (3, 3, 2, 2): "
             "{'schubert': -8, 'laurent': 16, 'polynomial': 16, 'series': 16}"),
            ("weighted_consolidation_invariance",
             "sigma1 powers of fixed (4,) multiply wrongly on Gr(2,4)"),
        ],
        id="mul",
    ),
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
        # a memoized pair product is still compared with the other pipelines
        qseries, "_pair", _pair_one_high_at_the_end_for_orders_4_4,
        lambda: qseries.n_via_series(Genus1Tuple(4, 4, 3, 3)), 224,  # 208 by the others
        [
            ("four_method_agreement",
             "methods disagree on (4, 4, 2, 2): "
             "{'schubert': 30, 'laurent': 30, 'polynomial': 30, 'series': 36}"),
        ],
        id="pair",
    ),
    pytest.param(
        # a pair cut short of what it keeps is still compared with the other pipelines
        qseries, "_pair", _pair_cut_one_short,
        lambda: qseries.n_via_series(Genus1Tuple(4, 4, 3, 3)), 144,  # 208 by the others
        [
            ("four_method_agreement",
             "anchor (2,2,2,2): {'schubert': 6, 'laurent': 6, 'polynomial': 6, 'series': 0}"),
        ],
        id="pair-cut-one-short",
    ),
    pytest.param(
        # a memoized Schur polynomial is still compared with the other
        # pipelines and with the squared inverse
        qseries, "_schur_coefficients", _schur_coefficients_one_high_at_q1_for_index_4,
        lambda: qseries.n_via_series(Genus1Tuple(6, 3, 3, 2)), 48,  # 0 by the others
        [
            ("four_method_agreement",
             "methods disagree on (6, 4, 3, 3): "
             "{'schubert': 168, 'laurent': 168, 'polynomial': 168, 'series': 360}"),
            ("series_coefficient_identities", "x^6 coefficient of the squared inverse at q^1"),
        ],
        id="schur-coefficients",
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
    pytest.param(
        # only the Catalan powers and the gate's identities multiply int lists
        qseries, "_truncated_product", _truncated_product_one_high_at_the_end_on_ints,
        lambda: list(qseries.catalan_power_series(2, 3).coeffs), [1, 2, 5, 15],
        [("series_coefficient_identities", "f_2 coefficient 19")],
        id="truncated-product-on-ints",
    ),
    pytest.param(
        # no count reads the square root; the gate reads it as integers
        qseries, "sqrt_one_minus_4q", _sqrt_one_minus_4q_half_off_at_q3,
        lambda: qseries.sqrt_one_minus_4q(3).coefficient(3), Fraction(-9, 2),
        [("series_coefficient_identities", "sqrt(1-4q) coefficient 3 is not an integer: -9/2")],
        id="sqrt-one-minus-4q-fractional",
    ),
    pytest.param(
        # a memoized unit is still compared with the assembly and the tails
        genus1, "_weighted_unit", _weighted_unit_one_high_at_degree_5,
        lambda: genus1.weighted_count(Genus1Tuple(5, 3, 3, 3)), 13 * 4 * 2 * 2 * 2,
        [
            ("weighted_recursion_consistency", "weight assembly vs closed form on (4, 4, 3, 3)"),
            ("genus1_reduction",
             "weighted tail assembly vs closed form on (4, 4, 3, 3) (pivot 0)"),
        ],
        id="weighted-unit",
    ),
    pytest.param(
        # a memoized block is still compared with the constant term
        genus1, "_inversion_block", _inversion_block_one_high_at_order_6,
        lambda: genus1.unweighted_from_weighted(Genus1Tuple(6, 3, 3, 2)), 24,  # 0 by the others
        [("weighted_recursion_consistency", "inversion vs constant term on (6, 2, 2, 2)")],
        id="inversion-block",
    ),
    pytest.param(
        # a memoized pair product is still compared with the constant term
        genus1, "_inversion_pair", _inversion_pair_one_high_at_x0_for_orders_3_3,
        lambda: genus1.unweighted_from_weighted(Genus1Tuple(3, 3, 2, 2)), 20,  # 16 by the others
        [("weighted_recursion_consistency", "inversion vs constant term on (3, 3, 2, 2)")],
        id="inversion-pair",
    ),
]


@pytest.mark.parametrize("target, name, mutant, witness, wrong, failures", ROWS)
def test_gate_fails_exactly_the_properties_a_mutant_breaks(
    target, name, mutant, witness, wrong, failures, bindings, fresh_memos
):
    # in every package namespace that binds the name, so no caller keeps the original
    bindings.replace(target, name, mutant, everywhere=True)
    assert witness() == wrong  # the mutant changes a count
    failed = [(r.name, r.detail) for r in verify.run_suite("all", 9) if not r.passed]
    assert failed == [(prop, f"CrossCheckError: {text}") for prop, text in failures]
