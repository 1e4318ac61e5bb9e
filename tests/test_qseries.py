"""Truncated power series: square roots, Catalan powers, convolution
identities, and the series route to the genus-1 count."""

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from pencils import qseries
from pencils.errors import DomainError
from pencils.exactmath import catalan, syt_count
from pencils.genus1 import Genus1Tuple, _weighted_unit, on_shell_tuples
from pencils.qseries import (
    TruncatedSeries,
    _convolution,
    catalan_power_series,
    n_via_series,
    power_3_2,
    schur_q,
    sqrt_one_minus_4q,
)

from oracles import (
    binomial_series,
    catalan_power,
    genus1_constant_term,
    geometric_inverse,
    pair_product,
    schur_table,
    series_count,
    truncated_product,
)


def test_series_construction_and_truncation():
    s = TruncatedSeries((1, 2, 3), order=5)
    assert s.order == 5
    assert s.coefficient(1) == 2
    assert s.coefficient(4) == 0
    t = TruncatedSeries((1, 2, 3, 4, 5), order=2)
    assert t.order == 2
    with pytest.raises(DomainError):
        t.coefficient(3)
    with pytest.raises(DomainError):
        t.coefficient(-1)


def test_series_arithmetic_truncates_to_min_order():
    a = TruncatedSeries((1, 1), order=4)
    b = TruncatedSeries((1, -1), order=2)
    assert (a * b).order == 2
    assert (a + b).coefficient(1) == 0
    assert (a * b).coefficient(2) == -1


def _coefficient(rng):
    """An int or a fraction of denominator at most 5, in -3..3."""
    if rng.randint(0, 1):
        return rng.randint(-3, 3)
    denominator = rng.randint(1, 5)
    return Fraction(rng.randint(-3 * denominator, 3 * denominator), denominator)


def _series(rng, order):
    coeffs = [_coefficient(rng) for _ in range(rng.randint(0, order + 2))]
    return TruncatedSeries(coeffs, order=order)


def test_arithmetic_results_are_canonical():
    rng = random.Random(5)
    for _ in range(150):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        a, b = _series(rng, m), _series(rng, n)
        for s in (a * b, b * a, a + b):
            assert all(type(c) is Fraction for c in s.coeffs), (a, b, s)
            assert s == TruncatedSeries(s.coeffs), (a, b, s)
        assert (a * b).order == (a + b).order == min(m, n), (a, b)


def _coefficients(rng, kind, length, zeros):
    """``length`` coefficients of type ``kind``, the first ``zeros`` zero;
    the rest drawn by ``_coefficient``, truncated for ``int``."""
    return [kind(0)] * zeros + [kind(_coefficient(rng)) for _ in range(length - zeros)]


def test_truncated_product_matches_the_antidiagonal_oracle():
    # the oracle is the product the zero-skipping loop replaced; every pair
    # of lengths 1..6, left operands with each count of leading zeros up to
    # all zero, and int or Fraction coefficients, whose type the product keeps
    rng = random.Random(34)
    for kind in (int, Fraction):
        for m, n in itertools.product(range(1, 7), repeat=2):
            for zeros in range(m + 1):
                left = _coefficients(rng, kind, m, zeros)
                right = _coefficients(rng, kind, n, rng.randint(0, n))
                got = qseries._truncated_product(left, right)
                assert got == truncated_product(left, right), (left, right)
                assert all(type(c) is kind for c in got), (left, right, got)


def test_negative_orders_are_refused_before_any_product(bindings):
    calls = bindings.record(qseries, "_truncated_product")
    for build in (sqrt_one_minus_4q, power_3_2, partial(schur_q, 3),
                  partial(catalan_power_series, 3)):
        with pytest.raises(DomainError, match="^truncation order must be >= 0, got -1$"):
            build(-1)
    assert calls == []


def test_sqrt_series_coefficients():
    s = sqrt_one_minus_4q(6)
    assert [s.coefficient(n) for n in range(7)] == [1, -2, -2, -4, -10, -28, -84]
    for n in range(1, 7):
        assert s.coefficient(n) == -2 * catalan(n - 1)


def test_sqrt_square_recovers_polynomial():
    s = sqrt_one_minus_4q(30)
    want = TruncatedSeries((1, -4), order=30)
    assert s * s == want


def test_fractional_powers_match_binomial_expansion():
    for alpha, series in ((Fraction(1, 2), sqrt_one_minus_4q(25)),
                          (Fraction(3, 2), power_3_2(25))):
        want = binomial_series(alpha, 25)
        for n in range(26):
            assert series.coefficient(n) == want[n], (alpha, n)


def test_power_3_2_is_cube_of_sqrt():
    s = sqrt_one_minus_4q(20)
    assert power_3_2(20) == s * s * s


def test_schur_polynomials():
    assert schur_q(-1, 5) == TruncatedSeries((0,), order=5)
    assert schur_q(0, 5) == TruncatedSeries((1,), order=5)
    s4 = schur_q(4, 5)
    assert [s4.coefficient(n) for n in range(3)] == [1, -3, 1]
    s5 = schur_q(5, 5)
    assert [s5.coefficient(n) for n in range(3)] == [1, -4, 3]
    for j in range(2, 12):
        assert schur_q(j, 8) + TruncatedSeries((0, 1), order=8) * schur_q(j - 2, 8) == schur_q(j - 1, 8)
    with pytest.raises(DomainError):
        schur_q(-2, 5)


def test_schur_closed_form_matches_recursion():
    table = schur_table(1000)
    for j in [*range(300), 1000]:
        want = table[j]
        for order in (0, 2, len(want)):
            got = schur_q(j, order)
            assert got == TruncatedSeries(want, order=order), (j, order)
    assert schur_q(1000, 2).coeffs == (1, -999, 497503)


def test_catalan_power_series_coefficients():
    # the ballot numbers: [q^m] C(q)^t counts two-row tableaux (t+m-1, m)
    for t in range(1, 17):
        f_t = catalan_power_series(t, 40)
        for m in range(41):
            assert f_t.coefficient(m) == syt_count(t + m - 1, m), (t, m)
    for t in (0, -1):
        with pytest.raises(DomainError):
            catalan_power_series(t, 5)


def test_catalan_power_series_matches_the_convolution_oracle():
    for order in (0, 1, 7, 25):
        for t in range(1, 20):
            assert catalan_power_series(t, order) == TruncatedSeries(
                catalan_power(t, order)
            ), (t, order)


def test_catalan_power_series_squares(bindings):
    # one square per bit of t after the leading one, one product per set bit,
    # all on integer coefficient lists
    calls = bindings.record(qseries, "_truncated_product")
    series = bindings.record(TruncatedSeries, "__mul__")
    for t in range(1, 9):
        catalan_power_series(t, 19)
    assert len(calls) == 0 + 1 + 2 + 2 + 3 + 3 + 4 + 3 == 18
    assert series == []


def test_catalan_power_series_multiplicative():
    f1 = catalan_power_series(1, 15)
    for t in range(2, 7):
        assert f1 * catalan_power_series(t - 1, 15) == catalan_power_series(t, 15)


def test_weighted_generating_function_coefficients():
    # (6q - 1) + (1-4q)^{3/2} generates the weighted-count prefactors
    lhs = TruncatedSeries((-1, 6), order=10) + power_3_2(10)
    assert lhs.coefficient(0) == lhs.coefficient(1) == 0
    for d in range(2, 11):
        assert lhs.coefficient(d) == Fraction(12 * catalan(d - 2), d)


def test_series_factors_equal_the_inversion_factors_built_apart():
    # F_d is the inclusion-exclusion's A_d, and [q^m](1-4q)^(3/2) is the
    # weighted unit 12 C_(m-2)/m; neither pipeline may build its factor
    # from the other's, or the series count becomes the inversion
    for d in range(2, 31):
        a_d = [(-1) ** j * math.comb(d - 1 - j, j) * (d - 2 * j - 1) for j in range((d + 1) // 2)]
        assert _convolution(d, d) == TruncatedSeries(a_d, order=d), d
    power = power_3_2(60)
    for m in range(2, 61):
        assert power.coefficient(m) == _weighted_unit(m), m


def test_inverse_square_matches_schur_convolution():
    for n in range(2, 17):
        inv = geometric_inverse(n)
        square: dict[int, int] = {}
        for i in range(1, n):
            for qi, ci in inv[i - 1].items():
                for qj, cj in inv[n - i - 1].items():
                    square[qi + qj] = square.get(qi + qj, 0) + ci * cj
        conv = TruncatedSeries((0,), order=n)
        for j in range(n - 1):
            conv = conv + schur_q(j, n) * schur_q(n - 2 - j, n)
        assert conv == _convolution(n, n), n
        for m in range(n + 1):
            assert conv.coefficient(m) == square.get(m, 0), (n, m)
        bound = n // 2 - 1
        assert all(m <= bound for m, c in square.items() if c), n


def test_n_via_series_anchors():
    for quad, want in (((2, 2, 2, 2), 6), ((3, 3, 2, 2), 16), ((4, 4, 4, 2), 96),
                       ((4, 4, 3, 3), 208)):
        assert n_via_series(Genus1Tuple(*quad)) == want, quad


def test_n_via_series_matches_constant_term_oracle():
    for deg in range(2, 7):
        total = 2 * deg + 4
        for d1 in range(deg, 0, -1):
            for d2 in range(d1, 0, -1):
                for d3 in range(d2, 0, -1):
                    d4 = total - d1 - d2 - d3
                    if 1 <= d4 <= d3:
                        quad = (d1, d2, d3, d4)
                        assert n_via_series(Genus1Tuple(*quad)) == genus1_constant_term(quad), quad


def test_n_via_series_matches_the_full_product_oracle(fresh_memos):
    # from a cold memo, sorted tuples by descending degree (order-1 tuples
    # included), so the memo's state never shows; then every labeled
    # tuple: the last order is paired rather than multiplied in
    tuples = zeros = 0
    for deg in range(14, 1, -1):
        for quad in on_shell_tuples(deg):
            assert n_via_series(Genus1Tuple(*quad)) == series_count(quad), quad
            tuples += 1
            zeros += 1 in quad
    assert (tuples, zeros) == (441, 83)
    for deg in range(2, 9):
        for quad in on_shell_tuples(deg, ordered=True):
            assert n_via_series(Genus1Tuple(*quad)) == series_count(quad), quad


def test_pair_is_the_same_at_every_degree_that_admits_it(fresh_memos):
    # F_a * F_b has q-degree at most (a + b)/2 - 2, and a count pairs (a, b)
    # at degree deg only when its other two orders, both >= 2, give
    # a + b <= 2 deg: no degree truncates the pair, and the degree in its
    # key only names the convolutions it is built from
    first = {}
    for degree in range(2, 31):
        for b in range(2, 31):
            for a in range(2, min(b, 2 * degree - b) + 1):
                pair = qseries._pair(a, b, degree)
                assert first.setdefault((a, b), pair) == pair, (a, b, degree)
    assert len(first) == 435
    for (a, b), pair in first.items():
        assert len(pair) <= (a + b) // 2 - 1, (a, b)
        assert pair_product(a, b, 30) == [*pair] + [0] * (31 - len(pair)), (a, b)


def test_product_commutes_across_sparsity_and_orders():
    # n_via_series puts the sparse factor on the left of each product
    sparse = TruncatedSeries((0, 3, 0, 0, Fraction(-1, 2)), order=9)
    dense = TruncatedSeries([Fraction(n + 1, 2 * n + 3) for n in range(7)])
    assert sparse * dense == dense * sparse
    assert (sparse * dense).order == 6
    shorter = TruncatedSeries((2, 0, 5), order=3)
    assert shorter * sparse == sparse * shorter
    assert (shorter * sparse).order == 3
    for d, degree in ((8, 9), (13, 6), (2, 4)):
        f = _convolution(d, degree)
        acc = power_3_2(degree + 3)
        assert f * acc == acc * f, (d, degree)
