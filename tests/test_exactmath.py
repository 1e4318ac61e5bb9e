"""Tableau counts, binomials, Catalan numbers, integrality helpers."""

import itertools
from fractions import Fraction

import pytest

from pencils.errors import DomainError, IntegralityError
from pencils.exactmath import (
    as_integer,
    binomial,
    bounded_partitions,
    catalan,
    exact_div,
    syt_count,
)

from oracles import pascal_triangle, syt_brute

PASCAL = pascal_triangle(40)


def test_binomial_small_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(6, 3) == 20
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


def test_binomial_matches_pascal_triangle():
    for n in range(41):
        for k in range(n + 1):
            assert binomial(n, k) == PASCAL[n][k], (n, k)


def test_binomial_negative_upper_index():
    # no count takes a binomial of a negative upper index, so none is defined
    with pytest.raises(ValueError):
        binomial(-2, 1)


def test_binomial_pascal_identity():
    for n in range(1, 41):
        for k in range(-5, 46):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k), (n, k)


def test_catalan_known_values():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_catalan_negative_raises():
    with pytest.raises(DomainError):
        catalan(-1)


def test_syt_matches_bruteforce():
    for a in range(13):
        for b in range(a + 1):
            if a + b <= 12:
                assert syt_count(a, b) == syt_brute(a, b), (a, b)


def test_syt_and_catalan_match_the_hook_formula():
    # binomial(a+b, a)(a-b+1)/(a+1) and binomial(2n, n)/(n+1), through Fraction
    for a in range(61):
        for b in range(61):
            hook = Fraction(binomial(a + b, a) * (a - b + 1), a + 1)
            want = as_integer(hook, "hook") if b <= a else 0
            assert syt_count(a, b) == want, (a, b)
    for n in range(61):
        assert catalan(n) == as_integer(Fraction(binomial(2 * n, n), n + 1), "hook"), n


def test_syt_zero_outside_shapes():
    assert syt_count(2, 3) == 0
    assert syt_count(-1, 0) == 0
    assert syt_count(1, -2) == 0


def test_syt_square_shape_is_catalan():
    for a in range(16):
        assert syt_count(a, a) == catalan(a)


def test_syt_ballot_recurrence():
    # removing a corner box: every valid two-row shape in the 31 x 31 square
    for a in range(31):
        for b in range(31):
            if a >= b >= 0 and a + b >= 1:
                assert syt_count(a, b) == syt_count(a - 1, b) + syt_count(a, b - 1), (a, b)


def test_exact_div():
    assert exact_div(12, 4, "x") == 3
    assert exact_div(-12, 4, "x") == -3
    assert exact_div(0, 7, "x") == 0
    with pytest.raises(IntegralityError, match="x: 7/2 is not an integer"):
        exact_div(14, 4, "x")


def test_as_integer():
    assert as_integer(7, "x") == 7
    assert as_integer(Fraction(12, 4), "x") == 3
    with pytest.raises(IntegralityError):
        as_integer(Fraction(1, 3), "x")


def test_bounded_partitions_match_brute_force():
    for length in range(0, 6):
        for max_part in range(-1, 8):
            descending = [
                t
                for t in itertools.product(range(max_part + 1), repeat=length)
                if all(a >= b for a, b in zip(t, t[1:]))
            ]
            for total in range(-1, 13):
                want = sorted((t for t in descending if sum(t) == total), reverse=True)
                assert list(bounded_partitions(total, length, max_part)) == want, (
                    total, length, max_part,
                )
