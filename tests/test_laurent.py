"""Sparse Laurent polynomials and the antisymmetric building blocks."""

import random

import pytest

from pencils.errors import DomainError
from pencils.laurent import LaurentPolynomial, constant_term, p_poly, pairing

from oracles import convolve, p_dict


def small_poly(rng):
    """0-6 terms with exponents in -8..8 and coefficients in -9..9, zeros
    included."""
    exponents = rng.sample(range(-8, 9), rng.randint(0, 6))
    return {e: rng.randint(-9, 9) for e in exponents}


def test_zero_coefficients_dropped():
    p = LaurentPolynomial({2: 0, -1: 3})
    assert p.support() == [-1]
    assert p.coefficient(2) == 0
    assert p.coefficient(-1) == 3


def test_arithmetic():
    p = LaurentPolynomial({1: 1, -1: -1})
    q = LaurentPolynomial({0: 2})
    assert (p * q).coefficient(-1) == -2
    assert (p * p).coefficient(0) == -2


def test_mul_matches_naive_convolution():
    rng = random.Random(1)
    for _ in range(200):
        d1, d2 = small_poly(rng), small_poly(rng)
        got = LaurentPolynomial(d1) * LaurentPolynomial(d2)
        want = convolve(d1, d2)
        assert {e: got.coefficient(e) for e in got.support()} == want, (d1, d2)


def test_pairing_is_the_constant_term_of_the_product():
    rng = random.Random(2)
    for _ in range(200):
        d1, d2 = small_poly(rng), small_poly(rng)
        p1, p2 = LaurentPolynomial(d1), LaurentPolynomial(d2)
        want = convolve(d1, d2).get(0, 0)
        assert pairing(p1, p2) == constant_term(p1 * p2) == want, (d1, d2)


def test_p_poly_values():
    assert p_poly(0) == LaurentPolynomial()
    assert p_poly(1).support() == [-1, 1]
    p2 = p_poly(2)
    assert p2.coefficient(-2) == -2
    assert p2.coefficient(0) == 0
    assert p2.coefficient(2) == 2
    assert {e: p_poly(3).coefficient(e) for e in p_poly(3).support()} == p_dict(3)
    with pytest.raises(DomainError):
        p_poly(-1)


def test_p_poly_antisymmetry():
    for r in range(31):
        p = p_poly(r)
        for e in p.support():
            assert p.coefficient(-e) == -p.coefficient(e), (r, e)


def test_odd_parity_products_have_no_constant_term():
    for r1 in range(7):
        for r2 in range(r1, 7):
            for r3 in range(r2, 7):
                if (r1 + r2 + r3) % 2:
                    assert constant_term(p_poly(r1) * p_poly(r2) * p_poly(r3)) == 0


def test_square_constant_term_two_ways():
    for r in range(21):
        p = p_poly(r)
        direct = constant_term(p * p)
        paired = sum(p.coefficient(e) * p.coefficient(-e) for e in p.support())
        squared = -sum(p.coefficient(e) ** 2 for e in p.support())
        assert direct == paired == squared, r


def test_known_constant_terms():
    p1, p2, p3 = p_poly(1), p_poly(2), p_poly(3)
    assert constant_term(p1 * p1 * p1 * p1) == 6
    assert constant_term(p2 * p2 * p2 * p2) == 96
    assert constant_term(p3 * p3) == -20
    assert constant_term(p_poly(2)) == 0


def test_equality_hash():
    assert p_poly(2) == LaurentPolynomial({-2: -2, 2: 2})
    with pytest.raises(TypeError):  # no code keys a dict or a memo by a polynomial
        hash(p_poly(2))
