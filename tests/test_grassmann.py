"""Two-row Schubert engine: Pieri products, integrals, closed forms.

The closed-form integrals (the fourfold table and the quadratic
correction table) are compared against full engine evaluation over
every on-shell quadruple in range — that sweep is the designated guard
for both formulas.
"""

import itertools
import random

import pytest

from pencils.errors import DomainError
from pencils.exactmath import catalan, syt_count
from pencils.grassmann import (
    SchubertClass,
    fourfold_integral,
    integrate,
    magic_integral,
    mul,
    pairing,
    pieri_mul,
    sigma,
    sigma1_power,
    unit,
    zero,
)

from oracles import schubert_product


def desc_quadruples(total, max_part):
    for n1 in range(min(total, max_part), -1, -1):
        for n2 in range(min(n1, total - n1), -1, -1):
            for n3 in range(min(n2, total - n1 - n2), -1, -1):
                n4 = total - n1 - n2 - n3
                if 0 <= n4 <= n3:
                    yield (n1, n2, n3, n4)


def test_constructor_validation():
    with pytest.raises(DomainError):
        sigma(1, 2, 5)  # not a partition
    with pytest.raises(DomainError):
        sigma(-1, 0, 5)
    with pytest.raises(DomainError):
        unit(1)  # no 2-planes in a line


def test_out_of_box_truncates_to_zero():
    assert sigma(2, 0, 3).is_zero()
    assert sigma(2, 2, 3).is_zero()
    assert not sigma(1, 1, 3).is_zero()


def test_pieri_hand_values():
    s1 = sigma(1, 0, 4)
    sq = mul(s1, s1)
    assert sq.coefficient(2, 0) == 1
    assert sq.coefficient(1, 1) == 1
    assert pieri_mul(sigma(2, 1, 4), 1) == sigma(2, 2, 4)
    # k = 0 is the identity
    assert pieri_mul(sigma(2, 1, 4), 0) == sigma(2, 1, 4)


def test_mul_distributes_and_scales():
    a = sigma(1, 0, 5) + 2 * sigma(1, 1, 5)
    b = sigma(2, 0, 5) - sigma(1, 1, 5)
    lhs = mul(a + b, a)
    rhs = mul(a, a) + mul(b, a)
    assert lhs == rhs


def box(ambient):
    return [(a, b) for b in range(ambient - 1) for a in range(b, ambient - 1)]


def random_class(rng, ambient, bound):
    """Coefficients in -bound..bound, zeros included, on a random set of
    the box's partitions."""
    keys = box(ambient)
    picked = rng.sample(keys, rng.randint(0, len(keys)))
    return SchubertClass(ambient, {key: rng.randint(-bound, bound) for key in picked})


def test_mul_and_pairing_match_jacobi_trudi_on_basis_pairs():
    for ambient in range(2, 10):
        top = ambient - 2
        for x, y in itertools.product(box(ambient), repeat=2):
            want = schubert_product({x: 1}, {y: 1}, ambient)
            c1, c2 = sigma(*x, ambient), sigma(*y, ambient)
            assert mul(c1, c2).terms == want, (ambient, x, y)
            assert pairing(c1, c2) == integrate(mul(c1, c2)) == want.get((top, top), 0)


def test_mul_and_pairing_match_jacobi_trudi_on_integer_classes():
    rng = random.Random(3)
    for _ in range(150):
        ambient = rng.randint(2, 9)
        c1, c2 = random_class(rng, ambient, 50), random_class(rng, ambient, 50)
        want = schubert_product(c1.terms, c2.terms, ambient)
        top = ambient - 2
        assert mul(c1, c2).terms == want, (c1, c2)
        assert pairing(c1, c2) == integrate(mul(c1, c2)) == want.get((top, top), 0), (c1, c2)


def _assert_canonical(c):
    """The result a public constructor would build: no zero term and no key
    outside a >= b >= 0, a <= N - 2."""
    top = c.ambient - 2
    assert all(top >= a >= b >= 0 and q != 0 for (a, b), q in c.terms.items()), c.terms
    assert c == SchubertClass(c.ambient, c.terms)


def test_arithmetic_results_are_canonical():
    # zero coefficients and scalars, so that sums and products can cancel
    rng = random.Random(4)
    for _ in range(150):
        ambient = rng.randint(2, 9)
        c1, c2 = random_class(rng, ambient, 3), random_class(rng, ambient, 3)
        k = rng.randint(-2, 2)
        results = [c1 + c2, -c1, c1 - c2, c1 - c1, k * c1, c1 * k, mul(c1, c2)]
        results += [pieri_mul(c1, j) for j in range(ambient)]
        for c in results:
            _assert_canonical(c)


def test_pairing_ambient_mismatch_raises():
    with pytest.raises(DomainError):
        pairing(sigma(1, 0, 4), sigma(1, 0, 5))


def test_mul_commutative_associative():
    # every triple of basis classes up to Gr(2, 8), each pair's product built once
    for ambient in range(2, 9):
        basis = {key: sigma(*key, ambient) for key in box(ambient)}
        product = {(x, y): mul(basis[x], basis[y]) for x, y in itertools.product(basis, repeat=2)}
        for (x, y), xy in product.items():
            assert xy == product[y, x], (ambient, x, y)
            for z in basis:
                assert mul(xy, basis[z]) == mul(basis[x], product[y, z]), (ambient, x, y, z)


def test_mul_ambient_mismatch_raises():
    with pytest.raises(DomainError):
        mul(sigma(1, 0, 4), sigma(1, 0, 5))


def test_integrate_picks_top_class():
    assert integrate(sigma(3, 3, 5)) == 1
    assert integrate(sigma(3, 2, 5)) == 0
    assert integrate(zero(5)) == 0
    assert integrate(7 * sigma(2, 2, 4)) == 7


def test_sigma1_powers_are_tableau_counts():
    for ambient in range(2, 11):
        for k in range(15):
            cls = sigma1_power(k, ambient)
            for b in range(ambient - 1):
                for a in range(b, ambient - 1):
                    want = syt_count(a, b) if a + b == k else 0
                    assert cls.coefficient(a, b) == want, (k, ambient, a, b)


def test_sigma1_power_matches_the_pieri_chain():
    for ambient in range(2, 13):
        cls = unit(ambient)
        for k in range(2 * ambient + 1):
            assert sigma1_power(k, ambient) == cls, (k, ambient)
            cls = pieri_mul(cls, 1)


def test_sigma1_power_examples():
    assert sigma1_power(3, 4) == 2 * sigma(2, 1, 4)
    assert sigma1_power(3, 3).is_zero()
    assert sigma1_power(0, 6) == unit(6)


def test_top_sigma1_power_is_catalan():
    for d in range(2, 13):
        assert integrate(sigma1_power(2 * d - 2, d + 1)) == catalan(d - 1)


def test_repeated_box_shift_bridges_to_catalan():
    # s(1,1)^m shifts the unit class; the complementary sigma1 power
    # then integrates to a smaller Catalan number
    for d in range(2, 9):
        ambient = d + 1
        for m in range(d):
            cls = sigma1_power(2 * (d - 1 - m), ambient)
            for _ in range(m):
                cls = mul(cls, sigma(1, 1, ambient))
            assert integrate(cls) == catalan(d - 1 - m), (d, m)


def test_fourfold_integral_examples():
    assert fourfold_integral(2, 2, 1, 1, 5) == 2
    assert fourfold_integral(4, 0, 0, 0, 4) == 0
    assert fourfold_integral(3, 3, 3, 3, 8) == 4
    with pytest.raises(DomainError):
        fourfold_integral(4, 0, 0, 0, 5)  # indices don't use up the dimension
    with pytest.raises(DomainError):
        fourfold_integral(-1, 1, 3, 3, 5)


def test_fourfold_integral_matches_engine():
    for ambient in range(2, 13):
        total = 2 * ambient - 4
        for quad in desc_quadruples(total, total):
            cls = unit(ambient)
            for n in quad:
                cls = mul(cls, sigma(n, 0, ambient))
            assert integrate(cls) == fourfold_integral(*quad, ambient), (quad, ambient)


def test_fourfold_integral_order_invariant():
    for perm in itertools.permutations((4, 3, 2, 1)):
        assert fourfold_integral(*perm, 7) == fourfold_integral(4, 3, 2, 1, 7)


def test_magic_integral_case_values():
    # all equal / two pairs / arithmetic cross / dominant index / generic
    assert magic_integral(2, 2, 2, 2, 7) == 6
    assert magic_integral(3, 3, 1, 1, 7) == 4
    assert magic_integral(4, 3, 2, 1, 8) == 2
    assert magic_integral(6, 2, 1, 1, 8) == -2
    assert magic_integral(5, 3, 1, 1, 8) == 0
    with pytest.raises(DomainError):
        magic_integral(2, 2, 2, 1, 7)


def test_magic_integral_matches_engine():
    for ambient in range(3, 13):
        d = ambient - 1
        total = 2 * d - 4
        s1 = sigma(1, 0, ambient)
        correction = 8 * sigma(1, 1, ambient) - 2 * mul(s1, s1)
        for quad in desc_quadruples(total, total):
            cls = correction
            for n in quad:
                cls = mul(cls, sigma(n, 0, ambient))
            assert integrate(cls) == magic_integral(*quad, ambient), (quad, ambient)


def test_basis_duality():
    for ambient in range(2, 9):
        box = [
            (a, b) for b in range(ambient - 1) for a in range(b, ambient - 1)
        ]
        for (a, b), (c, e) in itertools.product(box, repeat=2):
            want = 1 if (c, e) == (ambient - 2 - b, ambient - 2 - a) else 0
            got = integrate(mul(sigma(a, b, ambient), sigma(c, e, ambient)))
            assert got == want, (ambient, (a, b), (c, e))


def test_class_equality_and_hash():
    assert sigma(1, 0, 4) + sigma(1, 0, 4) == 2 * sigma(1, 0, 4)
    assert sigma(1, 0, 4) != sigma(1, 0, 5)
    with pytest.raises(TypeError):  # no code keys a dict or a memo by a class
        hash(sigma(1, 0, 4))


def test_repr_mentions_ambient():
    assert "Gr(2,5)" in repr(sigma(2, 1, 5))
