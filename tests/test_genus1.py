"""Genus-1 counts: four pipelines, weighted closed forms, recursion,
duality.  The naive convolution oracle in tests/oracles.py supplies the
reference values; the four pipelines must also agree among themselves.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pencils.errors import DomainError
from pencils.genus1 import (
    MAX_SERIES_DEGREE,
    Genus1Tuple,
    METHODS,
    count,
    count_laurent,
    count_polynomial,
    count_schubert,
    count_series,
    duality_check,
    on_shell_tuples,
    polynomial_branch_values,
    unweighted_from_weighted,
    weighted_count,
    weighted_fixed_first,
    weighted_from_unweighted,
)

from oracles import genus1_constant_term, ordered_on_shell, weighted_assembly

# frozen from the convolution oracle, degrees 2..5
KNOWN_COUNTS = {
    (2, 2, 2, 2): 6,
    (3, 3, 2, 2): 16,
    (3, 3, 3, 1): 0,
    (3, 3, 3, 3): 96,
    (4, 3, 3, 2): 40,
    (4, 4, 2, 2): 30,
    (4, 4, 3, 1): 0,
    (4, 4, 3, 3): 208,
    (4, 4, 4, 2): 96,
    (5, 3, 3, 3): 96,
    (5, 4, 3, 2): 72,
    (5, 5, 2, 2): 48,
}


def rep_tuples(degree, min_order=1, max_order=None):
    return on_shell_tuples(degree, min_order=min_order, max_order=max_order)


def test_tuple_validation():
    with pytest.raises(DomainError):
        Genus1Tuple(0, 3, 3, 2)
    with pytest.raises(DomainError):
        Genus1Tuple(3, 2, 2, 2)  # odd sum
    with pytest.raises(DomainError):
        Genus1Tuple(2, 2, 1, 1)  # degree below 2
    t = Genus1Tuple(5, 4, 3, 2)
    assert t.degree == 5
    assert t.sorted_desc() == (5, 4, 3, 2)
    assert Genus1Tuple(2, 5, 3, 4).sorted_desc() == (5, 4, 3, 2)


def test_known_values_all_methods():
    for quad, want in KNOWN_COUNTS.items():
        t = Genus1Tuple(*quad)
        assert count_laurent(t) == want, quad
        if max(quad) <= t.degree:
            assert count_schubert(t) == want, quad
            assert count_polynomial(t) == want, quad
            assert count_series(t) == want, quad


def test_four_methods_match_oracle():
    for degree in range(2, 8):
        for quad in rep_tuples(degree):
            want = genus1_constant_term(quad)
            t = Genus1Tuple(*quad)
            assert count_schubert(t) == want, quad
            assert count_laurent(t) == want, quad
            assert count_polynomial(t) == want, quad
            assert count_series(t) == want, quad
            assert want >= 0, quad


def test_four_methods_agree_through_degree_nine():
    for degree in (8, 9):
        for quad in rep_tuples(degree):
            report = count(Genus1Tuple(*quad))
            assert report.agreed, (quad, report.values)


def test_permutation_symmetry():
    for degree in range(2, 8):
        for quad in rep_tuples(degree):
            want = count_laurent(Genus1Tuple(*quad))
            for perm in set(itertools.permutations(quad)):
                t = Genus1Tuple(*perm)
                assert count_laurent(t) == want, perm
                assert count_polynomial(t) == want, perm


def test_out_of_domain_extension_vanishes():
    assert count_laurent(Genus1Tuple(4, 2, 2, 2)) == 0
    assert count_laurent(Genus1Tuple(6, 2, 2, 2)) == 0
    assert count_laurent(Genus1Tuple(5, 5, 5, 1)) == 0
    with pytest.raises(DomainError):
        count_schubert(Genus1Tuple(4, 2, 2, 2))
    with pytest.raises(DomainError):
        count_polynomial(Genus1Tuple(4, 2, 2, 2))
    with pytest.raises(DomainError):
        count_series(Genus1Tuple(4, 2, 2, 2))


def test_weighted_count_closed_form():
    assert weighted_count(Genus1Tuple(2, 2, 2, 2)) == 6
    assert weighted_count(Genus1Tuple(3, 3, 2, 2)) == 16
    assert weighted_count(Genus1Tuple(4, 4, 3, 3)) == 432
    assert weighted_count(Genus1Tuple(1, 5, 3, 3)) == 0
    # orders above the degree are fine for the weighted form
    assert weighted_count(Genus1Tuple(7, 2, 2, 1)) == 0
    # degree 5: 12 * catalan(3) / 5 = 12, times (6 * 2 * 1 * 1)
    assert weighted_count(Genus1Tuple(7, 3, 2, 2)) == 144


def test_weighted_fixed_first():
    assert weighted_fixed_first(Genus1Tuple(2, 2, 2, 2)) == 6
    assert weighted_fixed_first(Genus1Tuple(2, 3, 3, 2)) == 16
    assert weighted_fixed_first(Genus1Tuple(4, 3, 3, 2)) == 40
    with pytest.raises(DomainError):
        weighted_fixed_first(Genus1Tuple(4, 2, 2, 2))  # first order above degree


def test_weighted_fixed_first_with_simple_first_order_is_weighted_count():
    for degree in range(2, 7):
        for quad in rep_tuples(degree):
            reordered = (2,) + quad[:3]
            if sum(reordered) == sum(quad):
                t = Genus1Tuple(*reordered)
                assert weighted_fixed_first(t) == weighted_count(t), reordered


def test_weighted_fixed_first_top_order_collapse():
    for degree in range(2, 10):
        for quad in rep_tuples(degree):
            if quad[0] == degree:
                t = Genus1Tuple(*quad)
                want = 2 * (degree + 1) * (quad[1] - 1) * (quad[2] - 1) * (quad[3] - 1)
                assert weighted_fixed_first(t) == want, quad


def test_count_report():
    report = count(Genus1Tuple(3, 3, 3, 3))
    assert report.agreed
    assert set(report.values) == set(METHODS)
    assert set(report.values.values()) == {96}
    partial = count(Genus1Tuple(3, 3, 3, 3), ("laurent",))
    assert partial.values == {"laurent": 96}
    with pytest.raises(DomainError):
        count(Genus1Tuple(2, 2, 2, 2), ("nope",))


def test_recursion_both_directions():
    # the whole admissible order range, not just orders <= degree
    for degree in range(2, 9):
        for quad in rep_tuples(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            assert weighted_from_unweighted(t) == weighted_count(t), quad
            assert unweighted_from_weighted(t) == count_laurent(t), quad


def test_weighted_assembly_matches_term_by_term_oracle():
    # every labeled tuple, including orders 1 and the shifts below degree 2
    for degree in range(2, 10):
        for quad in ordered_on_shell(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            assert weighted_from_unweighted(t) == weighted_assembly(quad), quad


def test_series_degree_bound():
    top = MAX_SERIES_DEGREE
    assert top >= 30
    a = (top + 4) // 2
    over = Genus1Tuple(a, a, top + 3 - a, top + 3 - a)  # degree top + 1
    with pytest.raises(DomainError, match=f"degree {top + 1} exceeds the bound {top}"):
        count_series(over)
    with pytest.raises(DomainError, match=f"bound {top}"):
        count(over)


def test_recursion_shifted_tuple_below_degree_two_contributes_zero():
    # (2,2,2,2) admits no base points at all
    assert weighted_from_unweighted(Genus1Tuple(2, 2, 2, 2)) == 6


def test_duality():
    n1, n2, flag = duality_check(Genus1Tuple(4, 4, 4, 2))
    assert (n1, n2, flag) == (96, 96, True)
    for degree in range(2, 10):
        for quad in rep_tuples(degree, min_order=2):
            a, b, flag = duality_check(Genus1Tuple(*quad))
            assert flag, (quad, a, b)
    with pytest.raises(DomainError):
        duality_check(Genus1Tuple(3, 3, 3, 1))  # image order exceeds the degree


def test_polynomial_branch_boundary_agreement():
    boundary = 0
    for degree in range(2, 10):
        for quad in rep_tuples(degree):
            d1, d2, d3, d4 = quad
            if d1 - d2 == d3 - d4:
                lo, hi = polynomial_branch_values(Genus1Tuple(*quad))
                assert lo == hi == count_laurent(Genus1Tuple(*quad)), quad
                boundary += 1
    assert boundary > 20


def test_top_order_family():
    # first index equal to the degree collapses to a product formula
    for degree in range(2, 10):
        for quad in rep_tuples(degree):
            if quad[0] == degree:
                want = 2 * (degree + 1) * (quad[1] - 1) * (quad[2] - 1) * (quad[3] - 1)
                assert count_laurent(Genus1Tuple(*quad)) == want, quad


def test_on_shell_tuples_enumeration():
    for degree in range(2, 8):
        ordered = on_shell_tuples(degree, ordered=True)
        assert ordered == sorted(ordered_on_shell(degree))
        reps = on_shell_tuples(degree)
        assert reps == sorted(set(tuple(sorted(q, reverse=True)) for q in ordered))
    with pytest.raises(DomainError):
        on_shell_tuples(1)


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_agreement_property(degree, data):
    quads = on_shell_tuples(degree, ordered=True)
    quad = data.draw(st.sampled_from(quads))
    report = count(Genus1Tuple(*quad))
    assert report.agreed
    assert report.values["laurent"] == genus1_constant_term(quad)
