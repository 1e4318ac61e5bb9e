"""Genus-1 counts: four pipelines, weighted closed forms, recursion,
duality.  The naive convolution oracle in tests/oracles.py supplies the
reference values; the four pipelines must also agree among themselves.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pencils import genus1, verify
from pencils.errors import DomainError
from pencils.genus1 import (
    MAX_ASSEMBLY_DEGREE,
    MAX_INVERSION_DEGREE,
    MAX_SERIES_DEGREE,
    Genus1Tuple,
    METHODS,
    count,
    count_laurent,
    count_polynomial,
    count_schubert,
    count_series,
    on_shell_tuples,
    unweighted_from_weighted,
    weighted_count,
    weighted_fixed_first,
    weighted_from_unweighted,
)
from pencils.grassmann import SchubertClass, mul, sigma
from pencils.laurent import LaurentPolynomial, constant_term, p_poly, pairing as laurent_pairing

from oracles import (
    BOTTOM_GAP_TABLE,
    BOTTOM_GAP_TERMS,
    TOP_GAP_TERMS,
    evaluate_terms,
    genus1_constant_term,
    ordered_on_shell,
    p_dict,
    polynomial_value,
    schubert_chain_count,
    series_chain_count,
    series_count,
    syt_brute,
    unweighted_recursive,
    weighted_assembly,
)

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
                assert count_schubert(t) == want, perm


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


def test_laurent_extension_is_the_closed_form_or_zero(fresh_memos):
    # the degeneration reads count_laurent at orders up to 2*deg + 1, the
    # most one order can take; above the degree the count is 0
    tuples = outside = 0
    for degree in range(2, 21):
        for quad in rep_tuples(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            inside = quad[0] <= degree
            assert count_laurent(t) == (count_polynomial(t) if inside else 0), quad
            tuples += 1
            outside += not inside
    assert (tuples, outside) == (3869, 2269)


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
    # a string is one method name, not a sequence of one-letter names
    t = Genus1Tuple(4, 4, 3, 3)
    for name in METHODS:
        assert count(t, name).values == {name: 208}
    assert count(t, None).values == count(t, "all").values == count(t, METHODS).values
    with pytest.raises(DomainError, match="unknown method 'lau'"):
        count(t, "lau")
    for empty in ([], ()):
        with pytest.raises(DomainError, match="no method selected"):
            count(t, empty)


def test_recursion_both_directions():
    # the whole admissible order range, not just orders <= degree
    tuples = 0
    for degree in range(2, 16):
        for quad in rep_tuples(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            assert weighted_from_unweighted(t) == weighted_count(t), quad
            assert unweighted_from_weighted(t) == count_laurent(t), quad
            tuples += 1
    assert tuples == 1446


def test_inversion_closed_form_matches_the_recursion_oracle():
    for degree in range(2, 11):
        for quad in rep_tuples(degree, max_order=2 * degree + 1):
            assert unweighted_from_weighted(Genus1Tuple(*quad)) == unweighted_recursive(quad)


def test_count_laurent_matches_the_three_product_constant_term(fresh_memos):
    # every labeled tuple, with orders outside 1..degree: the degeneration
    # relies on the extension returning 0 there.  Labeled tuples reach each
    # memoized pair product with its orders either way round, and an order 1
    # puts P_0 = 0 in it.
    for degree in range(2, 13):
        for quad in ordered_on_shell(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            p1, p2, p3, p4 = (p_poly(d - 1) for d in quad)
            want = constant_term(p1 * p2 * p3 * p4)
            assert count_laurent(t) == laurent_pairing(p1 * p2, p3 * p4) == want, quad
            if degree <= 10:
                w1, w2, w3, w4 = (genus1._weighted_block(d) for d in quad)
                want = laurent_pairing(w1 * w2, w3 * w4)
                assert weighted_from_unweighted(t) == want == weighted_count(t), quad


def test_paired_halves_match_the_chain_oracles(fresh_memos):
    # every labeled tuple through degree 12 against the accumulating chains
    # the series and Schubert pipelines replaced, and the full series
    # product; the oracles are symmetric in the labels, so each multiset's
    # values are computed once
    tuples = 0
    for degree in range(2, 13):
        want = {}
        for quad in on_shell_tuples(degree):
            want[quad] = series_chain_count(quad)
            assert schubert_chain_count(quad) == series_count(quad) == want[quad], quad
        for quad in ordered_on_shell(degree):
            t = Genus1Tuple(*quad)
            value = want[t.sorted_desc()]
            assert count_series(t) == count_schubert(t) == value, quad
            tuples += 1
    assert tuples == 3806


def test_schubert_correction_is_its_pieri_expansion():
    # count_schubert writes 8 s(1,1) - 2 s(1,0)^2 as 6 s(1,1) - 2 s(2,0); on
    # Gr(2, 3), degree 2, s(2,0) leaves the box, as in the engine's product
    for ambient in range(2, 41):
        s1 = sigma(1, 0, ambient)
        want = 8 * sigma(1, 1, ambient) - 2 * mul(s1, s1)
        assert SchubertClass(ambient, {(1, 1): 6, (2, 0): -2}) == want, ambient


def _count_products(monkeypatch):
    calls = []
    original = LaurentPolynomial.__mul__

    def counted(self, other):
        if isinstance(other, LaurentPolynomial):
            calls.append(1)
        return original(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    return calls


def test_constant_terms_make_two_products(monkeypatch, fresh_memos):
    t = Genus1Tuple(9, 7, 6, 4)
    calls = _count_products(monkeypatch)
    assert count_laurent(t) == genus1_constant_term(t.orders())
    assert len(calls) == 2
    assert weighted_from_unweighted(t) == weighted_count(t)
    assert len(calls) == 4
    # relabeling within and across the two pairs reads both products again
    for quad in ((7, 9, 4, 6), (6, 4, 9, 7)):
        relabeled = Genus1Tuple(*quad)
        assert count_laurent(relabeled) == count_laurent(t)
        assert weighted_from_unweighted(relabeled) == weighted_count(t)
    assert len(calls) == 4


def test_inversion_makes_no_products(monkeypatch):
    t = Genus1Tuple(20, 20, 20, 20)
    calls = _count_products(monkeypatch)
    got = unweighted_from_weighted(t)
    assert calls == []
    assert got == count_laurent(t)


def test_weighted_block_closed_form_matches_the_tableau_sum():
    # W_d = sum_k syt(d-k-1, k) P_(d-2k-1), with brute-force tableaux
    for d in range(1, 16):
        want: dict[int, int] = {}
        for k in range((d + 1) // 2):
            for e, c in p_dict(d - 2 * k - 1).items():
                want[e] = want.get(e, 0) + syt_brute(d - k - 1, k) * c
        assert genus1._weighted_block(d).terms == {e: c for e, c in want.items() if c}, d


def test_weighted_assembly_matches_term_by_term_oracle():
    # every labeled tuple, including orders 1 and the shifts below degree 2
    for degree in range(2, 10):
        for quad in ordered_on_shell(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            assert weighted_from_unweighted(t) == weighted_assembly(quad), quad


def test_verify_stays_inside_the_recursion_bounds(monkeypatch):
    # the recursion sweep reaches degree level + 1
    degrees = set()

    def recording(t):
        degrees.add(t.degree)
        return count_laurent(t)

    monkeypatch.setattr(verify, "unweighted_from_weighted", recording)
    verify.weighted_recursion_consistency(4)
    assert max(degrees) == 5
    assert verify.MAX_VERIFY_LEVEL + 1 <= min(MAX_ASSEMBLY_DEGREE, MAX_INVERSION_DEGREE)


def test_series_bound_is_checked_before_any_pipeline_runs(monkeypatch):
    def never(t):
        raise AssertionError("a pipeline ran before the series bound check")

    for name in METHODS:
        monkeypatch.setitem(METHODS, name, never)
    over = Genus1Tuple(1000, 1000, 1000, 1000)
    message = f"^count_series: degree 1998 exceeds the bound {MAX_SERIES_DEGREE} "
    for methods in ("all", ["schubert", "series"], ["laurent", "polynomial", "series"]):
        with pytest.raises(DomainError, match=message):
            count(over, methods)
    # the series bound belongs to the series pipeline alone
    top = MAX_SERIES_DEGREE
    a = (top + 4) // 2
    above_series = Genus1Tuple(a, a, top + 3 - a, top + 3 - a)  # degree top + 1
    with pytest.raises(AssertionError, match="a pipeline ran"):
        count(above_series, ["schubert"])


def test_tightest_selected_bound_is_checked_first(monkeypatch):
    def never(t):
        raise AssertionError("a pipeline ran before the bound check")

    for name in METHODS:
        monkeypatch.setitem(METHODS, name, never)
    over = Genus1Tuple(2002, 2002, 2001, 2001)  # degree 4001, above all three bounds
    for methods, pipeline in (
        (["laurent", "schubert", "series"], "series"),
        (["laurent", "schubert"], "schubert"),
        (["polynomial", "laurent"], "laurent"),
    ):
        with pytest.raises(DomainError, match=f"^count_{pipeline}: degree 4001 exceeds"):
            count(over, methods)


def test_recursion_shifted_tuple_below_degree_two_contributes_zero():
    # (2,2,2,2) admits no base points at all
    assert weighted_from_unweighted(Genus1Tuple(2, 2, 2, 2)) == 6


def test_duality():
    anchor = Genus1Tuple(4, 4, 4, 2)
    assert anchor.reflected() == Genus1Tuple(3, 3, 3, 5)
    assert (count_laurent(anchor), count_laurent(anchor.reflected())) == (96, 96)
    for degree in range(2, 10):
        for quad in rep_tuples(degree, min_order=2):
            t = Genus1Tuple(*quad)
            assert count_laurent(t) == count_laurent(t.reflected()), quad


def test_reflection_is_an_involution_that_keeps_the_degree():
    tuples = 0
    for degree in range(2, 13):
        for quad in on_shell_tuples(degree, ordered=True):
            t = Genus1Tuple(*quad)
            assert t.reflected().degree == degree, quad
            assert t.reflected().reflected() == t, quad
            tuples += 1
    assert tuples == 3806


def test_polynomial_branch_boundary_agreement():
    # on the boundary neither call reflects: the top-gap branch, then the bottom
    boundary = 0
    for degree in range(2, 10):
        for quad in rep_tuples(degree):
            d1, d2, d3, d4 = quad
            if d1 - d2 == d3 - d4:
                t = Genus1Tuple(*quad)
                lo, hi = count_polynomial(t.reflected()), count_polynomial(t)
                assert lo == hi == count_laurent(t), quad
                boundary += 1
    assert boundary > 20


def test_bottom_gap_branch_is_the_reflected_top_gap_branch():
    # With d4 = 2D - d1 - d2 - d3 the difference of the two sides is a
    # polynomial of degree <= 7 in (d1, d2, d3, D); vanishing on the grid
    # {0..7}^4 makes it identically zero.
    for d1, d2, d3, half in itertools.product(range(8), repeat=4):
        d4 = 2 * half - d1 - d2 - d3
        reflected = (half - d4, half - d3, half - d2, half - d1)
        assert polynomial_value(BOTTOM_GAP_TABLE, (d1, d2, d3, d4)) == evaluate_terms(
            TOP_GAP_TERMS, reflected
        ), (d1, d2, d3, d4)


def test_factored_form_is_the_bottom_gap_table():
    # the same grid and degree argument: the factored form is the whole table
    for d1, d2, d3, half in itertools.product(range(8), repeat=4):
        orders = (d1, d2, d3, 2 * half - d1 - d2 - d3)
        assert genus1._bottom_gap_value(orders) == evaluate_terms(BOTTOM_GAP_TERMS, orders), orders


def test_branch_values_match_the_transcribed_top_gap_table():
    # both branches, on and off the boundary, against one base**e per factor
    cases = 0
    for degree in range(2, 21):
        for quad in rep_tuples(degree):
            t = Genus1Tuple(*quad)
            reflected = t.reflected().sorted_desc()
            assert (
                genus1._bottom_gap_value(reflected),
                genus1._bottom_gap_value(t.sorted_desc()),
            ) == (
                evaluate_terms(TOP_GAP_TERMS, quad),
                evaluate_terms(TOP_GAP_TERMS, reflected),
            ), quad
            cases += 1
    assert cases == 1600


def test_bottom_gap_oracle_matches_count_polynomial():
    cases = 0
    for degree in range(2, 21):
        for quad in rep_tuples(degree):
            d1, d2, d3, d4 = quad
            if d1 - d2 <= d3 - d4:
                want = polynomial_value(BOTTOM_GAP_TABLE, quad)
                assert count_polynomial(Genus1Tuple(*quad)) == want, quad
                cases += 1
    assert cases > 1000


def test_top_order_family():
    # first index equal to the degree collapses to a product formula
    for degree in range(2, 10):
        for quad in rep_tuples(degree):
            if quad[0] == degree:
                want = 2 * (degree + 1) * (quad[1] - 1) * (quad[2] - 1) * (quad[3] - 1)
                assert count_laurent(Genus1Tuple(*quad)) == want, quad


def test_on_shell_tuples_enumeration():
    # every bound combination the sweeps and tables use, against the brute force
    for degree in range(2, 15):
        for bounds in ({}, {"min_order": 2}, {"max_order": 2 * degree - 1},
                       {"min_order": 2, "max_order": 2 * degree - 1}):
            labeled = sorted(ordered_on_shell(degree, **bounds))
            assert on_shell_tuples(degree, ordered=True, **bounds) == labeled, bounds
            reps = sorted(set(tuple(sorted(q, reverse=True)) for q in labeled))
            assert on_shell_tuples(degree, **bounds) == reps, bounds
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
