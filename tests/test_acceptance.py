"""Acceptance gate: one test per release criterion, at full advertised bounds.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints an explicit PASS line (visible with
``-s`` or in captured output) summarising the sweep it completed.
"""

from pencils.cli import main
from pencils.degeneration import (
    RamificationProblem,
    consolidate_fixed,
    count_with_padding,
    genus_g_count,
    genus_g_weighted,
    on_shell_problems,
)
from pencils.exactmath import catalan, syt_count
from pencils.genus1 import (
    Genus1Tuple,
    count,
    count_laurent,
    count_polynomial,
    count_schubert,
    count_series,
    on_shell_tuples,
    unweighted_from_weighted,
    weighted_count,
    weighted_from_unweighted,
)
from pencils.grassmann import (
    fourfold_integral,
    integrate,
    magic_integral,
    mul,
    sigma,
    sigma1_power,
    unit,
)
from pencils.qseries import catalan_power_series, schur_q

from oracles import genus1_constant_term, geometric_inverse


def _desc_quadruples(total, max_part):
    for n1 in range(min(total, max_part), -1, -1):
        for n2 in range(min(n1, total - n1), -1, -1):
            for n3 in range(min(n2, total - n1 - n2), -1, -1):
                n4 = total - n1 - n2 - n3
                if 0 <= n4 <= n3:
                    yield (n1, n2, n3, n4)


def test_criterion_01_anchor_tuple_by_all_four_methods():
    t = Genus1Tuple(2, 2, 2, 2)
    values = {
        "schubert": count_schubert(t),
        "laurent": count_laurent(t),
        "polynomial": count_polynomial(t),
        "series": count_series(t),
    }
    assert set(values.values()) == {6}, values
    print("PASS criterion 1: (2,2,2,2) -> 6 by schubert, laurent, polynomial, series")


def test_criterion_02_total_ramification_family():
    for d in range(2, 11):
        want = 2 * (d * d - 1)
        assert count_laurent(Genus1Tuple(d, d, 2, 2)) == want, d
        p = RamificationProblem(1, d, (d,), (d,))
        assert count_with_padding(p) == (d * d - 1, want, 2), d
    print(
        "PASS criterion 2: count(d,d,2,2) = 2(d^2-1) for d <= 10, and the "
        "one-moving-point problem returns d^2-1 after the 2! padding factor"
    )


def test_criterion_03_four_method_agreement():
    tuples = 0
    for degree in range(2, 10):
        # on_shell_tuples caps every order at the degree: the closed forms' domain
        for quad in on_shell_tuples(degree, ordered=True):
            report = count(Genus1Tuple(*quad))
            assert report.agreed, (quad, report.values)
            tuples += 1
    assert tuples > 1000
    # independent spot-check of the shared value on ordered tuples
    for degree in range(2, 7):
        for quad in on_shell_tuples(degree, ordered=True):
            assert count_laurent(Genus1Tuple(*quad)) == genus1_constant_term(quad)
    print(f"PASS criterion 3: four pipelines identical on {tuples} in-domain tuples, degrees 2..9")


def test_criterion_04_degree_reflection_duality():
    anchor = Genus1Tuple(4, 4, 4, 2)
    assert anchor.reflected() == Genus1Tuple(3, 3, 3, 5)
    assert (count_laurent(anchor), count_laurent(anchor.reflected())) == (96, 96)
    assert count_laurent(Genus1Tuple(5, 3, 3, 3)) == 96
    pairs = 0
    for degree in range(2, 10):
        for quad in on_shell_tuples(degree, ordered=True, min_order=2):
            t = Genus1Tuple(*quad)
            a, b = count_laurent(t), count_laurent(t.reflected())
            assert a == b, quad
            pairs += 1
    assert pairs > 800
    print(f"PASS criterion 4: reflection o -> d+2-o preserves {pairs} in-domain counts, degrees 2..9")


def test_criterion_05_weighted_recursion_and_inversion():
    tuples = 0
    for degree in range(2, 9):
        for quad in on_shell_tuples(degree, max_order=2 * degree + 1):
            t = Genus1Tuple(*quad)
            assert weighted_from_unweighted(t) == weighted_count(t), quad
            assert unweighted_from_weighted(t) == count_laurent(t), quad
            tuples += 1
    print(
        f"PASS criterion 5: base-point recursion and its inversion exact on "
        f"{tuples} tuples, degrees 2..8"
    )


def test_criterion_06_engine_matches_closed_forms():
    fourfold_cases = 0
    for ambient in range(2, 13):
        total = 2 * ambient - 4
        for quad in _desc_quadruples(total, total):
            cls = unit(ambient)
            for n in quad:
                cls = mul(cls, sigma(n, 0, ambient))
            assert integrate(cls) == fourfold_integral(*quad, ambient), (quad, ambient)
            fourfold_cases += 1
    magic_cases = 0
    for ambient in range(3, 13):
        s1 = sigma(1, 0, ambient)
        correction = 8 * sigma(1, 1, ambient) - 2 * mul(s1, s1)
        total = 2 * (ambient - 1) - 4
        for quad in _desc_quadruples(total, total):
            cls = correction
            for n in quad:
                cls = mul(cls, sigma(n, 0, ambient))
            assert integrate(cls) == magic_integral(*quad, ambient), (quad, ambient)
            magic_cases += 1
    for d in range(2, 13):
        assert integrate(sigma1_power(2 * d - 2, d + 1)) == catalan(d - 1), d
    for ambient in range(2, 13):
        for k in range(0, 15):
            cls = sigma1_power(k, ambient)
            for b in range(ambient - 1):
                for a in range(b, ambient - 1):
                    want = syt_count(a, b) if a + b == k else 0
                    assert cls.coefficient(a, b) == want, (k, ambient, a, b)
    print(
        f"PASS criterion 6: engine vs closed forms ({fourfold_cases} fourfold, "
        f"{magic_cases} corrected quadruples), Catalan top powers to degree 12, "
        f"hyperplane powers k <= 14"
    )


def test_criterion_07_generating_function_identities():
    for t in range(1, 7):
        f = catalan_power_series(t, 16)
        for m in range(16):
            assert f[m] == syt_count(t + m - 1, m), (t, m)
    for n in range(2, 17):
        rows = geometric_inverse(n)
        square = {}
        for k in range(n - 1):
            for e1, c1 in rows[k].items():
                for e2, c2 in rows[n - 2 - k].items():
                    square[e1 + e2] = square.get(e1 + e2, 0) + c1 * c2
        square = {e: c for e, c in square.items() if c}
        conv = {}
        for i in range(n - 1):
            prod = schur_q(i, n) * schur_q(n - 2 - i, n)
            for e in range(n):
                c = prod.coefficient(e)
                if c:
                    conv[e] = conv.get(e, 0) + c
        assert square == conv, n
        assert all(e <= n // 2 - 1 for e in square), n
    print(
        "PASS criterion 7: tableau-count series coefficients (t <= 6, m <= 15) "
        "and the inverse-square / two-row convolution identity (n <= 16, "
        "q-degree <= n//2 - 1)"
    )


def test_criterion_08_degeneration_anchors():
    reduced = 0
    for degree in range(2, 7):
        for quad in on_shell_tuples(degree, ordered=True, min_order=2):
            p = RamificationProblem(1, degree, quad[:1], quad[1:])
            assert genus_g_count(p) == count_laurent(Genus1Tuple(*quad)), quad
            reduced += 1
    sextuple = RamificationProblem(2, 2, (), (2,) * 6)
    assert genus_g_count(sextuple) == 720
    consolidated = 0
    for g in (1, 2):
        for d in range(2, 6):
            for p in on_shell_problems(g, d):
                if not p.fixed:
                    continue
                assert genus_g_weighted(p) == genus_g_weighted(consolidate_fixed(p)), p
                consolidated += 1
    print(
        f"PASS criterion 8: genus-1 reduction on {reduced} problems (deg <= 6), "
        f"hyperelliptic sextuple -> 720, weighted consolidation invariant on "
        f"{consolidated} problems (g <= 2, d <= 5)"
    )


def test_criterion_09_polynomial_transcription_guard():
    checked = boundary = 0
    for degree in range(2, 10):
        for quad in on_shell_tuples(degree):
            t = Genus1Tuple(*quad)
            value = count_polynomial(t)
            assert isinstance(value, int), quad
            assert value == count_laurent(t), quad
            checked += 1
            d1, d2, d3, d4 = quad
            if d1 - d2 == d3 - d4:
                lo, hi = count_polynomial(t.reflected()), count_polynomial(t)
                assert isinstance(lo, int) and isinstance(hi, int)
                assert lo == hi == value, quad
                boundary += 1
    assert boundary > 20
    print(
        f"PASS criterion 9: closed polynomials match the constant-term method on "
        f"{checked} tuples (deg <= 9); both branches agree on {boundary} boundary tuples"
    )


def test_criterion_10_verify_gate(capsys):
    code = main(["verify", "--suite", "all", "--max-degree", "7"])
    out = capsys.readouterr().out
    assert code == 0
    # every property's detail, so a rewrite that changes a case count fails here
    expected = [
        ("sigma1_powers_match_tableau_counts",
         "powers k <= 14 on Gr(2,N), N <= 10, 2475 coefficients"),
        ("sigma1_top_power_is_catalan", "top self-intersections for degrees 2..12"),
        ("fourfold_closed_form_matches_engine", "392 quadruples on Gr(2,N), N <= 12"),
        ("special_quadratic_integral_matches_engine",
         "284 quadruples against the 6/4/2/-2/0 table, N <= 12"),
        ("basis_duality", "1596 basis pairings, N <= 8"),
        ("building_block_symmetry", "antisymmetry to r = 30, 60 odd products vanish"),
        ("four_method_agreement", "95 tuples through degree 9, four pipelines identical"),
        ("closed_form_branch_guard", "95 tuples, 40 boundary tuples agree across branches"),
        ("series_coefficient_identities",
         "f_t tables t <= 6, m <= 15; inverse-square identity to x^16 with q-degree bounds; "
         "27 identities"),
        ("degree_reflection_duality", "72 tuples through degree 9, reflection preserves counts"),
        ("weighted_recursion_consistency", "183 tuples with orders to 2*deg-1, degrees 2..8"),
        ("genus1_reduction", "36 single-tail problems through degree 6, unweighted and weighted"),
        ("total_ramification_family", "degrees 2..10, padded counts divide out exactly"),
        ("hyperelliptic_sextuple",
         "720 = 6! labelings of the hyperelliptic branch points; worked example 16; genus 0..2 "
         "to degree 10: (3g)! Catalan(d-1) from 2d-g-2 simple fixed points, unweighted and "
         "weighted; genus 0: 1 from (d,d), Catalan(d-1) weighted"),
        ("weighted_consolidation_invariance", "192 problems with g <= 2, d <= 5"),
        ("label_symmetry", "55 relabelings through degree 6"),
    ]
    assert out.splitlines() == [f"PASS {name}: {detail}" for name, detail in expected] + [
        f"{len(expected)}/{len(expected)} properties passed"
    ]
    print("PASS criterion 10: verify --suite all --max-degree 7 exits 0, all properties PASS")
