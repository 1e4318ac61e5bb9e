"""Degeneration pipeline: problem validation, the problem enumerator,
genus-0 integrals, problems with fewer than 3g moving points,
distributions, the genus-g assembly against the genus-1 pipelines and
classical counts, and the facts found so far about the reflection and the
weighted counts."""

import functools
import gc
import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from pencils import degeneration
from pencils.degeneration import (
    RamificationProblem,
    consolidate_fixed,
    count_with_padding,
    distributions,
    genus_g_count,
    genus_g_weighted,
    on_shell_problems,
)
from pencils.errors import DomainError
from pencils.exactmath import binomial, catalan, exact_div, syt_count
from pencils.genus1 import (
    Genus1Tuple,
    count_laurent,
    on_shell_tuples,
    weighted_count,
    weighted_fixed_first,
)
from pencils.grassmann import SchubertClass, integrate, mul, pairing, sigma, sigma1_power, unit

from oracles import genus0_integral, ordered_distributions, problems_with_fixed


def test_problem_validation():
    # each problem also fails every later check it can, so the text must be
    # the first check's, in the order genus, degree, orders, moving count,
    # stability, dimension
    cases = [
        ((-1, 1, (1,), (2,) * 4), "genus must be >= 0, got -1"),
        ((0, 1, (1,), (2,)), "degree must be >= 2, got 1"),
        ((0, 3, (1, 3), (2,)), "order 1 < 2 imposes no condition"),
        ((1, 3, (2,), (1, 2)), "order 1 < 2 imposes no condition"),
        ((1, 3, (2, 1), (0, 2)), "order 1 < 2 imposes no condition"),  # fixed before moving
        ((1, 3, (3, 1, 0), (2,)), "order 1 < 2 imposes no condition"),
        ((1, 2, (), (2,) * 4), "4 moving conditions exceed 3*genus = 3"),
        ((1, 2, (), (2, 2, 2)), "unstable: need 2*genus - 2 + #fixed > 0, got 0"),
        ((1, 3, (2, 2), (2, 2)),
         "off-shell: conditions impose 2 but pencils of degree 3 on a genus-1 "
         "curve move in dimension 3"),
    ]
    for args, text in cases:
        with pytest.raises(DomainError) as err:
            RamificationProblem(*args)
        assert str(err.value) == text, args
    # genus 0 has no tails to stabilize: one or two fixed points are an integral
    assert RamificationProblem(0, 3, (3, 3)).n == 2
    assert RamificationProblem(0, 3, (5,)).n == 1


def test_problem_properties():
    p = RamificationProblem(1, 3, (2, 2), (2, 2, 3))
    assert (p.n, p.m) == (2, 3)
    assert p.fixed == (2, 2) and p.moving == (2, 2, 3)
    # lists in either field become tuples: the same problem, with the same hash
    for fixed, moving in (([2, 2], [2, 2, 3]), ([2, 2], (2, 2, 3)), ((2, 2), [2, 2, 3])):
        listed = RamificationProblem(1, 3, fixed, moving)
        assert (listed.fixed, listed.moving) == ((2, 2), (2, 2, 3)), (fixed, moving)
        assert listed == p and hash(listed) == hash(p), (fixed, moving)


def _genus0(d, fixed):
    return RamificationProblem(0, d, fixed)


def test_genus0_examples():
    assert genus_g_count(_genus0(2, (2, 2))) == 1
    assert genus_g_count(_genus0(3, (2, 2, 2, 2))) == 2
    assert genus_g_count(_genus0(3, (3, 3))) == 1
    assert genus_g_count(_genus0(4, (2,) * 6)) == catalan(3)
    for d in range(2, 8):
        assert genus_g_count(_genus0(d, (d, d))) == 1
    # an order above the degree leaves the box: 0, as at every genus
    assert genus_g_count(_genus0(3, (4, 2))) == 0
    with pytest.raises(DomainError, match="off-shell"):
        _genus0(3, (2, 2))


def test_genus0_weighted():
    assert genus_g_weighted(_genus0(2, (2, 2))) == 1
    assert genus_g_weighted(_genus0(3, (3, 3))) == 2
    assert genus_g_weighted(_genus0(4, (4, 4))) == 5
    # the weighted count only sees the total: any on-shell orders give
    # the same Catalan number, and orders above the degree are allowed
    for d in range(2, 10):
        assert genus_g_weighted(_genus0(d, (d, d))) == catalan(d - 1)
        assert genus_g_weighted(_genus0(d, (2,) * (2 * d - 2))) == catalan(d - 1)
    assert genus_g_weighted(_genus0(3, (4, 2))) == 2
    with pytest.raises(DomainError, match="off-shell"):
        _genus0(3, (3, 2))


def test_genus0_problems_match_the_pieri_oracle():
    problems = [p for d in range(2, 11) for p in on_shell_problems(0, d)]
    assert len(problems) == 910  # the partitions of 2d - 2, d <= 10
    beyond = 0
    for p in problems:
        want = genus0_integral(p.d, p.fixed)
        assert genus_g_count(p) == want, p
        if max(p.fixed) > p.d:
            assert want == 0
            beyond += 1
        n = p.d - 1
        assert genus_g_weighted(p) == genus0_integral(p.d, p.fixed, weighted=True), p
        assert genus_g_weighted(p) == math.comb(2 * n, n) // (n + 1), p
    assert beyond == 187


def test_on_shell_problems_with_fixed_match_the_oracle():
    for g in range(0, 4):
        for d in range(2, 8):
            got = [(p.g, p.d, p.fixed, p.moving) for p in on_shell_problems(g, d) if p.fixed]
            assert len(got) == len(set(got))
            assert set(got) == set(problems_with_fixed(g, d)), (g, d)


def test_on_shell_problems():
    assert list(on_shell_problems(1, 2)) == [RamificationProblem(1, 2, (2,), (2, 2, 2))]
    assert list(on_shell_problems(2, 2)) == [RamificationProblem(2, 2, (), (2,) * 6)]
    assert list(on_shell_problems(3, 2)) == []  # below the Brill-Noether bound
    assert [p.moving for p in on_shell_problems(1, 3) if not p.fixed] == []  # unstable
    for p in on_shell_problems(2, 5):
        assert p.fixed == tuple(sorted(p.fixed, reverse=True))
        assert p.moving == tuple(sorted(p.moving, reverse=True)) and p.m == 6


@pytest.mark.parametrize("g, d, text", [
    (2, 1, "degree must be >= 2, got 1"),  # once an empty listing
    (-1, 3, "genus must be >= 0, got -1"),  # once an empty listing
    (0, 1, "degree must be >= 2, got 1"),
    (-1, 1, "genus must be >= 0, got -1"),  # the genus first, as RamificationProblem
])
def test_on_shell_problems_refuses_a_genus_or_degree_no_problem_has(g, d, text):
    listing = on_shell_problems(g, d)  # a generator: nothing is checked before next
    with pytest.raises(DomainError) as err:
        next(listing)
    assert str(err.value) == text


def test_classical_counts():
    # Eisenbud-Harris: vanishing (0, o) at one general point with
    # o - 1 = 2d - g - 2 gives g! o / (k! (k + o)!) with k = g - d + 1
    for g, d, o, want in ((1, 2, 2, 1), (2, 3, 3, 1), (3, 3, 2, 2), (3, 4, 4, 1),
                          (4, 4, 3, 3), (4, 5, 5, 1)):
        k = g - d + 1
        assert math.factorial(g) * o // (math.factorial(k) * math.factorial(k + o)) == want
        assert count_with_padding(RamificationProblem(g, d, (o,)))[0] == want, (g, d, o)
    # Weierstrass points: one moving point of order g in degree g, g^3 - g of them
    for g in (2, 3, 4):
        assert count_with_padding(RamificationProblem(g, g, (), (g,)))[0] == g**3 - g


def test_distributions():
    assert distributions((2, 2, 3), 1) == [((2, 2, 3),)]
    twenty = distributions((4, 5, 6, 7, 8, 9), 2)
    assert len(twenty) == 20
    assert len(set(twenty)) == 20
    for dist in twenty:
        assert sorted(x for triple in dist for x in triple) == [4, 5, 6, 7, 8, 9]
    assert len(distributions((2,) * 9, 3)) == 1680
    with pytest.raises(DomainError, match="labels"):
        distributions((2, 2), 1)


def test_distributions_match_the_generator_oracle():
    # the flat enumerator returns the generator chain's list, order included
    checked = set()
    for g in range(0, 4):
        for d in range(2, 7):
            for p in on_shell_problems(g, d):
                labels = tuple(sorted(p.moving))
                if (labels, g) not in checked:
                    assert distributions(labels, g) == ordered_distributions(labels, g), labels
                    checked.add((labels, g))
    assert len(checked) == 151
    # genus 4 only by length: (3g)!/6^g
    assert len(distributions(tuple(range(2, 14)), 4)) == math.factorial(12) // 6**4 == 369_600


def test_distributions_sort_their_labels():
    # any order of the labels, or a list, gives the sorted labels' list, so
    # the fold's keys are sorted triples in a sorted multiset
    labels = (2, 4, 2, 3, 2, 2, 3, 2, 4)
    want = distributions(tuple(sorted(labels)), 3)
    assert want == ordered_distributions(tuple(sorted(labels)), 3)
    folded = degeneration._triple_multisets.__wrapped__(tuple(sorted(labels)), 3)
    rng = random.Random(33)
    for _ in range(5):
        shuffled = list(labels)
        rng.shuffle(shuffled)
        assert distributions(shuffled, 3) == want, shuffled
        assert degeneration._triple_multisets.__wrapped__(tuple(shuffled), 3) == folded, shuffled
    assert distributions([7, 3, 5, 2, 4, 6], 2) == distributions((2, 3, 4, 5, 6, 7), 2)


def test_enumeration_leaves_no_reference_cycle():
    # a nested helper appending to an enclosing list would hold the list in
    # a closure cycle, alive until the collector runs
    labels = (2, 2, 2, 3, 3, 4, 5, 6, 7)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found = distributions(labels, 3)
        folded = degeneration._triple_multisets.__wrapped__(labels, 3)
        assert len(found) == 1680 and sum(n for _, n in folded) == 1680
        del found, folded
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_worked_example():
    p = RamificationProblem(1, 3, (2, 2), (2, 2, 3))
    assert genus_g_count(p) == 16


def test_hyperelliptic_sextuple():
    p = RamificationProblem(2, 2, (), (2,) * 6)
    assert genus_g_count(p) == 720
    assert genus_g_weighted(p) == 720
    bare = RamificationProblem(2, 2)
    assert count_with_padding(bare) == (1, 720, 720)


def test_genus1_reduction_matches_direct_count():
    for degree in range(2, 7):
        for quad in on_shell_tuples(degree, ordered=True, min_order=2):
            p = RamificationProblem(1, degree, quad[:1], quad[1:])
            assert genus_g_count(p) == count_laurent(Genus1Tuple(*quad)), quad


def test_genus1_weighted_reduction():
    for degree in range(2, 7):
        for quad in on_shell_tuples(degree, min_order=2):
            p = RamificationProblem(1, degree, quad[:1], quad[1:])
            assert genus_g_weighted(p) == weighted_count(Genus1Tuple(*quad)), quad


def _split_term(g, d, fixed, moving):
    """The unweighted count after base points took k from each order: a
    fixed point left with order 1 imposes nothing and is dropped, a moving
    point left with order 1 kills the term, and so do genus 1 with no fixed
    point and a degree below 2."""
    fixed = tuple(o for o in fixed if o > 1)
    if d < 2 or 1 in moving or (g == 1 and not fixed):
        return 0
    return genus_g_count(RamificationProblem(g, d, fixed, moving))


def test_base_point_splitting_at_genus_1_and_2():
    # weighted(g, d, o) = sum over k of prod_i syt(o_i - k_i - 1, k_i) times
    # count(g, d - sum k, o_i - 2 k_i): the weighted count splits off base
    # points as at genus 1, linking count_laurent to weighted_fixed_first
    checked = 0
    for g, top in ((1, 6), (2, 5)):
        for d in range(2, top + 1):
            cap = max(2, 2 * d - g - 1)
            for p in on_shell_problems(g, d):
                orders = p.fixed + p.moving
                if p.n > 2 or max(orders) > cap:
                    continue
                total = 0
                for ks in itertools.product(*(range((o - 1) // 2 + 1) for o in orders)):
                    weight = math.prod(syt_count(o - k - 1, k) for o, k in zip(orders, ks))
                    left = [o - 2 * k for o, k in zip(orders, ks)]
                    total += weight * _split_term(g, d - sum(ks), left[: p.n], left[p.n :])
                assert genus_g_weighted(p) == total, p
                checked += 1
    assert checked == 239


def test_weighted_counts_divide_by_the_moving_weights():
    # weighted(p) is a multiple of prod(m - 1) over the moving orders: each
    # weighted tail class is prod(t - 1) over its triple times a class that
    # depends only on the triple's sum and the degree
    checked = 0
    for g, top in ((1, 8), (2, 6), (3, 5)):
        for d in range(2, top + 1):
            cap = max(2, 2 * d - g - 1)
            for p in on_shell_problems(g, d):
                if max(p.moving) > cap:
                    continue
                assert genus_g_weighted(p) % math.prod(m - 1 for m in p.moving) == 0, p
                checked += 1
    assert checked == 2207


def test_weighted_tail_class_is_a_function_of_the_triple_sum():
    # the weighted tail class of a sorted triple T at degree d is
    # prod(t - 1) * K, where K has codimension n = sum(T) - 5, is the same
    # for every triple of that sum, is the degree-40 class cut to the box of
    # Gr(2, d + 1), and has the paper's genus-1 formula 12 W Cat(d-2)/d,
    # W = 2d - 2 - n, as its sigma1-moment
    triples = [t for t in itertools.combinations_with_replacement(range(2, 23), 3)
               if sum(t) <= 26]
    assert len(triples) == 358
    classes = {}
    for d in (40, 25, 12):
        for t in triples:
            cls = degeneration._tail_class(weighted_fixed_first, t, d)
            weight = math.prod(x - 1 for x in t)
            k = SchubertClass(d + 1, {
                key: exact_div(c, weight, "weighted tail class") for key, c in cls.terms.items()
            })
            n = sum(t) - 5
            assert classes.setdefault((n, d), k) == k, (t, d)
            assert k == SchubertClass(d + 1, classes[n, 40].terms), (t, d)
    assert len(classes) == 63
    for (n, d), k in classes.items():
        w = 2 * d - 2 - n
        assert w >= 0 and all(a + b == n for a, b in k.terms), (n, d)
        assert pairing(sigma1_power(w, d + 1), k) == Fraction(12 * w * catalan(d - 2), d), (n, d)
    rows = (  # c_b(n), the coefficient of s(n - b, b), for the shapes 2b <= n
        lambda n: 2 * (n + 2),
        lambda n: 4 * binomial(n - 1, 2),
        lambda n: 6 * binomial(n - 2, 3),
        lambda n: 8 * binomial(n - 3, 4) + 4 * binomial(n - 4, 3),
    )
    for n in range(1, 11):
        for b, row in enumerate(rows[: n // 2 + 1]):
            assert classes[n, 40].coefficient(n - b, b) == row(n), (n, b)


def test_tail_class_in_closed_indexing():
    """The tail class of a sorted triple T, read by its shape (l1, l2).

    ``_tail_class`` sums over the node vanishing a with s = 2d + 4 - sum(T):
    l1 = d - a - 1 and l2 = d - s + a, so l1 + l2 = sum(T) - 5; the first
    order s - 2a is l1 - l2 + 1; and the tuple (l1 - l2 + 1, *T) has degree
    d - a = l1 + 1.  So the class is free of d up to the box of Gr(2, d+1).
    """
    triples = [t for t in itertools.combinations_with_replacement(range(2, 23), 3)
               if sum(t) <= 26]
    classes = 0
    for factor in (count_laurent, weighted_fixed_first):
        for d in (12, 25, 40):
            for t in triples:
                n = sum(t) - 5
                want = {}
                for l1 in range(1, d):
                    l2 = n - l1
                    if 0 <= l2 <= l1:
                        value = factor(Genus1Tuple(l1 - l2 + 1, *t))
                        if value:
                            want[l1, l2] = value
                assert degeneration._tail_class(factor, t, d).terms == want, (factor, t, d)
                classes += 1
    assert classes == 2148


def test_genus3_weighted_quotient_is_not_a_function_of_the_square_sum():
    # the genus-2 law has no genus-3 analogue in sum(m^2) alone: at d = 6 with
    # no fixed point these two share sum(m^2) = 77 and differ in the quotient
    quotients = []
    for moving in ((5, 3, 3, 3, 3, 2, 2, 2, 2), (4, 4, 4, 3, 2, 2, 2, 2, 2)):
        assert sum(m * m for m in moving) == 77
        weighted = genus_g_weighted(RamificationProblem(3, 6, (), moving))
        quotients.append(weighted // math.prod(m - 1 for m in moving))
    assert quotients == [7_499_520, 7_620_480]


def _top_coefficient(g, d):
    """-2 (2g-1)! (2g+1)! Catalan(d-g-1) / (d (d-1) ... (d-g+1)), with
    Catalan(-1) = -1/2 at d = g."""
    cat = Fraction(-1, 2) if d == g else Fraction(catalan(d - g - 1))
    falling = math.prod(range(d - g + 1, d + 1))
    return -2 * math.factorial(2 * g - 1) * math.factorial(2 * g + 1) * cat / falling


def _q2(d, w, moving):
    p2 = sum(m**2 for m in moving)
    return _top_coefficient(2, d) * (p2 - (w - 3) ** 2 - 4 * d * d + 4 * d - 5)


def _q3(d, w, moving):
    p2, p3 = sum(m**2 for m in moving), sum(m**3 for m in moving)
    u = w - 6
    linear = Fraction(18, 5) * d - Fraction(18, 5) * d * d - Fraction(21, 2)
    return _top_coefficient(3, d) * (
        p3 + Fraction(3, 2) * u * p2 - Fraction(1, 2) * u**3 + linear * u
        - 8 * d**3 + Fraction(156, 5) * d * d - Fraction(126, 5) * d - 7
    )


def test_genus2_and_genus3_weighted_counts_have_closed_forms():
    # weighted(p) = prod(m - 1) * Q_g(d, W; m) / (3g - m)! with W = sum(fixed - 1);
    # on_shell_problems pads the moving orders to 3g, so the divisor is 1.
    # Q_2 is an integer, linear in sum(m^2) with slope -beta(d) =
    # -2 * 6! * Catalan(d - 3) / (d(d - 1)); most (d, W) groups of d = 4..8
    # hold three or more square sums, so the line is tested, not just fitted
    assert [-_top_coefficient(2, d) for d in range(4, 9)] == [120, 144, 240, 480, 1080]
    checked, squares = 0, defaultdict(set)
    for g, closed_form, top in ((2, _q2, 9), (3, _q3, 7)):
        for d in range(2, top + 1):
            cap = max(2, 2 * d - g - 1)
            for p in on_shell_problems(g, d):
                if max(p.moving) > cap:
                    continue
                w = sum(o - 1 for o in p.fixed)
                quotient = closed_form(d, w, p.moving)
                assert genus_g_weighted(p) == math.prod(m - 1 for m in p.moving) * quotient, p
                if g == 2:
                    assert quotient.denominator == 1, p
                    if 4 <= d <= 8:
                        squares[d, w].add(sum(m * m for m in p.moving))
                checked += 1
    assert checked == 4689
    assert len(squares) == 45
    assert sum(len(found) >= 3 for found in squares.values()) == 30


def _sorted_orders(p):
    return p.g, p.d, tuple(sorted(p.fixed)), tuple(sorted(p.moving))


def test_reflection_invariance_holds_in_two_classes_only():
    # every problem of on_shell_problems, and each with k of its simple moving
    # points dropped, with at most 2 fixed points, all of order <= d, paired with
    # its reflection unless that is refused or only relabels the orders
    pairs = {}
    for g, top in ((1, 10), (2, 10), (3, 7)):
        for d in range(2, top + 1):
            for q in on_shell_problems(g, d):
                for k in range(q.moving.count(2) + 1):
                    p = RamificationProblem(g, d, q.fixed, q.moving[: q.m - k])
                    if p.n > 2 or max(p.fixed, default=0) > d:
                        continue
                    try:
                        r = p.reflected()
                    except DomainError:
                        continue
                    if _sorted_orders(r) != _sorted_orders(p):
                        pairs.setdefault(frozenset((_sorted_orders(p), _sorted_orders(r))), (p, r))
    tally = Counter()
    for p, r in pairs.values():
        assert p.reflected().reflected() == p
        tally[p.g, p.n, genus_g_count(p) == genus_g_count(r)] += 1
    # invariant at genus 1 with one fixed point and genus 2 with none;
    # every other class fails on every pair
    assert tally == {
        (1, 1, True): 145,
        (2, 0, True): 25,
        (1, 2, False): 1,
        (2, 1, False): 2,
        (2, 2, False): 4,
        (3, 1, False): 5,
    }
    p = RamificationProblem(1, 4, (3, 2), (4,))
    assert p.reflected() == RamificationProblem(1, 4, (3, 4), (2,))
    assert (genus_g_count(p), genus_g_count(p.reflected())) == (15, 3)


def test_reflection_is_a_problem_exactly_where_the_orders_stay_on_shell():
    # reflecting sends the imposed dimension to n*d + m*(d - 2) minus itself, so
    # the image is on shell iff that is twice the moduli, 4d - 2g - 4, and every
    # image order is at least 2 iff no order exceeds d
    tops = {0: 9, 1: 9, 2: 9, 3: 7}
    reflected_at = defaultdict(set)
    checked = 0
    for g, top in tops.items():
        for d in range(2, top + 1):
            for q in on_shell_problems(g, d):
                for k in range(q.moving.count(2) + 1):
                    p = RamificationProblem(g, d, q.fixed, q.moving[: q.m - k])
                    valid = (p.n * d + p.m * (d - 2) == 4 * d - 2 * g - 4
                             and max(p.fixed + p.moving, default=0) <= d)
                    try:
                        p.reflected()
                    except DomainError:
                        assert not valid, p
                    else:
                        assert valid, p
                        reflected_at[g, p.n, p.m].add(d)
                    checked += 1
    assert checked == 30618
    # n + m = 4 and m = g + 2 make the condition hold in every degree
    every_degree = {cls for cls, degrees in reflected_at.items()
                    if degrees == set(range(2, tops[cls[0]] + 1))}
    assert every_degree == {(1, 1, 3), (2, 0, 4)}


def test_pad_moving():
    # the assembly pads the moving labels with 3g - m simple ones itself;
    # count_with_padding reports the padded count and the (3g - m)! it divides
    p = RamificationProblem(1, 3, (3,), (3,))
    padded = RamificationProblem(1, 3, (3,), (3, 2, 2))
    assert count_with_padding(p) == (genus_g_count(padded) // 2, genus_g_count(padded), 2)
    full = RamificationProblem(1, 3, (2, 2), (2, 2, 3))
    assert count_with_padding(full) == (genus_g_count(full), genus_g_count(full), 1)
    q = RamificationProblem(2, 4, (3,), (3, 3, 2, 2))
    padded = RamificationProblem(2, 4, (3,), (3, 3, 2, 2, 2, 2))
    for count, weighted in ((genus_g_count, False), (genus_g_weighted, True)):
        raw = count(padded)
        assert count_with_padding(q, weighted) == (raw // 2, raw, 2)


def test_requires_full_moving_complement():
    # the degeneration still counts a full complement of 3g moving points, but
    # genus_g_count and genus_g_weighted now supply it rather than refuse
    p = RamificationProblem(1, 3, (3,), (3,))
    assert genus_g_count(p) == count_with_padding(p)[0] == 8
    assert genus_g_weighted(p) == count_with_padding(p, True)[0] == 8


def test_fewer_moving_points_divide_the_padded_count():
    # dropping k trailing simple moving points divides the count by k!, and
    # genus_g_count and genus_g_weighted take the shorter problem as it is
    checked = 0
    for g, top in ((1, 6), (2, 5), (3, 4)):
        for d in range(2, top + 1):
            for p in on_shell_problems(g, d):
                counts = [(genus_g_count, False)]
                if p.moving[0] <= max(2, 2 * d - g - 1):  # the weighted domain
                    counts.append((genus_g_weighted, True))
                for k in range(1, p.moving.count(2) + 1):
                    q = RamificationProblem(g, d, p.fixed, p.moving[:-k])
                    factor = math.factorial(k)
                    for count, weighted in counts:
                        raw = count(p)
                        assert count_with_padding(q, weighted) == (raw // factor, raw, factor), q
                        assert count(q) == count_with_padding(q, weighted)[0], q
                        checked += 1
    assert checked == 1929


def test_weighted_moving_order_cap():
    p = RamificationProblem(2, 3, (), (4, 2, 2, 2, 2, 2))
    assert genus_g_count(p) >= 0  # unweighted side has no cap
    with pytest.raises(DomainError, match="weighted domain"):
        genus_g_weighted(p)


def test_consolidate_fixed():
    p = RamificationProblem(1, 3, (2, 2), (2, 2, 3))
    assert consolidate_fixed(p).fixed == (3,)
    q = RamificationProblem(1, 4, (3, 2, 2), (3, 2, 2))
    assert consolidate_fixed(q).fixed == (5,)
    single = RamificationProblem(1, 3, (3,), (3, 2, 2))
    assert consolidate_fixed(single) == single
    with pytest.raises(DomainError, match="nothing to consolidate"):
        consolidate_fixed(RamificationProblem(2, 2))


def test_weighted_consolidation_invariance():
    checked = 0
    for g in (1, 2):
        for d in range(2, 6):
            for p in on_shell_problems(g, d):
                if not p.fixed:
                    continue
                assert genus_g_weighted(p) == genus_g_weighted(consolidate_fixed(p)), p
                checked += 1
    assert checked > 30


def test_count_with_padding_family():
    for d in range(2, 9):
        p = RamificationProblem(1, d, (d,), (d,))
        assert count_with_padding(p) == (d * d - 1, 2 * (d * d - 1), 2)
        assert count_laurent(Genus1Tuple(d, d, 2, 2)) == 2 * (d * d - 1)


def test_label_symmetry():
    base = RamificationProblem(1, 4, (3, 2), (3, 3, 2))
    want = genus_g_count(base)
    want_w = genus_g_weighted(base)
    assert want_w == 72
    for moving in set(itertools.permutations((3, 3, 2))):
        for fixed in set(itertools.permutations((3, 2))):
            p = RamificationProblem(1, 4, fixed, moving)
            assert genus_g_count(p) == want
            assert genus_g_weighted(p) == want_w


def test_genus0_routing():
    p = RamificationProblem(0, 3, (2, 2, 2, 2))
    assert genus_g_count(p) == 2
    assert genus_g_weighted(p) == 2
    assert count_with_padding(p) == (2, 2, 1)


def test_node_codimension_balances():
    # every admissible node choice saturates the ambient dimension, so no
    # distribution is discarded by a dimension filter
    for p in (
        RamificationProblem(1, 3, (2, 2), (2, 2, 3)),
        RamificationProblem(2, 2, (), (2,) * 6),
        RamificationProblem(2, 4, (3,), (3, 3, 2, 2, 2, 2)),
    ):
        d = p.d
        fixed_codim = sum(o - 1 for o in p.fixed)
        for dist in distributions(p.moving, p.g):
            for triples in itertools.product(
                *(
                    [
                        (a, 2 * d + 4 - sum(triple) - a)
                        for a in range(
                            max(0, 2 * d + 4 - sum(triple) - d),
                            min((2 * d + 4 - sum(triple) - 1) // 2, d - 2) + 1,
                        )
                    ]
                    for triple in dist
                )
            ):
                node_codim = sum(2 * d - 1 - a - b for a, b in triples)
                assert fixed_codim + node_codim == 2 * d - 2


def _enumerated(p, weighted):
    """The degeneration sum term by term: every ordered distribution times
    every choice of node vanishing sequences, with no multilinear collapse."""
    d, ambient = p.d, p.d + 1
    if weighted:
        fixed_part = sigma1_power(sum(o - 1 for o in p.fixed), ambient)
    else:
        fixed_part = unit(ambient)
        for o in p.fixed:
            fixed_part = mul(fixed_part, sigma(o - 1, 0, ambient))
    factor = weighted_fixed_first if weighted else count_laurent
    total = 0
    for dist in distributions(p.moving, p.g):
        per_component = []
        for triple in dist:
            s = 2 * d + 4 - sum(triple)
            per_component.append(
                [
                    ((a, s - a), factor(Genus1Tuple(s - 2 * a, *triple)))
                    for a in range(max(0, s - d), min((s - 1) // 2, d - 2) + 1)
                ]
            )
        for choice in itertools.product(*per_component):
            cls = fixed_part
            term = 1
            for (a, b), f in choice:
                cls = mul(cls, sigma(d - a - 1, d - b, ambient))
                term *= f
            total += term * integrate(cls)
    return total


_MIXED_GENUS3 = (
    RamificationProblem(3, 5, (3,), (2, 4, 2, 3, 2, 2, 2, 2, 2)),
    RamificationProblem(3, 6, (4,), (2, 3, 2, 4, 2, 2, 3, 2, 2)),
    RamificationProblem(3, 7, (3, 2), (2, 4, 2, 3, 2, 2, 3, 2, 4)),
)


@functools.cache
def _enumerated_sums():
    """One term-by-term sum per problem and weighting in its domain."""
    problems = [p for g in (1, 2) for d in range(2, 6) for p in on_shell_problems(g, d)]
    return {(p, weighted): _enumerated(p, weighted) for p in problems + list(_MIXED_GENUS3)
            for weighted in (False, True)
            if not weighted or max(p.moving) <= max(2, 2 * p.d - p.g - 1)}  # weighted domain


def test_assembly_matches_enumeration():
    sums = _enumerated_sums()
    for (p, weighted), want in sums.items():
        assert (genus_g_weighted if weighted else genus_g_count)(p) == want, (p, weighted)
    assert len({p for p, _ in sums}) > 40
    assert all(genus_g_count(p) > 0 for p in _MIXED_GENUS3)
    p = _MIXED_GENUS3[1]  # the same sum over the labels in another order
    assert genus_g_count(p) == _enumerated(RamificationProblem(3, 6, (4,), p.moving[::-1]), False)


def test_assemble_is_the_enumerated_sum():
    # the padded count pairs the fixed classes with one tails class, whether
    # the simple moving points are written out or left to the padding
    padded = [(p, weighted, want) for (p, weighted), want in _enumerated_sums().items() if p.g > 1]
    for p, weighted, want in padded:
        short = RamificationProblem(p.g, p.d, p.fixed, tuple(o for o in p.moving if o > 2))
        assert degeneration._assemble(p, weighted) == want, (p, weighted)
        assert degeneration._assemble(short, weighted) == want, (short, weighted)
    assert len(padded) == 185


def test_brill_noether_oracle():
    # with 3g simple moving points each elliptic tail imposes a cusp, so the
    # count is (3g)! times a Grassmannian integral against sigma_1^g
    checked = 0
    for g in (1, 2, 3):
        for d in range(2, 8):
            for p in on_shell_problems(g, d):
                if p.moving != (2,) * (3 * g) or max(p.fixed, default=0) > d:
                    continue
                cls = sigma1_power(g, d + 1)
                for o in p.fixed:
                    cls = mul(cls, sigma(o - 1, 0, d + 1))
                assert genus_g_count(p) == math.factorial(3 * g) * integrate(cls), p
                checked += 1
    assert checked == 204


def test_castelnuovo_genus4():
    # a general genus-4 curve carries Catalan(2) = 2 trigonal pencils
    factor = math.factorial(12)
    assert count_with_padding(RamificationProblem(4, 3)) == (2, 2 * factor, factor)
