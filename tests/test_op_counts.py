"""Exact operation counts, one row each: what a sweep or a count does.

Wall time cannot gate a regression on a shared host; an exact count of
memo traffic, products and calls can.  Each sweep runs once, from empty
memos, with every binding its rows read wrapped, and returns its counts;
its rows give each count's exact value and why it is that value.  A
change that moves a count re-pins its row here.
"""

import io
import sys
from contextlib import redirect_stdout
from functools import partial

import pytest

from pencils import cli, degeneration, exactmath, genus1, grassmann, qseries, verify
from pencils.cli import main
from pencils.degeneration import RamificationProblem, genus_g_count, genus_g_weighted
from pencils.exactmath import catalan
from pencils.genus1 import (
    Genus1Tuple,
    count_laurent,
    count_schubert,
    unweighted_from_weighted,
    weighted_count,
    weighted_from_unweighted,
)
from pencils.grassmann import integrate, sigma1_power
from pencils.laurent import LaurentPolynomial
from pencils.qseries import TruncatedSeries, n_via_series

from oracles import genus1_constant_term, tau_class


def _traffic(memo):
    info = memo.cache_info()
    return info.misses, info.hits


def _coefficient_products(left, right, n) -> int:
    """What ``exactmath.cut_product`` multiplies: each nonzero left[i],
    i < n, into the first n - i of right."""
    return sum(min(len(right), n - i) for i in range(min(len(left), n)) if left[i] != 0)


# every property's detail at the release gate, so a rewrite that changes a
# case count fails here
GATE_DETAILS = [
    ("sigma1_powers_match_tableau_counts", "powers k <= 18 on Gr(2,N), N <= 12, 5434 coefficients"),
    ("sigma1_top_power_is_catalan", "top self-intersections for degrees 2..14"),
    ("fourfold_closed_form_matches_engine", "697 quadruples on Gr(2,N), N <= 14"),
    ("special_quadratic_integral_matches_engine",
     "528 quadruples against the 6/4/2/-2/0 table, N <= 14"),
    ("basis_duality", "4917 basis pairings, N <= 10"),
    ("building_block_symmetry", "antisymmetry to r = 30, 110 odd products vanish"),
    ("four_method_agreement", "189 tuples through degree 11, four pipelines identical"),
    ("closed_form_branch_guard", "189 tuples, 70 boundary tuples agree across branches"),
    ("series_coefficient_identities",
     "f_t tables t <= 8, m <= 19; inverse-square identity to x^20 with q-degree bounds; "
     "35 identities"),
    ("degree_reflection_duality", "148 tuples through degree 11, reflection preserves counts"),
    ("weighted_recursion_consistency", "371 tuples with orders to 2*deg-1, degrees 2..10"),
    ("genus1_reduction", "96 single-tail problems through degree 8, unweighted and weighted"),
    ("total_ramification_family", "degrees 2..12, padded counts divide out exactly"),
    ("hyperelliptic_sextuple",
     "720 = 6! labelings of the hyperelliptic branch points; worked example 16; genus 0..2 "
     "to degree 12: (3g)! Catalan(d-1) from 2d-g-2 simple fixed points, unweighted and "
     "weighted; genus 0: 1 from (d,d), Catalan(d-1) weighted"),
    ("weighted_consolidation_invariance", "1493 problems with g <= 2, d <= 7"),
    ("label_symmetry", "172 relabelings through degree 8"),
]


def _gate(bindings):
    tau, sigma1 = genus1._tau, grassmann.sigma1_power
    series = bindings.record(TruncatedSeries, "__mul__")
    product, pair_body = exactmath.cut_product, qseries._pair.__wrapped__.__code__
    callers, pair_work = [], []

    def counting(left, right, n):
        caller = sys._getframe(1).f_code
        callers.append(caller.co_filename)
        if caller is pair_body:  # called by _pair itself
            pair_work.append(_coefficient_products(left, right, n))
        return product(left, right, n)

    bindings.replace(exactmath, "cut_product", counting, everywhere=True)
    schubert = bindings.record(grassmann, "mul", everywhere=True)
    read = bindings.record(genus1, "_tau")
    units = bindings.record(genus1, "_weighted_unit")
    unit_pass, passes = genus1._inversion_units, []

    def counting_units(d):
        made = unit_pass(d)
        passes.append(len(made))
        return made

    bindings.replace(genus1, "_inversion_units", counting_units)
    powers = bindings.record(grassmann, "sigma1_power", everywhere=True)
    results = verify.run_suite("all", 9)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, detail) for name, detail in GATE_DETAILS
    ]
    keys, cached, (misses, hits) = set(read), tau.cache_info().currsize, _traffic(tau)
    # a caller that mutated a shared class would leave a wrong one cached;
    # reading each key again is a hit, so it is the class its callers got
    for key in keys:
        assert tau(*key).terms == tau_class(*key), key
    assert tau.cache_info().misses == misses
    return {
        "TruncatedSeries products": len(series),
        "cut_product calls (series and identities, inversion)": (
            len(callers) - callers.count(genus1.__file__), callers.count(genus1.__file__)),
        "_pair coefficient products": sum(pair_work),
        "grassmann.mul calls, every namespace": len(schubert),
        "_tau classes (read, cached)": (len(keys), cached),
        "_tau (misses, hits)": (misses, hits),
        "_block_pair (misses, hits)": _traffic(genus1._block_pair),
        "_pair (misses, hits)": _traffic(qseries._pair),
        "_schur_coefficients (misses, hits)": _traffic(qseries._schur_coefficients),
        "_schubert_pair (misses, hits)": _traffic(genus1._schubert_pair),
        "_weighted_unit calls": len(units),
        "_inversion_units (passes, units computed)": (len(passes), sum(passes)),
        "_inversion_pair (misses, hits)": _traffic(genus1._inversion_pair),
        "_convolution (misses, hits)": _traffic(qseries._convolution),
        "sigma1_power (misses, hits)": _traffic(sigma1),
        "sigma1_power keys (read, distinct)": (len(powers), len(set(powers))),
        "_triple_multisets (misses, hits)": _traffic(degeneration._triple_multisets),
        "_tail_class (misses, hits)": _traffic(degeneration._tail_class),
        "_tails_class (misses, hits)": _traffic(degeneration._tails_class),
    }


def _level_13(bindings):
    held = (genus1._tau, qseries._convolution, genus1._block_pair, genus1._inversion_pair,
            grassmann.sigma1_power)
    powers = bindings.record(grassmann, "sigma1_power", everywhere=True)
    assert all(r.passed for r in verify.run_suite("all", 13))
    return {
        "sigma1_power keys (read, distinct)": (len(powers), len(set(powers))),
        **{f"{memo.__name__} (misses, hits, held)": (*_traffic(memo), memo.cache_info().currsize)
           for memo in held},
    }


def _quadruple_sweeps(bindings):
    steps = bindings.record(verify, "pieri_mul")
    assert verify.fourfold_closed_form_matches_engine(9) == "697 quadruples on Gr(2,N), N <= 14"
    assert verify.special_quadratic_integral_matches_engine(9) == (
        "528 quadruples against the 6/4/2/-2/0 table, N <= 14")
    return {"verify.pieri_mul calls": len(steps)}


def _four_methods(bindings):
    verify.four_method_agreement(7)
    return {"_tau (misses, hits)": _traffic(genus1._tau),
            "_convolution (misses, hits)": _traffic(qseries._convolution)}


def _consolidation(bindings):
    counts = bindings.record(verify, "genus_g_weighted")
    tails = bindings.record(degeneration, "mul")
    assert verify.weighted_consolidation_invariance(7) == "192 problems with g <= 2, d <= 5"
    return {"verify.genus_g_weighted calls": len(counts),
            "sigma1_power (misses, hits)": _traffic(grassmann.sigma1_power),
            "degeneration.mul calls": len(tails)}


def _consolidation_sigma1(bindings):
    products = bindings.record(verify, "mul")
    walk, compared = verify._sigma1_products, []

    def recording(start, total):
        for parts, cls in walk(start, total):
            compared.append((start.ambient, parts))
            yield parts, cls

    bindings.replace(verify, "_sigma1_products", recording)
    assert verify.weighted_consolidation_invariance(9) == "1493 problems with g <= 2, d <= 7"
    return {"verify.mul calls": len(products),
            "(partition, weight) pairs compared (all, distinct)":
                (len(compared), len(set(compared)))}


def _basis_duality(bindings):
    classes = bindings.record(verify, "sigma")
    verify.basis_duality(7)
    return {"verify.sigma calls": len(classes)}


def _table(extra, bindings):
    counts = bindings.record(cli, "count_laurent")
    with redirect_stdout(io.StringIO()) as out:
        assert main(["table", *extra]) == 0
    return {"lines": len(out.getvalue().splitlines()),
            "cli.count_laurent calls (all, distinct)": (len(counts), len(set(counts))),
            "_block_pair (misses, hits)": _traffic(genus1._block_pair)}


def _series(quad, bindings):
    products = bindings.record(exactmath, "cut_product", everywhere=True)
    assert n_via_series(Genus1Tuple(*quad)) == genus1_constant_term(quad)
    cold = len(products)
    assert n_via_series(Genus1Tuple(*quad)) == genus1_constant_term(quad)
    return {SERIES: (cold, len(products) - cold)}


def _counted_products(bindings) -> list:
    """Wrap ``exactmath.cut_product`` in every namespace; the returned list
    gets each call's coefficient products."""
    product, work = exactmath.cut_product, []

    def counting(left, right, n):
        work.append(_coefficient_products(left, right, n))
        return product(left, right, n)

    bindings.replace(exactmath, "cut_product", counting, everywhere=True)
    return work


def _series_sweep(bindings):
    work = _counted_products(bindings)
    for degree in range(6, 13):
        for quad in genus1.on_shell_tuples(degree):
            assert n_via_series(Genus1Tuple(*quad)) == genus1_constant_term(quad), quad
    return {"cut_product (calls, coefficient products)": (len(work), sum(work))}


# perfbench/workloads.genus1_sample(1)[:30]: the first 30 operations of a
# genus1-all pass, which the harness's calibration test times
GENUS1_ALL_FIRST_30 = [
    (17, 12, 8, 3), (19, 14, 11, 10), (24, 14, 11, 7), (29, 25, 5, 3), (5, 5, 4, 2),
    (18, 16, 12, 2), (13, 13, 12, 10), (16, 8, 8, 8), (9, 7, 6, 6), (10, 10, 3, 3),
    (18, 10, 9, 3), (6, 6, 4, 2), (20, 18, 6, 6), (6, 4, 4, 4), (7, 7, 5, 3),
    (15, 12, 12, 3), (12, 12, 5, 3), (22, 20, 13, 5), (17, 12, 9, 8), (9, 9, 7, 7),
    (19, 19, 16, 4), (12, 12, 8, 4), (17, 15, 10, 10), (8, 8, 7, 3), (26, 26, 3, 3),
    (18, 18, 11, 7), (8, 8, 6, 2), (11, 10, 8, 5), (27, 15, 15, 7), (10, 9, 7, 4),
]


def _genus1_all_first_30(bindings):
    work = _counted_products(bindings)
    for quad in GENUS1_ALL_FIRST_30:
        assert genus1.count(Genus1Tuple(*quad)).agreed, quad
    return {"series coefficient products": sum(work)}


def _laurent_products(bindings):
    t = Genus1Tuple(9, 7, 6, 4)
    products = bindings.record(LaurentPolynomial, "__mul__")
    assert count_laurent(t) == genus1_constant_term(t.orders())
    unweighted = len(products)
    assert weighted_from_unweighted(t) == weighted_count(t)
    weighted = len(products) - unweighted
    for quad in ((7, 9, 4, 6), (6, 4, 9, 7)):
        relabeled = Genus1Tuple(*quad)
        assert count_laurent(relabeled) == count_laurent(t)
        assert weighted_from_unweighted(relabeled) == weighted_count(t)
    return {"LaurentPolynomial products (unweighted, weighted, relabeled)":
            (unweighted, weighted, len(products) - unweighted - weighted)}


def _inversion(bindings):
    t = Genus1Tuple(20, 20, 20, 20)
    products = bindings.record(LaurentPolynomial, "__mul__")
    got, made = unweighted_from_weighted(t), len(products)
    assert got == count_laurent(t)
    return {"LaurentPolynomial products": made}


def _sigma1_power(bindings):
    steps = [bindings.record(grassmann, name) for name in ("pieri_mul", "_pieri_into")]
    assert integrate(sigma1_power(18, 11)) == catalan(9)
    return {"Pieri steps (pieri_mul, _pieri_into)": tuple(map(len, steps))}


def _assembly(bindings):
    p = RamificationProblem(3, 7, (3, 2), (2, 4, 2, 3, 2, 2, 3, 2, 4))
    names = ("count_laurent", "mul", "pieri_mul", "pairing", "distributions")
    calls = {name: bindings.record(degeneration, name) for name in names}
    want = genus_g_count(p)
    cold = {name: len(found) for name, found in calls.items()}
    assert genus_g_count(p) == want
    folded = degeneration._triple_multisets(tuple(sorted(p.moving)), p.g)
    return {
        "multisets of triples (distinct, ordered)": (len(folded), sum(n for _, n in folded)),
        **{f"degeneration.{name} calls (cold, repeat)": (cold[name], len(found) - cold[name])
           for name, found in calls.items()},
    }


def _permuted_labels(bindings):
    p = RamificationProblem(3, 6, (4,), (2, 3, 2, 4, 2, 2, 3, 2, 2))
    want = (genus_g_count(p), genus_g_weighted(p))
    enumerations = bindings.record(degeneration, "distributions")
    for moving in (p.moving[::-1], p.moving[3:] + p.moving[:3], tuple(sorted(p.moving))):
        q = RamificationProblem(p.g, p.d, p.fixed, moving)
        assert (genus_g_count(q), genus_g_weighted(q)) == want, moving
    return {"degeneration.distributions calls": len(enumerations)}


# from cold memos a series count makes (d-1) Schur products per distinct
# order d, then one per distinct pair; a repeat reads both pairs from the memo.
# Counted where both kinds meet, in the one product loop: a pair multiplies its
# factors' cut coefficient lists, not two series
SERIES = "cut_product calls (cold, repeat)"

# group: (its sweep, {count: (exact value, why)}); groups that name one
# sweep read one run of it, and together pin every count it returns
TABLE = {
    "gate-products": (_gate, {
        "TruncatedSeries products": (355, "518 before the 163 pair products multiplied "
                                          "their cut factors' coefficient lists (-163), "
                                          "553 before the 298 halves became pair products of "
                                          "ints (-35): 163 pairs in place of 168 halves and "
                                          "30 powered factors, 607 before the 84 halves with "
                                          "the power read "
                                          "their 30 factors F_b (1-4q)^(3/2) from a memo "
                                          "(-54), 617 before the gate's identities (7 f_1 * "
                                          "f_(t-1), the square root's square and its cube) "
                                          "ran on int lists, 635 before the Catalan powers "
                                          "were squared in integers, 842 before the halves "
                                          "were paired, 647 before (1-4q)^(3/2) had a closed "
                                          "form"),
        "grassmann.mul calls, every namespace": (6_067, "6,750 before the consolidation "
                                                 "sweep's sigma1 products walked one tree per "
                                                 "degree (-683), 11,949 before the quadruple "
                                                 "sweeps took Pieri steps (-4,900) and the "
                                                 "sigma1 products walked a prefix tree (-299), "
                                                 "12,992 before the halves were paired, 12,615 "
                                                 "before Pieri fixed classes"),
    }),
    "gate-catalan-squarings": (_gate, {
        "cut_product calls (series and identities, inversion)": ((545, 477), (
            "the 355 series products, the 163 pair products, f_1..f_8's 18 squarings (one "
            "square per bit of t after the leading one, one product per set bit) and the "
            "gate's 9 int identity products (f_1 * f_(t-1) for t = 2..8, the square root's "
            "square, its cube from that square); then the inversion's 106 pair products "
            "and its 371 cut products, in the same loop since genus1._cut_product and "
            "qseries._truncated_product became exactmath.cut_product; 545 "
            "_truncated_product calls before, 580 before the pair products replaced the "
            "halves and the powered factors, 634 before the powered factors were memoized, "
            "635 when the identities were 10 series products; 18 before"))}),
    "gate-quadruple-pieri-steps": (_quadruple_sweeps, {"verify.pieri_mul calls": (
        3_426, "one per prefix of the 1,225 quadruples; 4,900 mul calls before")}),
    "gate-consolidation-sigma1-products": (_consolidation_sigma1, {"verify.mul calls": (
        359, "one per node of one tree per degree, a partition of a weight w <= 2d - 3; "
             "1,042 when each weight walked its own tree, 1,341 before")}),
    "gate-consolidation-sigma1-coverage": (_consolidation_sigma1, {
        "(partition, weight) pairs compared (all, distinct)": ((359, 359), (
            "each partition of each weight w <= 2d - 3 on Gr(2, d+1), d = 2..7, once: "
            "1 + 6 + 18 + 44 + 96 + 194"))}),
    "gate-tau-classes": (_gate, {
        "_tau classes (read, cached)": ((64, 64), "386 reads of 64 keys, all still cached"),
        "_tau (misses, hits)": ((64, 322), "the 386 reads, each key built once"),
    }),
    "gate-block-pairs": (_gate, {"_block_pair (misses, hits)": ((214, 3244), (
        "1,358 Laurent counts and 371 recursions ask 3,458 products: 108 P and 106 W pairs"))}),
    "gate-half-products": (_gate, {
        "_schubert_pair (misses, hits)": ((193, 187), "190 Schubert counts, two halves each"),
    }),
    "gate-series-factors": (_gate, {
        "_pair (misses, hits)": ((163, 135), (
            "149 series counts, two pairs each, 163 (orders, degree) keys; _series_half "
            "(168, 130) and _powered (30, 54) before, the power in the key of a half")),
        "_schur_coefficients (misses, hits)": ((19, 336), (
            "64 convolutions read 355 Schur polynomials, indices 0..18")),
    }),
    "gate-pair-products": (_gate, {"_pair coefficient products": (1_505, (
        "163 pair products, each factor cut to the floor((a+b)/2) - 1 coefficients it "
        "keeps; 3,160 when they multiplied out to q^degree"))}),
    "gate-weighted-tables": (_gate, {
        "_weighted_unit calls": (419, (
            "one per weighted count: the recursion sweep's 371 and genus1_reduction's 48; "
            "a memo (9, 3,024) before, whose 3,033 reads were these 419 and the "
            "inversions' 2,614 units")),
        "_inversion_units (passes, units computed)": ((371, 2_614), (
            "one pass per inversion, the d - 1 units of degrees 2..d, each read once: "
            "the cut product always has d - 1 coefficients")),
        "_inversion_pair (misses, hits)": ((106, 636), (
            "371 inversions read two pairs each, 106 order pairs; _inversion_block (19, "
            "1,465) before, four blocks each")),
    }),
    "gate-convolutions": (_gate, {"_convolution (misses, hits)": ((64, 281), (
        "the 163 pair products read two factors each and the identities F_n for n = 2..20: "
        "345 reads of 64 (order, degree) keys, all held"))}),
    "gate-sigma1-powers": (_gate, {
        "sigma1_power keys (read, distinct)": ((2869, 214), (
            "the tableau sweep's 209 (exponent, ambient) keys, each read once, and five more "
            "of the weighted anchors; the consolidation sweep reads its keys again and again")),
        "sigma1_power (misses, hits)": ((241, 2628), (
            "the 128 entries keep the consolidation sweep's keys, so 27 of the 214 are built "
            "again")),
    }),
    "gate-degeneration-tails": (_gate, {
        "_triple_multisets (misses, hits)": ((90, 89), (
            "179 reads of 90 (sorted labels, genus) keys of genus >= 2, all held")),
        "_tail_class (misses, hits)": ((293, 792), (
            "1,085 reads of 293 (factor, triple, degree) keys, all held")),
        "_tails_class (misses, hits)": ((472, 1751), (
            "2,223 reads of 472 (factor, labels, degree) keys, all held")),
    }),
    "level-13-held": (_level_13, {
        "_tau (misses, hits, held)": ((118, 814, 118), (
            "932 reads of 118 (index, ambient) keys: the 128 entries hold them all")),
        "_convolution (misses, hits, held)": ((118, 719, 118), (
            "837 reads of 118 (order, degree) keys: the 512 entries hold them all")),
        "_block_pair (misses, hits, held)": ((412, 13116, 412), (
            "13,528 reads of 412 (block, order pair) keys: the 512 entries hold them all")),
        "_inversion_pair (misses, hits, held)": ((205, 2041, 205), (
            "2,246 reads of 205 order pairs: the 256 entries hold them all")),
        "sigma1_power keys (read, distinct)": ((48050, 410), (
            "the tableau sweep's 405 (exponent, ambient) keys, each read once, and five more "
            "of the weighted anchors")),
        "sigma1_power (misses, hits, held)": ((549, 47501, 128), (
            "more keys than the 128 entries hold, which keep the consolidation sweep's "
            "repeated ones, so 139 of the 410 are built again")),
    }),
    "four-methods-tau": (_four_methods, {"_tau (misses, hits)": (
        (43, 175), "two classes for each of 109 pairs, 43 keys")}),
    "four-methods-convolution": (_four_methods, {"_convolution (misses, hits)": (
        (36, 144), "180 factors, two for each of 90 pair products; (36, 125) before, 161 "
                   "factors of 94 halves, 27 of whose 47 powered factors came from a memo, "
                   "and (36, 152) before that, 188 factors of 94 halves")}),
    "consolidation-merged-problems": (_consolidation, {"verify.genus_g_weighted calls": (
        259, "192 problems and 67 merged problems")}),
    "consolidation-sigma1-powers": (_consolidation, {"sigma1_power (misses, hits)": (
        (16, 381), "each (exponent, ambient) built once; (16, 474) before the sigma1 "
                   "products walked one tree per degree, 69 products in place of 162, (16, 496) "
                   "before they walked a prefix tree per weight, 162 products in place of 184")}),
    "consolidation-tails": (_consolidation, {"degeneration.mul calls": (
        47, "tail products only, g - 1 per multiset")}),
    "basis-duality": (_basis_duality, {"verify.sigma calls": (84, "N(N-1)/2 on Gr(2, N), N <= 8")}),
    "table-30": (partial(_table, ("--degree", "30")), {
        "lines": (866, "a header and 865 rows"),
        "cli.count_laurent calls (all, distinct)": ((865, 865), "one count per row"),
        "_block_pair (misses, hits)": ((318, 1412), "1,730 products of 318 order pairs"),
    }),
    "table-12-ordered": (partial(_table, ("--degree", "12", "--ordered")), {
        "lines": (1112, "a header and 1,111 ordered rows"),
        "cli.count_laurent calls (all, distinct)": ((67, 67), "one per multiset of orders"),
        "_block_pair (misses, hits)": ((54, 80), "134 products of 54 order pairs"),
    }),
    "series-degrees-6-12": (_series_sweep, {"cut_product (calls, coefficient products)": (
        (460, 7_957), "242 tuples from cold memos, 49 with an order 1 and no product: 56 "
                      "convolutions make 266 products, 194 pairs one each; (460, 10,309) "
                      "before the pairs cut their factors to what they keep, (494, 11,422) "
                      "with the 198 halves and 30 powered factors before that")}),
    "genus1-all-first-30": (_genus1_all_first_30, {"series coefficient products": (75_394, (
        "the four pipelines on 30 tuples from cold memos; 77,601 before the pairs cut "
        "their factors to what they keep"))}),
    "series-9731": (partial(_series, (9, 7, 3, 1)), {SERIES: ((0, 0), "an order 1: no product")}),
    "series-1555": (partial(_series, (1, 5, 5, 5)), {SERIES: ((0, 0), "an order 1: no product")}),
    "series-8853": (partial(_series, (8, 8, 5, 3)), {SERIES: ((15, 0), "(7 + 4 + 2) + 2; 16 "
                                                                      "with a powered factor")}),
    "series-6666": (partial(_series, (6, 6, 6, 6)), {SERIES: ((6, 0), "5 + 1: one pair read "
                                                                     "twice; 8 before")}),
    "series-7542": (partial(_series, (7, 5, 4, 2)), {SERIES: ((16, 0), "(6 + 4 + 3 + 1) + 2; "
                                                                      "17 before")}),
    "laurent-9764": (_laurent_products, {
        "LaurentPolynomial products (unweighted, weighted, relabeled)": (
            (2, 2, 0), "one per block pair; relabelings within and across pairs read them"),
    }),
    "inversion-20202020": (_inversion, {"LaurentPolynomial products": (0, "a sum of units")}),
    "sigma1-power": (_sigma1_power, {
        "Pieri steps (pieri_mul, _pieri_into)": ((0, 0), "sigma1_power(18, 11) is a closed form"),
    }),
    "assembly": (_assembly, {
        "multisets of triples (distinct, ordered)": ((7, 1680), "the distributions, folded"),
        "degeneration.count_laurent calls (cold, repeat)": ((20, 0), "one per node choice of "
                                                            "the 8 distinct triples"),
        "degeneration.mul calls (cold, repeat)": ((14, 0), "g - 1 = 2 per multiset"),
        "degeneration.pieri_mul calls (cold, repeat)": ((2, 2), "one per fixed point"),
        "degeneration.pairing calls (cold, repeat)": ((1, 1), "fixed classes with tails"),
        "degeneration.distributions calls (cold, repeat)": ((1, 0), "one per sorted labels"),
    }),
    "permuted-labels": (_permuted_labels, {
        "degeneration.distributions calls": (0, "the tails class is keyed by sorted labels"),
    }),
}


_RUNS = {}  # sweep: the counts of its one run


@pytest.mark.parametrize("group", TABLE)
def test_a_sweep_makes_its_exact_counts(group, bindings, fresh_memos):
    run, rows = TABLE[group]
    got = _RUNS[run] if run in _RUNS else _RUNS.setdefault(run, run(bindings))
    assert set(got) == {c for sweep, pinned in TABLE.values() if sweep is run for c in pinned}
    assert {c: got[c] for c in rows} == {c: value for c, (value, _) in rows.items()}


def test_a_wrapped_binding_reaches_every_namespace_and_is_undone(bindings, monkeypatch,
                                                                 package_memos, fresh_memos):
    original, t = grassmann.mul, Genus1Tuple(5, 4, 3, 2)
    want = count_schubert(t)
    genus1._schubert_pair.cache_clear()  # the count under the wrapper builds its pairs
    calls = bindings.record(grassmann, "mul", everywhere=True)
    wrapped = [module for module in package_memos if vars(module).get("mul") is grassmann.mul]
    assert grassmann.mul is not original
    assert {grassmann, genus1, degeneration, verify} <= set(wrapped)
    assert count_schubert(t) == want == 72 and calls
    monkeypatch.undo()
    assert all(module.mul is original for module in wrapped)
