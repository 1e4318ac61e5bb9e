"""Exact operation counts, one row each: what a sweep or a count does.

Wall time cannot gate a regression on a shared host; an exact count of
memo traffic, products and calls can.  Each sweep runs once, from empty
memos, with every binding its rows read wrapped, and returns its counts;
its rows give each count's exact value and why it is that value.  A
change that moves a count re-pins its row here.
"""

import io
from contextlib import redirect_stdout
from functools import partial

import pytest

from pencils import cli, degeneration, genus1, grassmann, qseries, verify
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
    tau = genus1._tau
    series = bindings.record(TruncatedSeries, "__mul__")
    products = bindings.record(qseries, "_truncated_product", everywhere=True)
    schubert = bindings.record(grassmann, "mul", everywhere=True)
    read = bindings.record(genus1, "_tau")
    results = verify.run_suite("all", 9)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (name, True, detail) for name, detail in GATE_DETAILS
    ]
    keys, cached, misses = set(read), tau.cache_info().currsize, tau.cache_info().misses
    # a caller that mutated a shared class would leave a wrong one cached;
    # reading each key again is a hit, so it is the class its callers got
    for key in keys:
        assert tau(*key).terms == tau_class(*key), key
    assert tau.cache_info().misses == misses
    return {
        "TruncatedSeries products": len(series),
        "_truncated_product calls": len(products),
        "grassmann.mul calls, every namespace": len(schubert),
        "_tau classes (read, cached)": (len(keys), cached),
        "_block_pair (misses, hits)": _traffic(genus1._block_pair),
        "_series_half (misses, hits)": _traffic(qseries._series_half),
        "_schubert_pair (misses, hits)": _traffic(genus1._schubert_pair),
        "_weighted_unit (misses, hits)": _traffic(genus1._weighted_unit),
        "_inversion_block (misses, hits)": _traffic(genus1._inversion_block),
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
    assert verify.weighted_consolidation_invariance(9) == "1493 problems with g <= 2, d <= 7"
    return {"verify.mul calls": len(products)}


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
    products = bindings.record(TruncatedSeries, "__mul__")
    assert n_via_series(Genus1Tuple(*quad)) == genus1_constant_term(quad)
    cold = len(products)
    assert n_via_series(Genus1Tuple(*quad)) == genus1_constant_term(quad)
    return {"TruncatedSeries products (cold, repeat)": (cold, len(products) - cold)}


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
# order d, then two for the half with the power (a closed form, no product)
# and one for the other half; a repeat reads both halves from the memo
SERIES = "TruncatedSeries products (cold, repeat)"

# group: (its sweep, {count: (exact value, why)}); groups that name one
# sweep read one run of it, and together pin every count it returns
TABLE = {
    "gate-products": (_gate, {
        "TruncatedSeries products": (607, "617 before the gate's identities (7 f_1 * f_(t-1), "
                                          "the square root's square and its cube) ran on int "
                                          "lists, 635 before the Catalan powers were squared in "
                                          "integers, 842 before the halves were paired, 647 "
                                          "before (1-4q)^(3/2) had a closed form"),
        "grassmann.mul calls, every namespace": (6_750, "11,949 before the quadruple sweeps took "
                                                 "Pieri steps (-4,900) and the sigma1 products "
                                                 "walked a prefix tree (-299), 12,992 before the "
                                                 "halves were paired, 12,615 before Pieri fixed "
                                                 "classes"),
    }),
    "gate-catalan-squarings": (_gate, {"_truncated_product calls": (
        634, "the 607 series products, f_1..f_8's 18 squarings (one square per bit of t "
             "after the leading one, one product per set bit) and the gate's 9 int identity "
             "products (f_1 * f_(t-1) for t = 2..8, the square root's square, its cube from "
             "that square) run one loop, bound in qseries and verify; 635 when the identities "
             "were 10 series products; 18 before")}),
    "gate-quadruple-pieri-steps": (_quadruple_sweeps, {"verify.pieri_mul calls": (
        3_426, "one per prefix of the 1,225 quadruples; 4,900 mul calls before")}),
    "gate-consolidation-sigma1-products": (_consolidation_sigma1, {"verify.mul calls": (
        1_042, "one per prefix of the partitions of each weight; 1,341 before")}),
    "gate-tau-classes": (_gate, {"_tau classes (read, cached)": (
        (64, 64), "386 reads of 64 keys, all still cached")}),
    "gate-block-pairs": (_gate, {"_block_pair (misses, hits)": ((214, 3244), (
        "1,358 Laurent counts and 371 recursions ask 3,458 products: 108 P and 106 W pairs"))}),
    "gate-half-products": (_gate, {
        "_series_half (misses, hits)": ((168, 130), "149 series counts, two halves each"),
        "_schubert_pair (misses, hits)": ((193, 187), "190 Schubert counts, two halves each"),
    }),
    "gate-weighted-tables": (_gate, {
        "_weighted_unit (misses, hits)": ((9, 3024), (
            "371 weighted counts and the inversions' 2,662 units read degrees 2..10")),
        "_inversion_block (misses, hits)": ((19, 1465), (
            "371 inversions read four blocks each, orders 1..19")),
    }),
    "four-methods-tau": (_four_methods, {"_tau (misses, hits)": (
        (43, 175), "two classes for each of 109 pairs, 43 keys")}),
    "four-methods-convolution": (_four_methods, {"_convolution (misses, hits)": (
        (36, 152), "188 factors of 94 halves, 36 keys")}),
    "consolidation-merged-problems": (_consolidation, {"verify.genus_g_weighted calls": (
        259, "192 problems and 67 merged problems")}),
    "consolidation-sigma1-powers": (_consolidation, {"sigma1_power (misses, hits)": (
        (16, 474), "each (exponent, ambient) built once; (16, 496) before the sigma1 products "
                   "walked a prefix tree, 162 products in place of 184")}),
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
    "series-9731": (partial(_series, (9, 7, 3, 1)), {SERIES: ((0, 0), "an order 1: no product")}),
    "series-1555": (partial(_series, (1, 5, 5, 5)), {SERIES: ((0, 0), "an order 1: no product")}),
    "series-8853": (partial(_series, (8, 8, 5, 3)), {SERIES: ((16, 0), "(7 + 4 + 2) + 3")}),
    "series-6666": (partial(_series, (6, 6, 6, 6)), {SERIES: ((8, 0), "5 + 3")}),
    "series-7542": (partial(_series, (7, 5, 4, 2)), {SERIES: ((17, 0), "(6 + 4 + 3 + 1) + 3")}),
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
