"""Counts of pencils on a general genus-1 curve with four moving
total-vanishing conditions of orders (d1, d2, d3, d4).

The on-shell condition fixes the pencil degree: d1+d2+d3+d4 = 2*deg + 4.
Four independent pipelines compute the same unweighted count N:

* ``count_schubert``   - intersection number on Gr(2, deg+1)
* ``count_laurent``    - constant term of a product of antisymmetric
                         Laurent polynomials (the canonical extension for
                         out-of-domain orders, where it returns 0)
* ``count_polynomial`` - piecewise degree-7 closed form in the sorted
                         orders: one factored polynomial, and on the
                         other branch the same at the reflected orders
* q-series extraction  - ``qseries.n_via_series``

The weighted count (base-point configurations counted with tableau
multiplicities) has a product closed form, a variant with the first
point carrying an exact vanishing sequence, and a recursion linking the
weighted and unweighted counts in both directions.  The count is also
invariant under the paper's involution d_i -> deg + 2 - d_i, written once
as ``Genus1Tuple.reflected``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, require_within
from .exactmath import binomial, bounded_partitions, catalan, exact_div
from .grassmann import SchubertClass, mul, pairing, pieri_mul, sigma, zero
from .laurent import LaurentPolynomial, p_poly, pairing as laurent_pairing
from .qseries import n_via_series

__all__ = [
    "Genus1Tuple",
    "CountReport",
    "weighted_count",
    "weighted_fixed_first",
    "count_schubert",
    "count_laurent",
    "count_polynomial",
    "count_series",
    "MAX_SERIES_DEGREE",
    "MAX_SCHUBERT_DEGREE",
    "MAX_LAURENT_DEGREE",
    "MAX_ANSWER_DEGREE",
    "MAX_ASSEMBLY_DEGREE",
    "MAX_INVERSION_DEGREE",
    "count",
    "weighted_from_unweighted",
    "unweighted_from_weighted",
    "on_shell_tuples",
    "METHODS",
]


@dataclass(frozen=True)
class Genus1Tuple:
    """Four total-vanishing orders with an even sum of at least 8."""

    d1: int
    d2: int
    d3: int
    d4: int

    def __post_init__(self) -> None:
        d1, d2, d3, d4 = self.d1, self.d2, self.d3, self.d4
        for di in (d1, d2, d3, d4):
            if di < 1:
                raise DomainError(f"order {di} < 1")
        total = d1 + d2 + d3 + d4
        if total % 2 != 0:
            raise DomainError(f"off-shell: d1+d2+d3+d4 = {total} must be even")
        if total < 8:
            raise DomainError(
                f"off-shell: d1+d2+d3+d4 = {total} < 8 leaves degree < 2"
            )

    def orders(self) -> tuple[int, int, int, int]:
        return (self.d1, self.d2, self.d3, self.d4)

    @property
    def degree(self) -> int:
        return (self.d1 + self.d2 + self.d3 + self.d4 - 4) // 2

    def sorted_desc(self) -> tuple[int, int, int, int]:
        a, b, c, d = sorted(self.orders(), reverse=True)
        return (a, b, c, d)

    def reflected(self) -> Genus1Tuple:
        """The paper's involution d_i -> deg + 2 - d_i; it keeps the degree
        and, on sorted orders, swaps the top and bottom gaps."""
        d = self.degree
        return Genus1Tuple(*(d + 2 - di for di in self.orders()))


@dataclass(frozen=True)
class CountReport:
    """Per-method values for one tuple; agreed iff they all coincide."""

    tuple: Genus1Tuple
    values: dict[str, int]
    agreed: bool


def _require_in_domain(t: Genus1Tuple, what: str) -> None:
    d = t.degree
    for di in t.orders():
        if di > d:
            raise DomainError(f"{what}: order {di} exceeds the degree {d}")


# Weighted and genus-g counts grow about as 4^deg; Python prints at most 4300
# digits, which the largest weighted genus-1 counts pass from degree 7136 and
# genus 0's Catalan(deg-1) from 7154.  At degree 6000 these have 3606-3617
# digits; the ~680 left hold the factor by which a count of higher genus
# exceeds 4^deg (5 digits at genus 2, degree 20; 7 at genus 3, degree 12).
MAX_ANSWER_DEGREE = 6000
_ANSWER_SCOPE = "counts that grow as 4^degree"


@lru_cache(maxsize=2048)
def _weighted_unit(m: int) -> int:
    """12 C_(m-2)/m, the paper's weighted count at degree m >= 2 per unit of
    prod (d_i - 1); an integer, the q^m coefficient of (1-4q)^(3/2).

    Only the weighted counts read it: ``qseries.power_3_2`` must not, or the
    series pipeline would become the inversion.  Memoized as a series
    coefficient, keyed by m: the release gate (level 9) reads 3,033 units,
    9 distinct, and one inversion at its bound, degree 2000, reads the 1,999
    units m = 2..2000, which the bound covers.  An entry is 88-120 bytes at
    the gate, 0.6 KB at m = 2000 and 1.7 KB at the answer bound, m = 6000
    (measured with tracemalloc), so 2048 entries hold at most ~3.5 MB.
    """
    return exact_div(12 * catalan(m - 2), m, "weighted unit")


def weighted_count(t: Genus1Tuple) -> int:
    """Weighted count of pencils: 12 C_{deg-2}/deg times prod (d_i - 1)."""
    d = t.degree
    require_within("weighted_count", "degree", d, MAX_ANSWER_DEGREE, _ANSWER_SCOPE)
    return _weighted_unit(d) * math.prod(di - 1 for di in t.orders())


def weighted_fixed_first(t: Genus1Tuple) -> int:
    """Weighted count with exact vanishing (0, d1) at the first point.

    The first point carries no base point; the other three orders are
    weighted total-vanishing conditions.
    """
    d, (d1, d2, d3, d4) = t.degree, t.orders()
    require_within("weighted_fixed_first", "degree", d, MAX_ANSWER_DEGREE, _ANSWER_SCOPE)
    if not 1 <= d1 <= d:
        raise DomainError(f"weighted_fixed_first: first order {d1} outside 1..degree={d}")
    num = 2 * d1 * (d1 + 1) * (d1 - 1) * (d2 - 1) * (d3 - 1) * (d4 - 1)
    return exact_div(num * binomial(2 * d - d1 - 2, d - d1), d * (d - 1), "weighted_fixed_first")


# Each pipeline's cost, worst shape of orders measured, and the degree above
# which it is refused up front.  The series costs about deg^3, 1.7-2.0 s at
# degree 120 with four distinct orders such as (120, 119, 3, 2), cold, on a
# shared 2-core Intel Xeon host (a repeated order builds its factor once).
# On one core of an Intel Xeon server: Schubert about deg^3, 3.5-5 s at
# degree 800 with orders (202, 202, 600, 600) and 1.9-2.8 s with four equal
# orders; Laurent about deg^2, 3 s at degree 4000 with orders (deg, deg, 2, 2).
MAX_SERIES_DEGREE = 120
MAX_SCHUBERT_DEGREE = 800
MAX_LAURENT_DEGREE = 4000
# tightest first, the order in which count checks the selected pipelines:
# each bounded pipeline's bound, its name in a refusal and its scope
_DEGREE_BOUNDS = {
    name: (bound, f"count_{name}", f"the {name} pipeline")
    for name, bound in (
        ("series", MAX_SERIES_DEGREE),
        ("schubert", MAX_SCHUBERT_DEGREE),
        ("laurent", MAX_LAURENT_DEGREE),
    )
}


@lru_cache(maxsize=128)
def _tau(k: int, ambient: int) -> SchubertClass:
    """Sum over ordered pairs a+b = k of s(a,0)*s(b,0); zero for k < 0.

    Each pair is one Pieri step on s(a, 0).  Keyed by the index and the
    ambient, so repeated orders and the pairs ``_schubert_pair`` builds
    read each class once built; callers only read it.  The release gate
    (level 9) reads 386 classes, 64 distinct: the bound covers those and
    the 118 of the verify suite at its bound (level 13).  A genus1-all
    pass reads 342 distinct keys and misses 484 times (seed 1), or 349
    and 528 (seed 2); a bound that held them all would cost that
    workload resident memory.  An entry is 0.6-0.7 KB on the sweeps'
    Gr(2, N), N <= 16, and 67 KB at the Schubert bound, degree 800
    (measured with tracemalloc), so 128 entries hold ~0.1 MB there and
    at most ~8.6 MB.
    """
    return sum(
        (pieri_mul(sigma(a, 0, ambient), k - a) for a in range(k + 1)), zero(ambient)
    )


@lru_cache(maxsize=64)
def _schubert_pair(a: int, b: int, ambient: int) -> SchubertClass:
    """tau(a - 2) * tau(b - 2) on Gr(2, ambient); called with a <= b, so
    each unordered order pair is one key.

    Keyed by the two orders and the ambient, so a count that meets a known
    pair at its degree, on either side, reads the product instead of
    building it: the release gate (level 9) reads 380 pairs, 193
    distinct.  An entry is 0.3-0.6 KB on the gate's Gr(2, N), N <= 12,
    0.4-1.3 KB at degree 30 and up to 55 KB at the Schubert bound, degree
    800 (measured with tracemalloc), so 64 entries hold at most ~3.5 MB.
    """
    return mul(_tau(a - 2, ambient), _tau(b - 2, ambient))


def count_schubert(t: Genus1Tuple) -> int:
    """Intersection number on Gr(2, deg+1).

    The product of the quadratic correction 8*s(1,1) - 2*s(1,0)^2 with
    the four convolution classes tau(d_i - 2), paired in two halves: the
    correction times the pair tau(d1 - 2) * tau(d2 - 2), paired with
    tau(d3 - 2) * tau(d4 - 2), both pairs from the memo ``_schubert_pair``.
    The correction is written as its Pieri expansion 6*s(1,1) - 2*s(2,0),
    whose s(2,0) leaves the box at degree 2.  A count makes that product
    and one more for each pair it has not met before at its degree.
    """
    require_within("count_schubert", "degree", t.degree, MAX_SCHUBERT_DEGREE,
                   "the schubert pipeline")
    _require_in_domain(t, "count_schubert")
    d1, d2, d3, d4 = t.orders()
    ambient = t.degree + 1
    correction = SchubertClass(ambient, {(1, 1): 6, (2, 0): -2})
    return pairing(
        mul(correction, _schubert_pair(min(d1, d2), max(d1, d2), ambient)),
        _schubert_pair(min(d3, d4), max(d3, d4), ambient),
    )


def _unweighted_block(di: int) -> LaurentPolynomial:
    """P_{d-1}, the building block of an unweighted order d."""
    return p_poly(di - 1)


@lru_cache(maxsize=512)
def _block_pair(block, a: int, b: int) -> LaurentPolynomial:
    """block(a) * block(b), called with a <= b so each unordered pair is one key.

    Keyed by the block (P or W) and the two orders, so the counts of the
    verify sweeps, of a table and of the tail factors that meet one order
    pair again read its product; the counts themselves are not memoized.
    The bound covers the 412 keys of the verify suite at its bound (level
    13) and the 318 of a degree-30 table.  The release gate (level 9)
    reads 3,458 products, 214 distinct, and the benchmark's genus1-all and
    genusg-mix passes 400 and 798-862, of 164-170 and 35-37 distinct
    (measured from empty memos).  An
    entry is 1.1 KB at orders (10, 10), 4.9 KB at (30, 30), 193 KB at
    (1000, 1000) and 0.8 MB at (4000, 4000), the Laurent bound; a W pair is
    1.4 KB at (10, 10) and 0.56 MB at (1000, 1000) (measured with
    tracemalloc).  So 512 entries hold ~2.5 MB at orders up to 30 and at
    most ~0.4 GB of P pairs at the Laurent bound.  W pairs grow faster, as
    their coefficients are binomials: 0.58 MB at the assembly bound, degree
    1000, so at most ~0.3 GB.
    """
    return block(a) * block(b)


def _paired_blocks(block, t: Genus1Tuple) -> int:
    """CT(block(d1) block(d2) block(d3) block(d4)), as the pairing of two
    memoized pair products."""
    d1, d2, d3, d4 = t.orders()
    return laurent_pairing(
        _block_pair(block, min(d1, d2), max(d1, d2)),
        _block_pair(block, min(d3, d4), max(d3, d4)),
    )


def count_laurent(t: Genus1Tuple) -> int:
    """Constant term of the product of the four building blocks, paired in two.

    Tolerates orders outside 1..degree, and the degeneration module
    relies on the extension: on every tuple of degree <= 20, with orders
    up to 2*deg + 1, the count is 0 when an order exceeds the degree and
    the closed form otherwise; the tests pin that range.  Not memoized:
    the two products P_d1 P_d2 and P_d3 P_d4 come from ``_block_pair``,
    so a count that meets both order pairs again is one pairing, and the
    degeneration reads its tail factors through ``_tail_class``.
    """
    require_within("count_laurent", "degree", t.degree, MAX_LAURENT_DEGREE,
                   "the laurent pipeline")
    return _paired_blocks(_unweighted_block, t)


def _bottom_gap_value(orders: tuple[int, int, int, int]) -> int:
    """The degree-7 closed form on sorted orders with d1 - d2 <= d3 - d4.

    With p2 = d1^2 + d2^2 + d3^2 and p4 = d1^4 + d2^4 + d3^4 it is
    (d4 - 1) d4 (d4 + 1) (35 p2^2 - 70 p4 - 14 d4^2 p2 + 56 p2 + d4^4
    + 8 d4^2 - 48) / 1680, so it vanishes when the smallest order is 1.
    """
    d1, d2, d3, d4 = orders
    p2 = d1 * d1 + d2 * d2 + d3 * d3
    p4 = d1**4 + d2**4 + d3**4
    s = d4 * d4
    return exact_div(
        (s - 1) * d4 * (35 * p2 * p2 - 70 * p4 - 14 * s * p2 + 56 * p2 + s * s + 8 * s - 48),
        1680,
        "count_polynomial",
    )


def count_polynomial(t: Genus1Tuple) -> int:
    """Piecewise degree-7 closed form, on the sorted orders.

    One factored polynomial serves the branch where the top gap d1 - d2
    is at most the bottom gap d3 - d4; the other branch is the same
    polynomial at the reflected orders, whose bottom gap is the original
    top gap.  Its factor (d4 - 1) d4 (d4 + 1) makes the count vanish at
    an order 1 and, after the reflection, at an order deg + 1.
    """
    _require_in_domain(t, "count_polynomial")
    orders = t.sorted_desc()
    if orders[0] - orders[1] > orders[2] - orders[3]:
        orders = t.reflected().sorted_desc()
    return _bottom_gap_value(orders)


def count_series(t: Genus1Tuple) -> int:
    """Coefficient extraction from the generating-function identity."""
    require_within("count_series", "degree", t.degree, MAX_SERIES_DEGREE, "the series pipeline")
    _require_in_domain(t, "count_series")
    return n_via_series(t)


METHODS = {
    "schubert": count_schubert,
    "laurent": count_laurent,
    "polynomial": count_polynomial,
    "series": count_series,
}


def count(t: Genus1Tuple, methods="all") -> CountReport:
    """Run the requested pipelines (default all four) and compare.

    methods is "all", None, one method name or an iterable of names.
    Every selected pipeline's degree bound is checked, tightest first,
    before any pipeline runs, so a degree above one fails at once rather
    than after the work of another.
    """
    if methods in ("all", None):
        names = tuple(METHODS)
    elif isinstance(methods, str):
        names = (methods,)
    else:
        names = tuple(methods)
    if not names:
        raise DomainError(f"no method selected; choose from {sorted(METHODS)}")
    for name in names:
        if name not in METHODS:
            raise DomainError(
                f"unknown method {name!r}; choose from {sorted(METHODS)}"
            )
    for name, (bound, what, scope) in _DEGREE_BOUNDS.items():
        if name in names:
            require_within(what, "degree", t.degree, bound, scope)
    values = {name: METHODS[name](t) for name in names}
    agreed = len(set(values.values())) == 1
    return CountReport(t, values, agreed)


def _weighted_block(di: int) -> LaurentPolynomial:
    """W_d = sum over base-point orders k < d/2 of syt(d-k-1, k) * P_{d-2k-1}.

    The ballot numbers telescope, sum_{k <= m} syt(d-1-k, k) = C(d-1, m),
    so W_d has coefficient e * C(d-1, (d-1-|e|)/2) at e = 1-d, 3-d, ..., d-1.
    """
    return LaurentPolynomial(
        {e: e * math.comb(di - 1, (di - 1 - abs(e)) // 2) for e in range(1 - di, di, 2)}
    )


# Each recursion direction's cost, worst shape of orders measured, and the
# degree above which it is refused up front: the weighted assembly costs
# about deg^3, 1.9-2.2 s at degree 1000 with orders (deg+1, deg+1, 1, 1),
# whose W pair holds 0.58 MB, on one core of an Intel Xeon server.  The
# inversion costs about deg^3.5: at degree 2000, 2.1-2.7 s with balanced
# orders such as (1000, 1000, 1000, 1004), whose two pair products meet as
# two 1,000-coefficient polynomials, and 1.9-2.7 s with orders
# (deg, deg, 2, 2), each the least of three cold runs in-process on a
# shared 2-core Intel Xeon host.
MAX_ASSEMBLY_DEGREE = 1000
MAX_INVERSION_DEGREE = 2000


def weighted_from_unweighted(t: Genus1Tuple) -> int:
    """Assemble the weighted count from unweighted counts.

    The sum over base-point splittings k_i with d_i - 2k_i >= 1 of the
    tableau weight times the constant term of the shifted tuple is, by
    multilinearity, the single constant term CT(W_d1 W_d2 W_d3 W_d4), paired in two.
    Tuples shifted below degree 2 contain an order 1, so P_0 = 0 drops them.
    The products W_d1 W_d2 and W_d3 W_d4 come from ``_block_pair``, keyed by
    the unordered order pair.  Degrees above ``MAX_ASSEMBLY_DEGREE`` are
    refused before any product.
    """
    require_within("weighted_from_unweighted", "degree", t.degree, MAX_ASSEMBLY_DEGREE,
                   "the recursion")
    return _paired_blocks(_weighted_block, t)


def _inversion_block(di: int) -> tuple[int, ...]:
    """A_d = ((-1)^j C(d-1-j, j) (d-2j-1))_j for j < (d+1)/2, the inversion's
    coefficients of the order d; ``_inversion_pair`` reads it."""
    return tuple((-1) ** j * math.comb(di - 1 - j, j) * (di - 2 * j - 1)
                 for j in range((di + 1) // 2))


@lru_cache(maxsize=256)
def _inversion_pair(a: int, b: int) -> tuple[int, ...]:
    """A_a * A_b as exact ints, x^0 first; called with a <= b, so each
    unordered order pair is one key.

    Built from ``_inversion_block`` alone, never from ``qseries``, whose
    pair products F_a * F_b have the same coefficients: the series count
    must not become the inversion.  Keyed by the two orders, so an
    inversion that meets a known pair, on either side, reads its product:
    the release gate (level 9) reads 742 pairs, 106 distinct, and the
    verify suite at its bound (level 13) 2,246, 205 distinct, which the
    bound covers.  An entry is 0.3-0.9 KB at the gate's orders (to 19),
    1.7 KB at (30, 30) and 0.6 MB at (2000, 2000), as at every pair the
    inversion bound admits, orders summing to at most 4002 (measured with
    tracemalloc), so 256 entries hold at most ~0.15 GB.
    """
    left, right = _inversion_block(a), _inversion_block(b)
    return tuple(_cut_product(left, right, len(left) + len(right) - 1))


def _cut_product(left, right, n: int) -> list[int]:
    """The first n coefficients of the product of two int lists."""
    out = [0] * n
    for i, x in enumerate(left[:n]):
        if x:
            for j, y in enumerate(right[: n - i]):
                out[i + j] += x * y
    return out


def unweighted_from_weighted(t: Genus1Tuple) -> int:
    """Invert the weight recursion by inclusion-exclusion, in closed form.

    Inverting W_d gives P_{d-1} = sum_j (-1)^j C(d-1-j, j) W_{d-2j}, so the
    weighted closed form gives N = sum_J [x^J](A_d1 A_d2 A_d3 A_d4) *
    _weighted_unit(deg-J) with A_d(x) = sum_j (-1)^j C(d-1-j, j) (d-2j-1) x^j,
    up to J = deg-2: a tuple shifted below degree 2 counts 0.  The products
    H = A_d1 A_d2 and H' = A_d3 A_d4 come from the memo ``_inversion_pair``;
    their product is formed cut to J <= deg-2, then met with the units in
    one sum.  Degrees above ``MAX_INVERSION_DEGREE`` are refused before any
    product.
    """
    require_within("unweighted_from_weighted", "degree", t.degree, MAX_INVERSION_DEGREE,
                   "the recursion")
    d = t.degree
    d1, d2, d3, d4 = t.orders()
    half = _inversion_pair(min(d1, d2), max(d1, d2))
    other = _inversion_pair(min(d3, d4), max(d3, d4))
    cut = _cut_product(half, other, min(d - 1, len(half) + len(other) - 1))
    return sum(c * _weighted_unit(d - j) for j, c in enumerate(cut))


def on_shell_tuples(
    degree: int,
    ordered: bool = False,
    min_order: int = 1,
    max_order: int | None = None,
) -> list[tuple[int, int, int, int]]:
    """All order tuples with the given degree, for tables and sweeps.

    Ordered mode lists every labeled tuple; otherwise one representative
    per multiset, sorted descending.  Rows come back in lexicographic
    order either way.  The representatives are the partitions of
    2*deg + 4 into four orders in min_order..max_order, shifted down by
    min_order to parts from 0; a min_order below 1 is refused.
    """
    if degree < 2:
        raise DomainError(f"degree must be >= 2, got {degree}")
    if min_order < 1:
        raise DomainError(f"order {min_order} < 1")
    cap = degree if max_order is None else max_order
    rows = [
        tuple(part + min_order for part in parts)
        for parts in bounded_partitions(2 * degree + 4 - 4 * min_order, 4, cap - min_order)
    ]
    if ordered:
        rows = {perm for row in rows for perm in itertools.permutations(row)}
    return sorted(rows)
