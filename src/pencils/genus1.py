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
from .exactmath import binomial, bounded_partitions, catalan, cut_product, exact_div
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

    def sorted_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(d1, d2) and (d3, d4), each sorted: the keys under which the
        pipelines' pair memos hold each unordered pair of orders once."""
        d1, d2, d3, d4 = self.orders()
        return (min(d1, d2), max(d1, d2)), (min(d3, d4), max(d3, d4))

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


def _weighted_unit(m: int) -> int:
    """12 C_(m-2)/m, the paper's weighted count at degree m >= 2 per unit of
    prod (d_i - 1); an integer, the q^m coefficient of (1-4q)^(3/2).

    Only ``weighted_count`` reads it.  ``qseries.power_3_2`` and the
    inversion's ``_inversion_units`` derive the same units apart, and the
    gate compares the three.
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


# Each pipeline's degree bound, refused up front, sized on its worst shape of
# orders (timings in README's bounds table): the series, about deg^3, four
# distinct orders such as (120, 119, 3, 2), as a repeated order builds its
# factor once; Schubert, about deg^3, (202, 202, 600, 600); Laurent, about
# deg^2, (deg, deg, 2, 2).
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


def _require_degree(name: str, t: Genus1Tuple) -> None:
    """Refuse a degree past the named pipeline's bound, from ``_DEGREE_BOUNDS``."""
    bound, what, scope = _DEGREE_BOUNDS[name]
    require_within(what, "degree", t.degree, bound, scope)


@lru_cache(maxsize=128)
def _tau(k: int, ambient: int) -> SchubertClass:
    """Sum over ordered pairs a+b = k of s(a,0)*s(b,0); zero for k < 0.

    Each pair is one Pieri step on s(a, 0).  Keyed by the index and the
    ambient, so repeated orders and the pairs ``_schubert_pair`` builds
    read each class once built; callers only read it.  The bound holds
    every key of the verify suite at its bound (level 13); one that held a
    genus1-all pass's would cost that workload resident memory.  An entry
    is 67 KB at the Schubert bound, degree 800 (tracemalloc), so
    128 entries hold at most ~8.6 MB.  Op-count groups:
    ``gate-tau-classes``, ``four-methods-tau``, ``level-13-held``.
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
    building it.  An entry is up to 55 KB at the Schubert bound, degree 800
    (tracemalloc), so 64 entries hold at most ~3.5 MB.  Op-count groups:
    ``gate-half-products``.
    """
    return mul(_tau(a - 2, ambient), _tau(b - 2, ambient))


def count_schubert(t: Genus1Tuple) -> int:
    """Intersection number on Gr(2, deg+1).

    The product of the quadratic correction 8*s(1,1) - 2*s(1,0)^2 with
    the four convolution classes tau(d_i - 2), paired in two halves: the
    correction times the pair tau(d1 - 2) * tau(d2 - 2), paired with
    tau(d3 - 2) * tau(d4 - 2), both pairs from the memo ``_schubert_pair``.
    The correction is written as its Pieri expansion 6*s(1,1) - 2*s(2,0),
    whose s(2,0) leaves the box at degree 2.
    """
    _require_degree("schubert", t)
    _require_in_domain(t, "count_schubert")
    left, right = t.sorted_pairs()
    ambient = t.degree + 1
    correction = SchubertClass(ambient, {(1, 1): 6, (2, 0): -2})
    return pairing(
        mul(correction, _schubert_pair(*left, ambient)), _schubert_pair(*right, ambient)
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
    The bound holds every key of the verify suite at its bound (level 13)
    and of a degree-30 table.  A P pair is 0.8 MB at (4000, 4000), the
    Laurent bound, and a W pair 0.58 MB at the assembly bound, degree 1000
    (tracemalloc), so 512 entries hold at most ~0.4 GB.  Op-count groups:
    ``gate-block-pairs``, ``table-30``, ``level-13-held``.
    """
    return block(a) * block(b)


def _paired_blocks(block, t: Genus1Tuple) -> int:
    """CT(block(d1) block(d2) block(d3) block(d4)), as the pairing of two
    memoized pair products."""
    left, right = t.sorted_pairs()
    return laurent_pairing(_block_pair(block, *left), _block_pair(block, *right))


def count_laurent(t: Genus1Tuple) -> int:
    """Constant term of the product of the four building blocks, paired in two.

    Tolerates orders outside 1..degree, and the degeneration module
    relies on the extension: on every tuple of degree <= 20, with orders
    up to 2*deg + 1, the count is 0 when an order exceeds the degree and
    the closed form otherwise; the tests pin that range.  Not memoized:
    P_d1 P_d2 and P_d3 P_d4 come from ``_block_pair``, and the degeneration
    reads its tail factors through ``_tail_class``.
    """
    _require_degree("laurent", t)
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
    _require_degree("series", t)
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
    for name in _DEGREE_BOUNDS:
        if name in names:
            _require_degree(name, t)
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


# Each recursion direction's degree bound, refused up front, sized on its
# worst shapes of orders (timings in README's bounds table): the assembly,
# about deg^3, (deg+1, deg+1, 1, 1); the inversion, about deg^3.5, balanced
# orders such as (1000, 1000, 1000, 1004), whose two pair products meet as
# two 1,000-coefficient polynomials, and (deg, deg, 2, 2).
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
    inversion that meets a known pair, on either side, reads its product.
    The bound holds every key of the verify suite at its bound (level 13).
    An entry is 0.6 MB at (2000, 2000), as at every pair the inversion
    bound admits (tracemalloc), so 256 entries hold at most ~0.15 GB.
    Op-count groups: ``gate-weighted-tables``, ``level-13-held``.
    """
    left, right = _inversion_block(a), _inversion_block(b)
    return tuple(cut_product(left, right, len(left) + len(right) - 1))


def _inversion_units(d: int) -> list[int]:
    """The weighted units 12 C_(m-2)/m for m = 2..d, in one pass over the
    Catalan ratio C_(k+1) = C_k 2(2k+1)/(k+2), each division through
    ``exact_div``.

    Built from the ratio alone, never from ``qseries.power_3_2``, whose
    coefficients are the same units: the series count must not become the
    inversion.
    """
    units, c = [], 1
    for k in range(d - 1):  # c = C_k, the unit's Catalan number at m = k + 2
        units.append(exact_div(12 * c, k + 2, "weighted unit"))
        c = exact_div(c * 2 * (2 * k + 1), k + 2, "Catalan ratio")
    return units


def unweighted_from_weighted(t: Genus1Tuple) -> int:
    """Invert the weight recursion by inclusion-exclusion, in closed form.

    Inverting W_d gives P_{d-1} = sum_j (-1)^j C(d-1-j, j) W_{d-2j}, so the
    weighted closed form gives N = sum_J [x^J](A_d1 A_d2 A_d3 A_d4) *
    u_(deg-J) with A_d(x) = sum_j (-1)^j C(d-1-j, j) (d-2j-1) x^j and the
    weighted unit u_m = 12 C_(m-2)/m, up to J = deg-2: a tuple shifted below
    degree 2 counts 0.  The products H = A_d1 A_d2 and H' = A_d3 A_d4 come
    from the memo ``_inversion_pair``; their product is formed cut to
    J <= deg-2, then met with the units of one ``_inversion_units`` pass in
    one sum.  Degrees above ``MAX_INVERSION_DEGREE`` are refused before any
    product.
    """
    require_within("unweighted_from_weighted", "degree", t.degree, MAX_INVERSION_DEGREE,
                   "the recursion")
    d = t.degree
    left, right = t.sorted_pairs()
    cut = cut_product(_inversion_pair(*left), _inversion_pair(*right), d - 1)
    return sum(c * u for c, u in zip(cut, reversed(_inversion_units(d))))


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
