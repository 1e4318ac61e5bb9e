"""Counts of pencils on a general genus-1 curve with four moving
total-vanishing conditions of orders (d1, d2, d3, d4).

The on-shell condition fixes the pencil degree: d1+d2+d3+d4 = 2*deg + 4.
Four independent pipelines compute the same unweighted count N:

* ``count_schubert``   - intersection number on Gr(2, deg+1)
* ``count_laurent``    - constant term of a product of antisymmetric
                         Laurent polynomials (the canonical extension for
                         out-of-domain orders, where it returns 0)
* ``count_polynomial`` - piecewise degree-7 closed form in the sorted
                         orders
* q-series extraction  - ``qseries.n_via_series``

The weighted count (base-point configurations counted with tableau
multiplicities) has a product closed form, a variant with the first
point carrying an exact vanishing sequence, and a recursion linking the
weighted and unweighted counts in both directions.  The count is also
invariant under the degree reflection d_i -> deg + 2 - d_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .exactmath import binomial, catalan, exact_div, syt_count
from .grassmann import integrate, mul, sigma, zero
from .laurent import LaurentPolynomial, constant_term, p_poly
from .qseries import n_via_series

__all__ = [
    "Genus1Tuple",
    "CountReport",
    "weighted_count",
    "weighted_fixed_first",
    "count_schubert",
    "count_laurent",
    "count_polynomial",
    "polynomial_branch_values",
    "count_series",
    "MAX_SERIES_DEGREE",
    "count",
    "weighted_from_unweighted",
    "unweighted_from_weighted",
    "duality_check",
    "on_shell_tuples",
    "METHODS",
]


@dataclass(frozen=True, order=True)
class Genus1Tuple:
    """Four total-vanishing orders with an even sum of at least 8."""

    d1: int
    d2: int
    d3: int
    d4: int

    def __post_init__(self) -> None:
        for di in self.orders():
            if di < 1:
                raise DomainError(f"order {di} < 1")
        total = sum(self.orders())
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
        return (sum(self.orders()) - 4) // 2

    def sorted_desc(self) -> tuple[int, int, int, int]:
        a, b, c, d = sorted(self.orders(), reverse=True)
        return (a, b, c, d)


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


def weighted_count(t: Genus1Tuple) -> int:
    """Weighted count of pencils: 12 C_{deg-2}/deg times prod (d_i - 1)."""
    d = t.degree
    num = 12 * catalan(d - 2)
    for di in t.orders():
        if di > 2 * d + 1:
            raise DomainError(
                f"weighted_count: order {di} exceeds 2*degree+1 = {2 * d + 1}"
            )
        num *= di - 1
    return exact_div(num, d, "weighted_count")


def weighted_fixed_first(t: Genus1Tuple) -> int:
    """Weighted count with exact vanishing (0, d1) at the first point.

    The first point carries no base point; the other three orders are
    weighted total-vanishing conditions.
    """
    d = t.degree
    if not 1 <= t.d1 <= d:
        raise DomainError(
            f"weighted_fixed_first: first order {t.d1} outside 1..degree={d}"
        )
    return exact_div(
        2
        * t.d1
        * (t.d1 + 1)
        * (t.d1 - 1)
        * (t.d2 - 1)
        * (t.d3 - 1)
        * (t.d4 - 1)
        * binomial(2 * d - t.d1 - 2, d - t.d1),
        d * (d - 1),
        "weighted_fixed_first",
    )


def _tau(k: int, ambient: int):
    """Sum over ordered pairs a+b = k of s(a,0)*s(b,0); zero for k < 0."""
    out = zero(ambient)
    for a in range(k + 1):
        out = out + mul(sigma(a, 0, ambient), sigma(k - a, 0, ambient))
    return out


def count_schubert(t: Genus1Tuple) -> int:
    """Intersection number on Gr(2, deg+1).

    Multiplies the four convolution classes tau(d_i - 2) into the
    quadratic correction 8*s(1,1) - 2*s(1,0)^2 and integrates.
    """
    _require_in_domain(t, "count_schubert")
    ambient = t.degree + 1
    s1 = sigma(1, 0, ambient)
    acc = 8 * sigma(1, 1, ambient) - 2 * mul(s1, s1)
    for di in t.orders():
        acc = mul(acc, _tau(di - 2, ambient))
    return integrate(acc)


def count_laurent(t: Genus1Tuple) -> int:
    """Constant term of the product of the four building blocks.

    Tolerates orders outside 1..degree; the extension returns 0 for
    every impossible configuration we can reach, and the degeneration
    module relies on that.
    """
    prod = p_poly(t.d1 - 1)
    for di in (t.d2, t.d3, t.d4):
        prod = prod * p_poly(di - 1)
    return constant_term(prod)


def _parse_polynomial(table: str) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """A table's integer numerators over the least common denominator."""
    rows = []
    for line in table.strip().splitlines():
        parts = line.split()
        num, _, den = parts[0].partition("/")
        exps = [0, 0, 0, 0]
        for factor in parts[1:]:
            name, _, power = factor.partition("^")
            exps[int(name[1]) - 1] += int(power or 1)
        rows.append((int(num), int(den or 1), tuple(exps)))
    common = math.lcm(*(den for _, den, _ in rows))
    return common, tuple((num * (common // den), exps) for num, den, exps in rows)


# Degree-7 closed form on the branch where the sorted orders satisfy
# d1 - d2 >= d3 - d4 (top gap at least the bottom gap).
_TOP_GAP_TERMS = _parse_polynomial("""
-1/3360 d1^7
+1/240 d1^5 d2^2
-1/96 d1^4 d2^3
+1/96 d1^3 d2^4
-1/240 d1^2 d2^5
+1/3360 d2^7
+1/240 d1^5 d3^2
-1/48 d1^3 d2^2 d3^2
+1/48 d1^2 d2^3 d3^2
-1/240 d2^5 d3^2
-1/96 d1^4 d3^3
+1/48 d1^2 d2^2 d3^3
-1/96 d2^4 d3^3
+1/96 d1^3 d3^4
-1/96 d2^3 d3^4
-1/240 d1^2 d3^5
-1/240 d2^2 d3^5
+1/3360 d3^7
+1/240 d1^5 d4^2
-1/48 d1^3 d2^2 d4^2
+1/48 d1^2 d2^3 d4^2
-1/240 d2^5 d4^2
-1/48 d1^3 d3^2 d4^2
+1/48 d2^3 d3^2 d4^2
+1/48 d1^2 d3^3 d4^2
+1/48 d2^2 d3^3 d4^2
-1/240 d3^5 d4^2
-1/96 d1^4 d4^3
+1/48 d1^2 d2^2 d4^3
-1/96 d2^4 d4^3
+1/48 d1^2 d3^2 d4^3
+1/48 d2^2 d3^2 d4^3
-1/96 d3^4 d4^3
+1/96 d1^3 d4^4
-1/96 d2^3 d4^4
-1/96 d3^3 d4^4
-1/240 d1^2 d4^5
-1/240 d2^2 d4^5
-1/240 d3^2 d4^5
+1/3360 d4^7
-1/480 d1^5
+1/96 d1^4 d2
-1/48 d1^3 d2^2
+1/48 d1^2 d2^3
-1/96 d1 d2^4
+1/480 d2^5
+1/96 d1^4 d3
-1/48 d1^2 d2^2 d3
+1/96 d2^4 d3
-1/48 d1^3 d3^2
-1/48 d1^2 d2 d3^2
+1/48 d1 d2^2 d3^2
+1/48 d2^3 d3^2
+1/48 d1^2 d3^3
+1/48 d2^2 d3^3
-1/96 d1 d3^4
+1/96 d2 d3^4
+1/480 d3^5
+1/96 d1^4 d4
-1/48 d1^2 d2^2 d4
+1/96 d2^4 d4
-1/48 d1^2 d3^2 d4
-1/48 d2^2 d3^2 d4
+1/96 d3^4 d4
-1/48 d1^3 d4^2
-1/48 d1^2 d2 d4^2
+1/48 d1 d2^2 d4^2
+1/48 d2^3 d4^2
-1/48 d1^2 d3 d4^2
-1/48 d2^2 d3 d4^2
+1/48 d1 d3^2 d4^2
-1/48 d2 d3^2 d4^2
+1/48 d3^3 d4^2
+1/48 d1^2 d4^3
+1/48 d2^2 d4^3
+1/48 d3^2 d4^3
-1/96 d1 d4^4
+1/96 d2 d4^4
+1/96 d3 d4^4
+1/480 d4^5
+1/60 d1^3
-1/60 d1^2 d2
+1/60 d1 d2^2
-1/60 d2^3
-1/60 d1^2 d3
-1/60 d2^2 d3
+1/60 d1 d3^2
-1/60 d2 d3^2
-1/60 d3^3
-1/60 d1^2 d4
-1/60 d2^2 d4
-1/60 d3^2 d4
+1/60 d1 d4^2
-1/60 d2 d4^2
-1/60 d3 d4^2
-1/60 d4^3
-1/70 d1
+1/70 d2
+1/70 d3
+1/70 d4
""")

# Companion branch for sorted orders with d1 - d2 <= d3 - d4.
_BOTTOM_GAP_TERMS = _parse_polynomial("""
-1/48 d1^4 d4^3
+1/24 d1^2 d2^2 d4^3
-1/48 d2^4 d4^3
+1/24 d1^2 d3^2 d4^3
+1/24 d2^2 d3^2 d4^3
-1/48 d3^4 d4^3
-1/120 d1^2 d4^5
-1/120 d2^2 d4^5
-1/120 d3^2 d4^5
+1/1680 d4^7
+1/48 d1^4 d4
-1/24 d1^2 d2^2 d4
+1/48 d2^4 d4
-1/24 d1^2 d3^2 d4
-1/24 d2^2 d3^2 d4
+1/48 d3^4 d4
+1/24 d1^2 d4^3
+1/24 d2^2 d4^3
+1/24 d3^2 d4^3
+1/240 d4^5
-1/30 d1^2 d4
-1/30 d2^2 d4
-1/30 d3^2 d4
-1/30 d4^3
+1/35 d4
""")


def _evaluate_terms(table, orders: tuple[int, int, int, int]) -> int:
    den, terms = table
    total = 0
    for mono, exps in terms:
        for base, e in zip(orders, exps):
            mono *= base**e
        total += mono
    return exact_div(total, den, "count_polynomial")


def count_polynomial(t: Genus1Tuple) -> int:
    """Piecewise degree-7 closed form, on the sorted orders.

    The branch is chosen by comparing the top gap d1 - d2 with the
    bottom gap d3 - d4; on the boundary both branches agree.
    """
    _require_in_domain(t, "count_polynomial")
    orders = t.sorted_desc()
    if orders[0] - orders[1] >= orders[2] - orders[3]:
        return _evaluate_terms(_TOP_GAP_TERMS, orders)
    return _evaluate_terms(_BOTTOM_GAP_TERMS, orders)


def polynomial_branch_values(t: Genus1Tuple) -> tuple[int, int]:
    """Both closed-form branches on the sorted orders.

    Meaningful on the boundary d1 - d2 = d3 - d4, where the two must
    agree; off the boundary only the branch picked by count_polynomial
    is valid.
    """
    orders = t.sorted_desc()
    return (
        _evaluate_terms(_TOP_GAP_TERMS, orders),
        _evaluate_terms(_BOTTOM_GAP_TERMS, orders),
    )


# The series pipeline costs about deg^3: degree 120 takes 3-4 s on one
# core of an Intel Xeon server, so larger degrees are refused up front.
MAX_SERIES_DEGREE = 120


def count_series(t: Genus1Tuple) -> int:
    """Coefficient extraction from the generating-function identity."""
    if t.degree > MAX_SERIES_DEGREE:
        raise DomainError(
            f"count_series: degree {t.degree} exceeds the bound "
            f"{MAX_SERIES_DEGREE} on the series pipeline"
        )
    _require_in_domain(t, "count_series")
    return n_via_series(*t.orders())


METHODS = {
    "schubert": count_schubert,
    "laurent": count_laurent,
    "polynomial": count_polynomial,
    "series": count_series,
}


def count(t: Genus1Tuple, methods="all") -> CountReport:
    """Run the requested pipelines (default all four) and compare."""
    if methods in ("all", None):
        names = tuple(METHODS)
    else:
        names = tuple(methods)
    for name in names:
        if name not in METHODS:
            raise DomainError(
                f"unknown method {name!r}; choose from {sorted(METHODS)}"
            )
    values = {name: METHODS[name](t) for name in names}
    agreed = len(set(values.values())) == 1
    return CountReport(t, values, agreed)


def _admissible_shifts(di: int) -> range:
    # base-point orders k with d - 2k >= 1
    return range((di - 1) // 2 + 1)


@lru_cache(maxsize=None)
def _weighted_block(di: int) -> LaurentPolynomial:
    """W_d = sum over base-point orders k of syt(d-k-1, k) * P_{d-2k-1}."""
    blocks = (syt_count(di - k - 1, k) * p_poly(di - 2 * k - 1) for k in _admissible_shifts(di))
    return sum(blocks, LaurentPolynomial())


def weighted_from_unweighted(t: Genus1Tuple) -> int:
    """Assemble the weighted count from unweighted counts.

    The sum over base-point splittings k_i with d_i - 2k_i >= 1 of the
    tableau weight times the constant term of the shifted tuple is, by
    multilinearity, the single constant term CT(W_d1 W_d2 W_d3 W_d4).
    Tuples shifted below degree 2 contain an order 1, so P_0 = 0 drops them.
    """
    w1, w2, w3, w4 = (_weighted_block(di) for di in t.orders())
    return constant_term(w1 * w2 * w3 * w4)


@lru_cache(maxsize=None)
def _unweighted_recursive(orders: tuple[int, int, int, int]) -> int:
    if sum(orders) < 8:
        return 0
    acc = weighted_count(Genus1Tuple(*orders))
    for ks in itertools.product(*(_admissible_shifts(di) for di in orders)):
        if any(ks):
            w = math.prod(syt_count(di - ki - 1, ki) for di, ki in zip(orders, ks))
            shifted = sorted((di - 2 * ki for di, ki in zip(orders, ks)), reverse=True)
            acc -= w * _unweighted_recursive(tuple(shifted))
    return acc


def unweighted_from_weighted(t: Genus1Tuple) -> int:
    """Invert the weight recursion: peel base-point contributions off the
    weighted closed form, recursing on strictly smaller index sums."""
    return _unweighted_recursive(t.sorted_desc())


def duality_check(t: Genus1Tuple) -> tuple[int, int, bool]:
    """Counts of a tuple and of its degree reflection d_i -> deg+2-d_i."""
    d = t.degree
    _require_in_domain(t, "duality_check")
    image_orders = tuple(d + 2 - di for di in t.orders())
    for di in image_orders:
        if not 1 <= di <= d:
            raise DomainError(
                f"duality_check: reflected order {di} outside 1..degree={d}"
            )
    image = Genus1Tuple(*image_orders)
    n1 = count_laurent(t)
    n2 = count_laurent(image)
    return n1, n2, n1 == n2


def on_shell_tuples(
    degree: int,
    ordered: bool = False,
    min_order: int = 1,
    max_order: int | None = None,
) -> list[tuple[int, int, int, int]]:
    """All order tuples with the given degree, for tables and sweeps.

    Ordered mode lists every labeled tuple; otherwise one representative
    per multiset, sorted descending.  Rows come back in lexicographic
    order either way.
    """
    if degree < 2:
        raise DomainError(f"degree must be >= 2, got {degree}")
    cap = degree if max_order is None else max_order
    total = 2 * degree + 4
    rows = []
    if ordered:
        for d1 in range(min_order, cap + 1):
            for d2 in range(min_order, cap + 1):
                for d3 in range(min_order, cap + 1):
                    d4 = total - d1 - d2 - d3
                    if min_order <= d4 <= cap:
                        rows.append((d1, d2, d3, d4))
    else:
        for d1 in range(min_order, cap + 1):
            for d2 in range(min_order, d1 + 1):
                for d3 in range(min_order, d2 + 1):
                    d4 = total - d1 - d2 - d3
                    if min_order <= d4 <= d3:
                        rows.append((d1, d2, d3, d4))
    return sorted(rows)
