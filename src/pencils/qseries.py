"""Truncated power series in q with exact rational coefficients.

Hosts the half-integer-power expansions, the two-variable Schur
polynomials specialized at root sum 1 and root product q, and the
series-coefficient count pipeline.  Nothing here ever touches floating
point: half powers are built from the integer-coefficient square-root
series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exactmath import as_integer, binomial, catalan

__all__ = [
    "TruncatedSeries",
    "sqrt_one_minus_4q",
    "power_3_2",
    "schur_q",
    "catalan_power_series",
    "n_via_series",
]


class TruncatedSeries:
    """Power series modulo q^(T+1): exactly T+1 rational coefficients.

    Arithmetic never reads beyond the truncation order; mixing orders
    truncates to the smaller one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise DomainError(f"truncation order must be >= 0, got {order}")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise DomainError("a truncated series needs at least the q^0 coefficient")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, coeffs: list[Fraction]) -> "TruncatedSeries":
        """An arithmetic result: its coefficients are Fractions already."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise DomainError(
                f"coefficient q^{n} outside truncation order {self.order}"
            )
        return self.coeffs[n]

    @staticmethod
    def constant(value, order: int) -> "TruncatedSeries":
        return TruncatedSeries([Fraction(value)], order=order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        left, right = self.coeffs, other.coeffs
        t = min(len(left), len(right))
        out = [Fraction(0)] * t
        for i in range(t):
            a = left[i]
            if a == 0:
                continue
            for j in range(t - i):
                out[i + j] += a * right[j]
        return TruncatedSeries._of(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return "TruncatedSeries(%s)" % (list(self.coeffs),)


def sqrt_one_minus_4q(order: int) -> TruncatedSeries:
    """(1 - 4q)^(1/2) to the given order: 1, then -2*catalan(n-1) at q^n."""
    if order < 0:
        raise DomainError(f"truncation order must be >= 0, got {order}")
    coeffs = [Fraction(1)]
    coeffs += [Fraction(-2 * catalan(n - 1)) for n in range(1, order + 1)]
    return TruncatedSeries(coeffs)


@lru_cache(maxsize=128)
def power_3_2(order: int) -> TruncatedSeries:
    """(1 - 4q)^(3/2) as (1 - 4q) times the square-root series.

    Keyed by the order alone, so every count of one degree reads the same
    series.  The bound covers every order up to ``MAX_SERIES_DEGREE`` =
    120.  An entry is 12.1 KB at order 120 (measured with tracemalloc),
    so 128 entries hold ~1.6 MB; orders 0..120 together take 0.65 MB.
    """
    linear = [Fraction(1)] + ([Fraction(-4)] if order >= 1 else [])
    return TruncatedSeries(linear, order=order) * sqrt_one_minus_4q(order)


def schur_q(j: int, order: int) -> TruncatedSeries:
    """Two-variable Schur polynomial s_j at root sum 1, root product q.

    A polynomial of degree floor(j/2) in q, delivered at the requested
    truncation order: s_j = sum_k (-1)^k C(j-k, k) q^k, the closed form of
    s_j = s_{j-1} - q s_{j-2}.  s_{-1} = 0 by convention.
    """
    if j < -1:
        raise DomainError(f"schur_q: index must be >= -1, got {j}")
    coeffs = [(-1) ** k * binomial(j - k, k) for k in range(min(j // 2, order) + 1)]
    return TruncatedSeries(coeffs or [0], order=order)


def catalan_power_series(t: int, order: int) -> TruncatedSeries:
    """t-th power of the Catalan generating function (1 - sqrt(1-4q))/(2q).

    Powered by squaring, reading the bits of t from the top: one square
    per bit after the leading one and one product by the base per set
    bit, so f_t takes at most 2*floor(log2(t)) products.
    """
    if t < 1:
        raise DomainError(f"catalan_power_series: power must be >= 1, got {t}")
    s = sqrt_one_minus_4q(order + 1)
    base = TruncatedSeries(
        [-s.coefficient(n + 1) / 2 for n in range(order + 1)]
    )
    out = base
    for bit in bin(t)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


@lru_cache(maxsize=512)
def _convolution(d: int, degree: int) -> TruncatedSeries:
    """F_d = sum_{j=0}^{d-2} s_j * s_{d-2-j} at truncation order ``degree``.

    Keyed by the order and the degree, so each count reads the same
    series it would build.  The bound covers the 334-350 keys of a
    genus1-all pass and the 118 of the verify suite at its bound (level
    13).  An entry is 2.0-2.4 KB at degree 30 and 6.9-9.8 KB at the
    series bound, degree 120 (measured with tracemalloc), so
    512 entries hold at most ~5 MB.
    """
    schur = [schur_q(j, degree) for j in range(d - 1)]
    factor = TruncatedSeries.constant(0, degree)
    for j in range(d - 1):
        factor = factor + schur[j] * schur[d - 2 - j]
    return factor


def n_via_series(d1: int, d2: int, d3: int, d4: int) -> int:
    """Count via coefficient extraction from a q-series product.

    Multiplies (1-4q)^(3/2) by, for each order d_i, the convolution
    F_d = sum_{j=0}^{d-2} s_j * s_{d-2-j}, and reads off the coefficient of
    q^degree.  Orders must be >= 1 and sum to twice an integer degree
    plus four, with degree >= 2.

    F_1 is the empty convolution, so an order 1 gives 0 at once.  Each
    F_d comes from the bounded memo ``_convolution``, keyed by order and
    degree, and (1-4q)^(3/2) from the memo ``power_3_2``, keyed by the
    degree, so repeated orders and repeated counts build them once.  F_d
    is a polynomial of degree at most d/2 - 1 in q, so it is the left
    operand of each accumulating product, whose loop skips its zero
    coefficients.  The last factor is paired with the product of the
    others, sum_i acc_i * F_last[degree - i], instead of being
    multiplied in.
    """
    orders = (d1, d2, d3, d4)
    for di in orders:
        if di < 1:
            raise DomainError(f"off-shell: order {di} < 1")
    total = sum(orders)
    if total % 2 != 0 or total < 8:
        raise DomainError(
            f"off-shell: d1+d2+d3+d4 = {total} must be even and >= 8"
        )
    if 1 in orders:
        return 0
    degree = (total - 4) // 2
    acc = power_3_2(degree)
    for di in orders[:-1]:
        acc = _convolution(di, degree) * acc
    last = _convolution(orders[-1], degree).coeffs
    value = sum(a * last[degree - i] for i, a in enumerate(acc.coeffs))
    return as_integer(value, "n_via_series")
