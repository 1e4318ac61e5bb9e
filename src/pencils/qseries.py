"""Power series in q with exact coefficients.

Hosts the half-integer-power expansions, the two-variable Schur
polynomials specialized at root sum 1 and root product q, and the
series-coefficient count pipeline.  Nothing here ever touches floating
point.  The series with integer coefficients, the square root's from
Catalan numbers, the 3/2 power's from its binomial series and the
Catalan powers, are tuples of ints.  Only the Schur convolution holds
``TruncatedSeries`` of ``Fraction`` coefficients.  Every product runs
``exactmath.cut_product``.  Each factor the pipeline repeats is built
once, in a bounded memo, and the count pairs two pair products, as exact
ints, against the ints of (1-4q)^(3/2), so its extraction never touches a
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DomainError
from .exactmath import as_integer, binomial, catalan, cut_product, exact_div

if TYPE_CHECKING:
    from .genus1 import Genus1Tuple

__all__ = [
    "TruncatedSeries",
    "sqrt_one_minus_4q",
    "power_3_2",
    "schur_q",
    "catalan_power_series",
    "n_via_series",
]


def _require_order(order: int) -> None:
    if order < 0:
        raise DomainError(f"truncation order must be >= 0, got {order}")


class TruncatedSeries:
    """Power series modulo q^(T+1): exactly T+1 rational coefficients.

    Arithmetic never reads beyond the truncation order; mixing orders
    truncates to the smaller one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            _require_order(order)
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

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries._of(cut_product(self.coeffs, other.coeffs, n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return "TruncatedSeries(%s)" % (list(self.coeffs),)


def sqrt_one_minus_4q(order: int) -> tuple[int, ...]:
    """(1 - 4q)^(1/2) to the given order: 1, then -2*catalan(n-1) at q^n."""
    _require_order(order)
    return (1, *(-2 * catalan(n - 1) for n in range(1, order + 1)))


def power_3_2(order: int) -> tuple[int, ...]:
    """(1 - 4q)^(3/2) to the given order, from the binomial series:
    c_0 = 1 and c_n = c_(n-1) * 2(2n - 5)/n, each step an exact division.

    Built from the binomial theorem alone, never from the weighted unit
    12 C_(m-2)/m of ``genus1``, so the gate's check of the weighted
    generating function compares two derivations.
    """
    _require_order(order)
    coeffs = [1]
    for n in range(1, order + 1):
        coeffs.append(exact_div(coeffs[-1] * 2 * (2 * n - 5), n, "power_3_2"))
    return tuple(coeffs)


_ZERO = Fraction(0)


def schur_q(j: int, order: int) -> TruncatedSeries:
    """Two-variable Schur polynomial s_j at root sum 1, root product q.

    A polynomial of degree floor(j/2) in q, delivered at the requested
    truncation order: its coefficients come from the memo
    ``_schur_coefficients``, cut or padded with zeros to the order.
    """
    if j < -1:
        raise DomainError(f"schur_q: index must be >= -1, got {j}")
    _require_order(order)
    coeffs = _schur_coefficients(j)
    return TruncatedSeries._of(coeffs[: order + 1] + (_ZERO,) * (order + 1 - len(coeffs)))


@lru_cache(maxsize=128)
def _schur_coefficients(j: int) -> tuple[Fraction, ...]:
    """The floor(j/2) + 1 coefficients of s_j, q^0 first:
    s_j = sum_k (-1)^k C(j-k, k) q^k, the closed form of
    s_j = s_{j-1} - q s_{j-2}; s_{-1} = 0 by convention.

    Keyed by the index alone, so every order ``schur_q`` is asked for reads
    one tuple.  The series bound, degree 120, asks for indices up to 118,
    so the bound holds every one.  An entry is 5.6 KB at index 118
    (tracemalloc), so 128 entries hold at most ~0.7 MB.  Op-count groups:
    ``gate-series-factors``.
    """
    return tuple(Fraction((-1) ** k * binomial(j - k, k)) for k in range(j // 2 + 1)) or (_ZERO,)


def catalan_power_series(t: int, order: int) -> tuple[int, ...]:
    """t-th power of the Catalan generating function (1 - sqrt(1-4q))/(2q).

    The base is the Catalan numbers themselves, read from ``catalan``.
    Powered by squaring, reading the bits of t from the top: one square
    per bit after the leading one and one product by the base per set
    bit, so f_t takes at most 2*floor(log2(t)) products.
    """
    if t < 1:
        raise DomainError(f"catalan_power_series: power must be >= 1, got {t}")
    _require_order(order)
    out = base = [catalan(m) for m in range(order + 1)]
    for bit in bin(t)[3:]:
        out = cut_product(out, out, order + 1)
        if bit == "1":
            out = cut_product(out, base, order + 1)
    return tuple(out)


@lru_cache(maxsize=512)
def _convolution(d: int, degree: int) -> TruncatedSeries:
    """F_d = sum_{j=0}^{d-2} s_j * s_{d-2-j} at truncation order ``degree``.

    Keyed by the order and the degree, so each pair product ``_pair``
    builds reads the same series it would build, kept whole though a pair
    reads only its first floor((a+b)/2) - 1 coefficients.  The bound holds
    every key of a genus1-all pass and of the verify suite at its bound
    (level 13).  An entry is at most 9.8 KB at the series bound, degree 120
    (tracemalloc), so 512 entries hold at most ~5 MB.  Op-count groups:
    ``gate-convolutions``, ``four-methods-convolution``, ``level-13-held``.
    """
    schur = [schur_q(j, degree) for j in range(d - 1)]
    factor = TruncatedSeries((0,), order=degree)
    for j in range(d - 1):
        factor = factor + schur[j] * schur[d - 2 - j]
    return factor


@lru_cache(maxsize=64)
def _pair(a: int, b: int, degree: int) -> tuple[int, ...]:
    """F_a * F_b as exact ints, q^0 first; called with a <= b, so each
    unordered order pair is one key at its degree.

    The product has q-degree at most (a + b)/2 - 2, at most degree - 2
    beside two orders >= 2, so no degree truncates it.  Only its
    k = floor((a+b)/2) - 1 coefficients are multiplied, exactly: one below
    q^k reads only factor coefficients below q^k, and k <= degree - 1.  The
    degree stays in the key only to read ``_convolution``'s factors.  An
    entry is at most 6.0 KB at the series bound, degree 120 (tracemalloc),
    so 64 entries hold at most ~0.4 MB.  Op-count groups:
    ``gate-series-factors``, ``gate-pair-products``.
    """
    keep = (a + b) // 2 - 1
    product = cut_product(_convolution(a, degree).coeffs, _convolution(b, degree).coeffs, keep)
    return tuple(as_integer(c, "_pair") for c in product)


def n_via_series(t: Genus1Tuple) -> int:
    """Count via coefficient extraction from a q-series product: the
    coefficient of q^degree in (1-4q)^(3/2) * F_d1 * F_d2 * F_d3 * F_d4,
    with F_d = sum_{j=0}^{d-2} s_j * s_{d-2-j}.  The tuple has been
    checked on shell by ``Genus1Tuple``.

    F_1 is the empty convolution, so an order 1 gives 0 at once.  Else
    H = F_d1 * F_d2 and H' = F_d3 * F_d4 come from the memo ``_pair``, and
    the count is sum H[i] * H'[j] * c_(degree - i - j) over their nonzero
    coefficients, all in ints, with c_k from the binomial recurrence of
    ``power_3_2``, never from the weighted units of ``genus1``, which the
    gate checks against that series.
    """
    if 1 in t.orders():
        return 0
    degree = t.degree
    left, right = t.sorted_pairs()
    half, other = _pair(*left, degree), _pair(*right, degree)
    power = power_3_2(degree)
    return sum(
        h * c * power[degree - i - j]
        for i, h in enumerate(half) if h
        for j, c in enumerate(other) if c
    )
