"""Exact integer helpers for ramification weights: binomials, tableau
and Catalan numbers as ballot differences of binomials, and ``exact_div``,
the one checked division, which refuses a remainder.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DomainError, IntegralityError

__all__ = [
    "as_integer",
    "exact_div",
    "binomial",
    "catalan",
    "syt_count",
]


def as_integer(x: Fraction | int, context: str) -> int:
    """Collapse an exact rational known to be integral, or raise."""
    frac = Fraction(x)
    return exact_div(frac.numerator, frac.denominator, context)


def exact_div(num: int, den: int, context: str) -> int:
    """num / den for a num known to be a multiple of den > 0, or raise."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise IntegralityError(f"{context}: {Fraction(num, den)} is not an integer")
    return quotient


def binomial(n: int, k: int) -> int:
    """Binomial coefficient; 0 for k < 0 or k > n >= 0.

    A negative upper index follows the generalized convention
    binomial(n, k) = (-1)^k binomial(k-n-1, k), so Pascal's rule holds
    for all integer arguments.
    """
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k) if k <= n else 0
    return (-1) ** k * comb(k - n - 1, k)


def catalan(n: int) -> int:
    """n-th Catalan number binomial(2n, n) - binomial(2n, n + 1)."""
    if n < 0:
        raise DomainError(f"catalan: index must be nonnegative, got {n}")
    return binomial(2 * n, n) - binomial(2 * n, n + 1)


def syt_count(a: int, b: int) -> int:
    """Standard Young tableaux of the two-row shape (a, b).

    The ballot difference binomial(a+b, b) - binomial(a+b, b-1).  Shapes
    failing a >= b >= 0 count 0 rather than erroring, so sums may run
    over unrestricted index ranges.
    """
    if not a >= b >= 0:
        return 0
    return binomial(a + b, b) - binomial(a + b, b - 1)
