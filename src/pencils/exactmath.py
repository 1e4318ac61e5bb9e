"""Exact integer and rational helpers for ramification weights.

Counts are plain Python ``int`` (arbitrary precision); divisions pass
through ``fractions.Fraction`` and are asserted integral before being
handed back as integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DomainError, IntegralityError

__all__ = [
    "as_integer",
    "binomial",
    "catalan",
    "syt_count",
]


def as_integer(x: Fraction | int, context: str) -> int:
    """Collapse an exact rational known to be integral, or raise."""
    frac = Fraction(x)
    if frac.denominator != 1:
        raise IntegralityError(f"{context}: {frac} is not an integer")
    return frac.numerator


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
    """n-th Catalan number binomial(2n, n)/(n + 1)."""
    if n < 0:
        raise DomainError(f"catalan: index must be nonnegative, got {n}")
    return as_integer(Fraction(binomial(2 * n, n), n + 1), "catalan")


def syt_count(a: int, b: int) -> int:
    """Standard Young tableaux of the two-row shape (a, b).

    Shapes failing a >= b >= 0 count 0 rather than erroring, so sums may
    run over unrestricted index ranges.
    """
    if not a >= b >= 0:
        return 0
    return as_integer(
        Fraction(binomial(a + b, a) * (a - b + 1), a + 1), "syt_count"
    )
