"""Exact integer helpers for ramification weights: binomials, tableau
and Catalan numbers as ballot differences of binomials, ``exact_div``,
the one checked division, which refuses a remainder,
``bounded_partitions``, the enumerator of order data, and
``cut_product``, the one loop over dense coefficient lists.
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
    "bounded_partitions",
    "cut_product",
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
    """Binomial coefficient of n >= 0; 0 for k < 0 or k > n."""
    return comb(n, k) if k >= 0 else 0


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


def bounded_partitions(total: int, length: int, max_part: int):
    """Non-increasing ``length``-tuples of ints in 0..max_part summing to total.

    Yields them in descending lexicographic order, nothing when there
    are none (a negative total or max_part included).  One loop: each
    step shrinks the rightmost part whose tail can still take the surplus
    under it, by one, and refills that tail greedily.
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    if not (length > 0 and 0 <= total <= length * max_part):
        return
    parts = [0] * length
    start, rest, cap = 0, total, max_part
    while True:
        for i in range(start, length):
            parts[i] = part = min(rest, cap)
            rest -= part
        yield tuple(parts)
        rest = parts[-1]
        for i in range(length - 2, -1, -1):
            cap = parts[i] - 1
            if rest < (length - 1 - i) * cap:
                break
            rest += parts[i]
        else:
            return
        parts[i] = cap
        start, rest = i + 1, rest + 1


def cut_product(left, right, n: int) -> list:
    """The first n coefficients of the product of two nonempty coefficient
    lists, x^0 first.  Zero coefficients of ``left`` are skipped, so the
    sparser operand goes on the left; the result starts from ``left[0] * 0``,
    so int lists give ints and Fractions Fractions."""
    out = [left[0] * 0] * n
    for i, x in enumerate(left[:n]):
        if x:
            for j, y in enumerate(right[: n - i]):
                out[i + j] += x * y
    return out
