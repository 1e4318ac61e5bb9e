"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the package's own code paths:
tableau counts come from brute-force backtracking, binomials from a
literal Pascal triangle, series coefficients from the generalized
binomial expansion, and Laurent products from naive dict convolution.
Slow is fine; these only run at test scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def syt_brute(a: int, b: int) -> int:
    """Count standard fillings of the two-row shape (a, b) by backtracking.

    State (i, j): i cells filled in the top row, j in the bottom; the
    next entry may extend the top row, or the bottom row when j < i
    (column condition) — rows are automatically increasing.
    """
    if a < 0 or b < 0 or b > a:
        return 0

    def fill(i: int, j: int) -> int:
        if i == a and j == b:
            return 1
        ways = 0
        if i < a:
            ways += fill(i + 1, j)
        if j < b and j < i:
            ways += fill(i, j + 1)
        return ways

    return fill(0, 0)


def pascal_triangle(rows: int) -> list[list[int]]:
    """Rows 0..rows of the additive triangle, no formulas involved."""
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return tri


def binomial_series(alpha: Fraction, order: int) -> list[Fraction]:
    """Coefficients of (1 - 4q)^alpha from the generalized binomial theorem."""
    out = [Fraction(1)]
    term = Fraction(1)
    for n in range(1, order + 1):
        term *= (alpha - (n - 1)) / n
        out.append(term * (-4) ** n)
    return out


def convolve(p1: dict[int, int], p2: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def p_dict(r: int) -> dict[int, int]:
    """The antisymmetric building block as a plain dict."""
    return {e: e for e in range(-r, r + 1, 2) if e}


def genus1_constant_term(quad) -> int:
    """Constant term of the product of four building blocks, by hand."""
    prod: dict[int, int] = {0: 1}
    for d in quad:
        prod = convolve(prod, p_dict(d - 1))
    return prod.get(0, 0)


def weighted_assembly(quad) -> int:
    """Weighted count summed term by term over base-point splittings.

    Each order d sheds k base points with d - 2k >= 1, weighted by the
    tableaux of shape (d - k - 1, k); every splitting adds its weight
    times the constant term of the shifted orders, including shifts
    below degree 2.
    """
    total = 0
    for ks in itertools.product(*(range((d - 1) // 2 + 1) for d in quad)):
        weight = 1
        for d, k in zip(quad, ks):
            weight *= syt_brute(d - k - 1, k)
        total += weight * genus1_constant_term([d - 2 * k for d, k in zip(quad, ks)])
    return total


def geometric_inverse(n: int) -> list[dict[int, int]]:
    """Coefficients of x^0..x^n of 1/(1 - (x - q x^2)) as q-dicts,
    via the geometric series and binomial expansion of (x - q x^2)^k."""
    out: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    tri = pascal_triangle(n)
    for k in range(0, n + 1):
        for j in range(0, k + 1):
            if k + j > n:
                break
            out[k + j][j] = out[k + j].get(j, 0) + tri[k][j] * (-1) ** j
    return out


def ordered_on_shell(degree: int, min_order: int = 1, max_order: int | None = None):
    """All labeled order quadruples for the given degree, brute force."""
    cap = degree if max_order is None else max_order
    total = 2 * degree + 4
    quads = []
    for d1 in range(min_order, cap + 1):
        for d2 in range(min_order, cap + 1):
            for d3 in range(min_order, cap + 1):
                d4 = total - d1 - d2 - d3
                if min_order <= d4 <= cap:
                    quads.append((d1, d2, d3, d4))
    return quads
