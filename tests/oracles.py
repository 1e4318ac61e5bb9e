"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the package's own code paths:
tableau counts come from brute-force backtracking, binomials from a
literal Pascal triangle, series coefficients from the generalized
binomial expansion, Laurent products from naive dict convolution,
Schubert products from the Jacobi-Trudi determinant, genus-0 integrals
from the Pieri rule, genus-g problems from plain partitions, ordered
distributions into triples from a chain of generators, Schur polynomials
and the unweighted count from their recursions, the q-series count with
every factor multiplied in, the series and Schubert counts as the
accumulating chains their pipelines once were, the inversion as its
four-block running product, Catalan powers by
sequential convolution, cut products as one antidiagonal sum per
coefficient, the closed form's two branches as transcribed monomial
tables, one power per factor, and bounded partitions by the recursion,
one level per part, that the enumerator's loop replaced.  The recursion,
the inversion's blocks and its units are each built once per run.
The gate's Schubert sweeps as they first were, one ``mul`` chain per
quadruple or partition, are the one exception: they are the package's
own products, kept as the path its prefix walks replaced.
Slow is fine; these only run at test scale.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from pencils.exactmath import bounded_partitions
from pencils.grassmann import integrate, mul, sigma, sigma1_power, unit


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


def weighted_closed_form(quad) -> int:
    """12 C_{deg-2} / deg * prod (d_i - 1), the Catalan number counted as
    the tableaux of the square shape."""
    deg = (sum(quad) - 4) // 2
    value = Fraction(12 * syt_brute(deg - 2, deg - 2), deg)
    for d in quad:
        value *= d - 1
    assert value.denominator == 1, quad
    return int(value)


@lru_cache(maxsize=None)
def unweighted_recursive(orders: tuple[int, int, int, int]) -> int:
    """The unweighted count by peeling every base-point splitting off the
    weighted closed form, recursing on strictly smaller order sums.

    Orders are sorted descending; a sum below 8 (degree below 2) counts 0.
    """
    if sum(orders) < 8:
        return 0
    acc = weighted_closed_form(orders)
    for ks in itertools.product(*(range((d - 1) // 2 + 1) for d in orders)):
        if any(ks):
            weight = 1
            for d, k in zip(orders, ks):
                weight *= syt_brute(d - k - 1, k)
            shifted = sorted((d - 2 * k for d, k in zip(orders, ks)), reverse=True)
            acc -= weight * unweighted_recursive(tuple(shifted))
    return acc


def schur_table(n: int) -> list[list[int]]:
    """Coefficient lists (q^0 first) of s_0..s_n at root sum 1, root product
    q, by the recursion s_j = s_(j-1) - q s_(j-2) from s_(-1) = 0, s_0 = 1."""
    before, table = [0], [[1]]
    for _ in range(n):
        prev = table[-1]
        nxt = prev + [0] * (len(before) + 1 - len(prev))
        for k, c in enumerate(before):
            nxt[k + 1] -= c
        before = prev
        table.append(nxt)
    return table


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


def _h_times(cls: dict[tuple[int, int], int], k: int, n: int) -> dict[tuple[int, int], int]:
    """cls times the complete class h_k on Gr(2, n), as plain dicts.

    Pieri: add k boxes to the two rows, none in a column that was already
    two boxes deep; shapes wider than n - 2 vanish.  h_k is 0 for k < 0.
    """
    out: dict[tuple[int, int], int] = {}
    if k < 0:
        return out
    for (a, b), q in cls.items():
        for first in range(k + 1):
            shape = (a + first, b + k - first)
            if shape[1] <= a and shape[0] <= n - 2:
                out[shape] = out.get(shape, 0) + q
    return out


def schubert_product(x: dict[tuple[int, int], int], y: dict[tuple[int, int], int], n: int):
    """x * y on Gr(2, n), through s(c, e) = h_c h_e - h_(c+1) h_(e-1)."""
    out: dict[tuple[int, int], int] = {}
    for (c, e), q in y.items():
        for sign, (i, j) in ((1, (c, e)), (-1, (c + 1, e - 1))):
            for key, v in _h_times(_h_times(x, i, n), j, n).items():
                out[key] = out.get(key, 0) + sign * q * v
    return {key: v for key, v in out.items() if v}


def tau_class(k: int, n: int) -> dict[tuple[int, int], int]:
    """tau_k = sum over a + b = k of h_a h_b on Gr(2, n), by the Pieri rule above."""
    out: dict[tuple[int, int], int] = {}
    for a in range(k + 1):
        for key, v in _h_times(_h_times({(0, 0): 1}, a, n), k - a, n).items():
            out[key] = out.get(key, 0) + v
    return out


def genus0_integral(d: int, orders, weighted: bool = False) -> int:
    """Integral over Gr(2, d+1) of the product of h_(o-1), or of h_1^(o-1)
    when weighted, one Pieri step at a time."""
    cls = {(0, 0): 1}
    for o in orders:
        for k in (1,) * (o - 1) if weighted else (o - 1,):
            cls = _h_times(cls, k, d + 1)
    return cls.get((d - 1, d - 1), 0)


def partitions(total: int, max_part: int | None = None):
    """Non-increasing tuples of positive parts summing to total."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def problems_with_fixed(g: int, d: int):
    """(g, d, fixed, moving) of every on-shell problem with a fixed condition,
    orders non-increasing and 3g moving ones padded with simple ones."""
    target = g + 2 * (d - g - 1)
    for fixed_cost in range(1, target + 1):
        moving_cost = target - fixed_cost
        for fixed_parts in partitions(fixed_cost):
            fixed = tuple(x + 1 for x in fixed_parts)
            for moving_parts in partitions(moving_cost):
                if len(moving_parts) > 3 * g:
                    continue
                moving = tuple(x + 2 for x in moving_parts)
                moving += (2,) * (3 * g - len(moving))
                yield g, d, fixed, moving


def ordered_distributions(labels, g: int) -> list:
    """Every ordered assignment of the 3g labels (by position) into g
    disjoint triples, first triple varying slowest: the package's first
    enumerator, each distribution re-yielded through every level."""
    labels = tuple(labels)

    def rec(positions):
        if not positions:
            yield ()
            return
        for combo in itertools.combinations(positions, 3):
            rest = tuple(x for x in positions if x not in combo)
            for tail in rec(rest):
                yield (tuple(labels[i] for i in combo),) + tail

    return list(rec(tuple(range(3 * g))))


def parse_polynomial(table: str) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
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


# The degree-7 closed form's top-gap branch (sorted orders with
# d1 - d2 >= d3 - d4) as first transcribed, one monomial a line.
TOP_GAP_TABLE = """
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
"""

# Its bottom-gap branch (d1 - d2 <= d3 - d4), the branch the package
# evaluates, in factored form, as genus1._bottom_gap_value.
BOTTOM_GAP_TABLE = """
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
"""


def polynomial_value(table: str, orders) -> Fraction:
    """A table of lines 'coefficient d1^a d2^b ...' evaluated at orders."""
    total = Fraction(0)
    for line in table.strip().splitlines():
        coeff, *factors = line.split()
        term = Fraction(coeff)
        for factor in factors:
            name, _, power = factor.partition("^")
            term *= orders[int(name[1]) - 1] ** int(power or 1)
        total += term
    return total


def _truncated_times(a, b, degree: int) -> list[Fraction]:
    out = [Fraction(0)] * (degree + 1)
    for i, x in enumerate(a[: degree + 1]):
        for j, y in enumerate(b[: degree + 1 - i]):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _series_factor(d: int, degree: int) -> tuple[Fraction, ...]:
    """F_d = sum_{j=0}^{d-2} s_j s_(d-2-j) as a Fraction tuple truncated at q^degree."""
    schur = schur_table(d)
    factor = [Fraction(0)] * (degree + 1)
    for j in range(d - 1):
        for n, c in enumerate(_truncated_times(schur[j], schur[d - 2 - j], degree)):
            factor[n] += c
    return tuple(factor)


def _series_factors(orders):
    """The degree, (1-4q)^(3/2) and each F_d, truncated at q^deg."""
    degree = (sum(orders) - 4) // 2
    factors = [_series_factor(d, degree) for d in orders]
    return degree, binomial_series(Fraction(3, 2), degree), factors


def pair_product(a: int, b: int, degree: int) -> list[Fraction]:
    """F_a * F_b as a Fraction list truncated at q^degree."""
    return _truncated_times(_series_factor(a, degree), _series_factor(b, degree), degree)


def series_count(orders) -> int:
    """The genus-1 count as the q^deg coefficient of the full q-series product
    (1-4q)^(3/2) * prod_i sum_{j=0}^{d_i-2} s_j s_(d_i-2-j), every factor
    multiplied in, with Fraction lists truncated at q^deg."""
    degree, acc, factors = _series_factors(orders)
    for factor in factors:
        acc = _truncated_times(acc, factor, degree)
    assert acc[degree].denominator == 1, orders
    return int(acc[degree])


def series_chain_count(orders) -> int:
    """The same coefficient as the accumulating chain: (1-4q)^(3/2) times
    F_d1, F_d2 and F_d3 one product at a time, paired with F_d4 as
    sum_i acc_i F_d4[deg - i]."""
    degree, acc, factors = _series_factors(orders)
    for factor in factors[:3]:
        acc = _truncated_times(factor, acc, degree)
    value = sum(a * factors[3][degree - i] for i, a in enumerate(acc))
    assert value.denominator == 1, orders
    return int(value)


def schubert_chain_count(orders) -> int:
    """The genus-1 count as the accumulating Schubert chain on Gr(2, deg+1):
    the correction 8 s(1,1) - 2 s(1,0)^2 times tau_(d1-2), tau_(d2-2) and
    tau_(d3-2) one product at a time, then the point coefficient of its
    product with tau_(d4-2), all through the Jacobi-Trudi product above."""
    n = (sum(orders) - 4) // 2 + 1
    acc = {key: -2 * v for key, v in schubert_product({(1, 0): 1}, {(1, 0): 1}, n).items()}
    acc[1, 1] = acc.get((1, 1), 0) + 8
    for d in orders[:3]:
        acc = schubert_product(acc, tau_class(d - 2, n), n)
    return schubert_product(acc, tau_class(orders[3] - 2, n), n).get((n - 2, n - 2), 0)


@lru_cache(maxsize=None)
def _inversion_block(d: int) -> tuple[int, ...]:
    """A_d = ((-1)^j C(d-1-j, j) (d-2j-1))_j, built once per run."""
    return tuple((-1) ** j * math.comb(d - 1 - j, j) * (d - 2 * j - 1)
                 for j in range((d + 1) // 2))


@lru_cache(maxsize=None)
def _units(degree: int) -> tuple[int, list[int]]:
    """The weighted units 12 C_(m-2)/m = 12 C(2m-4, m-2)/((m-1) m) for
    m = degree down to 2, over one common denominator: (it, the numerators).
    Built once per degree and run."""
    units = [Fraction(12 * math.comb(2 * m - 4, m - 2), (m - 1) * m) for m in range(degree, 1, -1)]
    common = math.lcm(*(unit.denominator for unit in units))
    return common, [unit.numerator * (common // unit.denominator) for unit in units]


def inversion_count(orders) -> int:
    """The genus-1 count by the inversion as it first ran: the blocks
    A_d multiplied in one at a time, each running product cut to
    x^(deg-2), then met with the weighted units."""
    degree = (sum(orders) - 4) // 2
    poly = [1]
    for d in orders:
        block = _inversion_block(d)
        out = [0] * min(degree - 1, len(poly) + len(block) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(block[: len(out) - i]):
                out[i + j] += a * b
        poly = out
    common, numerators = _units(degree)
    total = Fraction(sum(map(operator.mul, poly, numerators)), common)
    assert total.denominator == 1, orders
    return int(total)


@lru_cache(maxsize=None)
def recursive_bounded_partitions(total: int, length: int, max_part: int) -> tuple:
    """``exactmath.bounded_partitions`` as it first was: the first part
    from the largest down, then the rest by recursion under it; each
    argument triple is listed once per run."""
    if length == 0:
        return ((),) if total == 0 else ()
    out = []
    for first in range(min(total, max_part), -1, -1):
        if first * length < total:
            break
        out.extend((first,) + rest
                   for rest in recursive_bounded_partitions(total - first, length - 1, first))
    return tuple(out)


def quadruple_chain(start, total: int):
    """Each quadruple of ``bounded_partitions(total, 4, total)`` with the
    integral of ``start`` times s(n1, 0)...s(n4, 0), the product built from
    ``start`` by four ``mul`` calls."""
    special = [sigma(n, 0, start.ambient) for n in range(total + 1)]
    for quad in bounded_partitions(total, 4, total):
        cls = start
        for n in quad:
            cls = mul(cls, special[n])
        yield quad, integrate(cls)


def sigma1_chain(ambient: int, w: int):
    """Each partition of w, in ``bounded_partitions`` order, with the product
    of sigma1 to each part on Gr(2, ambient), built from the unit by one
    ``mul`` call per part."""
    for padded in bounded_partitions(w, w, w):
        parts = tuple(part for part in padded if part)
        cls = unit(ambient)
        for part in parts:
            cls = mul(cls, sigma1_power(part, ambient))
        yield parts, cls


def catalan_power(t: int, order: int) -> list[int]:
    """Coefficients q^0..q^order of C(q)^t, C the Catalan generating
    function: C from C_(n+1) = sum_i C_i C_(n-i), then t sequential
    convolutions of plain int lists, starting from 1."""
    base = [1]
    for n in range(order):
        base.append(sum(base[i] * base[n - i] for i in range(n + 1)))
    out = [1] + [0] * order
    for _ in range(t):
        out = [sum(out[i] * base[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return out


def antidiagonal_product(left, right, n: int) -> list:
    """The first n coefficients of the product of two coefficient lists,
    x^0 first: each coefficient one sum over its antidiagonal, zeros and
    all, as the product loop was before it skipped them."""
    return [sum(map(operator.mul, left[max(0, k - len(right) + 1): k + 1],
                    right[min(k, len(right) - 1)::-1])) for k in range(n)]


def evaluate_terms(table, orders) -> Fraction:
    """A parsed closed-form table (common denominator, integer terms with
    exponent tuples) at the orders, one base**e power per factor."""
    den, terms = table
    total = 0
    for mono, exps in terms:
        for base, e in zip(orders, exps):
            mono *= base**e
        total += mono
    return Fraction(total, den)


TOP_GAP_TERMS = parse_polynomial(TOP_GAP_TABLE)
BOTTOM_GAP_TERMS = parse_polynomial(BOTTOM_GAP_TABLE)
