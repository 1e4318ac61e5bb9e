"""Counts of pencils on a general genus-g curve assembled by degeneration.

A problem fixes a genus g, a pencil degree d, total-vanishing orders at
fixed general points, and orders at moving points.  The count
degenerates onto a rational spine carrying g elliptic tails: each
distribution of the 3g moving labels into ordered triples, together with
a vanishing sequence 0 <= a_j < b_j <= d at each node, contributes a
genus-0 integral against the fixed and node classes times a genus-1
factor per tail.  Genus 0 is the case with no tails, where the sum is
the Grassmannian integral of the fixed classes alone.  By multilinearity
each triple's node choices fold into one tail class, and distributions
with the same triples share one integral.  The weighted variant
replaces each fixed class by a power of the hyperplane class and each
tail factor by the exact-vanishing weighted count.

A problem with fewer than 3g moving conditions is counted with simple
ones added; that padded count overcounts it by exactly (3g-m)!.
``on_shell_problems`` lists every on-shell problem of a genus and degree.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import CrossCheckError, DomainError
from .exactmath import bounded_partitions
from .genus1 import Genus1Tuple, _require_answer_degree, count_laurent, weighted_fixed_first
from .grassmann import SchubertClass, integrate, mul, pairing, sigma, sigma1_power, unit

__all__ = [
    "RamificationProblem",
    "MAX_GENUS",
    "on_shell_problems",
    "distributions",
    "genus_g_count",
    "genus_g_weighted",
    "count_with_padding",
    "consolidate_fixed",
]

Distribution = tuple[tuple[int, int, int], ...]

MAX_GENUS = 4  # genus 5 would list 168,168,000 distributions


@dataclass(frozen=True)
class RamificationProblem:
    """Ramification data for pencils of degree d on a general genus-g curve.

    On-shell means the conditions cut the space of pencils down to
    dimension zero: a fixed-point order costs d_i - 1, a moving-point
    order costs d_i - 2, and the space itself has dimension
    g + 2(d - g - 1).  At g >= 1 the spine needs 2g - 2 + n > 0 to be
    stable; genus 0 has no tails and counts any number of fixed points.
    """

    g: int
    d: int
    fixed: tuple[int, ...] = ()
    moving: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        g, d = self.g, self.d
        fixed, moving = tuple(self.fixed), tuple(self.moving)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "moving", moving)
        if g < 0:
            raise DomainError(f"genus must be >= 0, got {g}")
        if d < 2:
            raise DomainError(f"degree must be >= 2, got {d}")
        for o in fixed + moving:
            if o < 2:
                raise DomainError(f"order {o} < 2 imposes no condition")
        n, m = len(fixed), len(moving)
        if m > 3 * g:
            raise DomainError(f"{m} moving conditions exceed 3*genus = {3 * g}")
        if g and 2 * g - 2 + n <= 0:
            raise DomainError(
                f"unstable: need 2*genus - 2 + #fixed > 0, got {2 * g - 2 + n}"
            )
        imposed = sum(fixed) - n + sum(moving) - 2 * m
        moduli = g + 2 * (d - g - 1)
        if imposed != moduli:
            raise DomainError(
                f"off-shell: conditions impose {imposed} but pencils of "
                f"degree {d} on a genus-{g} curve move in dimension {moduli}"
            )

    @property
    def n(self) -> int:
        return len(self.fixed)

    @property
    def m(self) -> int:
        return len(self.moving)


def on_shell_problems(g: int, d: int):
    """Every on-shell problem of genus g and degree d, by fixed cost.

    Fixed orders come non-increasing and may exceed the degree (the
    unweighted count is then 0); the 3g moving orders come non-increasing,
    padded with simple ones.  Problems that are unstable at g >= 1 are
    skipped.
    """
    target = g + 2 * (d - g - 1)
    for fixed_cost in range(0, target + 1):
        moving_cost = target - fixed_cost
        movings = [
            tuple(part + 2 for part in mparts)
            for mparts in bounded_partitions(moving_cost, 3 * g, moving_cost)
        ]
        for fparts in bounded_partitions(fixed_cost, fixed_cost, fixed_cost):
            fixed = tuple(part + 1 for part in fparts if part)
            if g == 1 and not fixed:  # 2g - 2 + n = 0
                continue
            for moving in movings:
                yield RamificationProblem(g, d, fixed, moving)


def distributions(labels, g: int) -> list[Distribution]:
    """All ordered assignments of the 3g labels into g disjoint triples.

    The tails are attached at distinct points, so component order is
    significant: there are (3g)!/6^g assignments (by position; repeated
    label values are enumerated with multiplicity).  Genus 4 already
    gives 369,600 of them, so the genus is bounded by MAX_GENUS.
    """
    if g > MAX_GENUS:
        raise DomainError(
            f"distributions: genus {g} exceeds the bound {MAX_GENUS} on the "
            f"(3*genus)!/6^genus enumeration"
        )
    labels = tuple(labels)
    if len(labels) != 3 * g:
        raise DomainError(
            f"distributions: need 3*genus = {3 * g} labels, got {len(labels)}"
        )

    def rec(positions: tuple[int, ...]):
        if not positions:
            yield ()
            return
        for combo in itertools.combinations(positions, 3):
            rest = tuple(x for x in positions if x not in combo)
            for tail in rec(rest):
                yield (tuple(labels[i] for i in combo),) + tail

    return list(rec(tuple(range(3 * g))))


@lru_cache(maxsize=128)
def _triple_multisets(labels: tuple[int, ...], g: int):
    """The ordered distributions of ``labels`` folded into multisets of
    sorted triples, as (multiset, multiplicity) pairs.

    Permuting the labels permutes the distributions, so callers key this
    by the sorted labels.  The bound covers the 80 distinct label tuples
    of a genusg-mix pass and the at most 90 per (g, d) of the verify
    gate.  An entry of genus <= 2 holds at most 10 multisets and one of
    genus 3 at most 280 (~90 KB), so 128 entries hold ~11 MB; a genus-4
    entry with 12 distinct labels holds 15,400 (~5.9 MB, measured with
    tracemalloc), which puts the worst case at ~750 MB.
    """
    return tuple(Counter(
        tuple(sorted(tuple(sorted(triple)) for triple in dist))
        for dist in distributions(labels, g)
    ).items())


@lru_cache(maxsize=512)
def _tail_class(factor, triple: tuple[int, int, int], d: int) -> SchubertClass:
    """One tail's node classes weighted by its genus-1 factors.

    The sum runs over the node vanishing sequences 0 <= a < b <= d with
    a + b = s; a <= d-2 keeps the tail's pencil degree d-a at least 2,
    below that the factor is 0.  The bound covers the at most 300
    distinct (factor, triple, d) keys of a genusg-mix pass or of the
    verify gate.  A class has at most d/2 terms, ~2.4 KB at degree 30, so
    512 entries hold ~1.2 MB up to that degree.
    """
    s = 2 * d + 4 - sum(triple)
    return SchubertClass(d + 1, {
        (d - a - 1, d - s + a): factor(Genus1Tuple(s - 2 * a, *triple))
        for a in range(max(0, s - d), min((s - 1) // 2, d - 2) + 1)
    })


def _assemble(p: RamificationProblem, weighted: bool) -> int:
    """The degeneration sum with the moving labels padded by simple ones
    up to 3g, so (3g - m)! times the count of p."""
    if weighted:
        # simple conditions are always meaningful, so the cap never bites below 2
        cap = max(2, 2 * p.d - p.g - 1)
        for o in p.moving:
            if o > cap:
                raise DomainError(
                    f"weighted domain: moving order {o} exceeds "
                    f"2*degree - genus - 1 = {2 * p.d - p.g - 1}"
                )
    _require_answer_degree(p.d, "genus_g_weighted" if weighted else "genus_g_count")
    d, ambient = p.d, p.d + 1
    if weighted:
        fixed_part = sigma1_power(sum(o - 1 for o in p.fixed), ambient)
    else:
        fixed_part = unit(ambient)
        for o in p.fixed:
            fixed_part = mul(fixed_part, sigma(o - 1, 0, ambient))
    if p.g == 0:  # no tails: the spine's integral alone
        return integrate(fixed_part)
    if fixed_part.is_zero():
        return 0
    factor = weighted_fixed_first if weighted else count_laurent
    labels = tuple(sorted(p.moving + (2,) * (3 * p.g - p.m)))
    # the product and the integral are multilinear and the tail factors
    # symmetric in a triple, so each triple is one class and ordered
    # distributions with the same triples integrate alike; the integral of
    # the last tail against the rest is a pairing, not a product
    total = 0
    for key, multiplicity in _triple_multisets(labels, p.g):
        cls = fixed_part
        for triple in key[:-1]:
            cls = mul(cls, _tail_class(factor, triple, d))
        total += multiplicity * pairing(cls, _tail_class(factor, key[-1], d))
    return total


def genus_g_count(p: RamificationProblem) -> int:
    """Degeneration count of pencils of degree d on a general genus-g
    curve with p's fixed and moving conditions; any number m <= 3g of
    moving conditions.  At genus 0 it is the integral of the fixed
    classes s(o-1, 0) over Gr(2, d+1)."""
    return count_with_padding(p)[0]


def genus_g_weighted(p: RamificationProblem) -> int:
    """Weighted variant of ``genus_g_count``: each fixed class becomes
    sigma1^(o-1), so genus 0 gives Catalan(d-1) whatever the orders.
    Moving orders above 2d - g - 1 are outside its domain."""
    return count_with_padding(p, weighted=True)[0]


def count_with_padding(
    p: RamificationProblem, weighted: bool = False
) -> tuple[int, int, int]:
    """The count of p as (answer, padded count, factor).

    The padded count adds 3g - m simple moving conditions to p, which
    overcounts it by factor = (3g - m)!; a remainder on dividing it out
    is a ``CrossCheckError``.
    """
    raw = _assemble(p, weighted)
    factor = math.factorial(3 * p.g - p.m)
    if raw % factor:
        raise CrossCheckError(
            f"padded count {raw} is not divisible by the label factor {factor}"
        )
    return raw // factor, raw, factor


def consolidate_fixed(p: RamificationProblem) -> RamificationProblem:
    """Merge all fixed conditions into one of order sum(d_i) - n + 1.

    Construction of the result re-checks that it is on-shell; the
    weighted count is invariant under this move.
    """
    if p.n == 0:
        raise DomainError("nothing to consolidate: no fixed conditions")
    merged = sum(p.fixed) - p.n + 1
    return RamificationProblem(p.g, p.d, (merged,), p.moving)
