"""Counts of pencils on a general genus-g curve assembled by degeneration.

A problem fixes a genus g, a pencil degree d, total-vanishing orders at
fixed general points, and orders at moving points.  Genus 0 is a single
Grassmannian integral.  For g >= 1 the count degenerates onto a rational
spine carrying g elliptic tails: each distribution of the 3g moving
labels into ordered triples, together with a vanishing sequence
0 <= a_j < b_j <= d at each node, contributes a genus-0 integral against
the node classes times a genus-1 factor per tail.  By multilinearity
each triple's node choices fold into one tail class, and distributions
with the same triples share one integral.  The weighted variant
replaces each fixed class by a power of the hyperplane class and each
tail factor by the exact-vanishing weighted count.

Problems with fewer than 3g moving conditions are padded with simple
ones; the padded count overcounts the original by (3g-m)!.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import CrossCheckError, DomainError
from .exactmath import catalan
from .genus1 import Genus1Tuple, count_laurent, weighted_fixed_first
from .grassmann import SchubertClass, integrate, mul, sigma, sigma1_power, unit

__all__ = [
    "RamificationProblem",
    "Distribution",
    "MAX_GENUS",
    "genus0_count",
    "genus0_weighted",
    "pad_moving",
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
    g + 2(d - g - 1).
    """

    g: int
    d: int
    fixed: tuple[int, ...] = ()
    moving: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed", tuple(self.fixed))
        object.__setattr__(self, "moving", tuple(self.moving))
        if self.g < 0:
            raise DomainError(f"genus must be >= 0, got {self.g}")
        if self.d < 2:
            raise DomainError(f"degree must be >= 2, got {self.d}")
        for o in self.fixed + self.moving:
            if o < 2:
                raise DomainError(f"order {o} < 2 imposes no condition")
        if self.m > 3 * self.g:
            raise DomainError(
                f"{self.m} moving conditions exceed 3*genus = {3 * self.g}"
            )
        if 2 * self.g - 2 + self.n <= 0:
            raise DomainError(
                f"unstable: need 2*genus - 2 + #fixed > 0, got "
                f"{2 * self.g - 2 + self.n}"
            )
        imposed = self.conditions_imposed()
        moduli = self.moduli_dimension()
        if imposed != moduli:
            raise DomainError(
                f"off-shell: conditions impose {imposed} but pencils of "
                f"degree {self.d} on a genus-{self.g} curve move in "
                f"dimension {moduli}"
            )

    @property
    def n(self) -> int:
        return len(self.fixed)

    @property
    def m(self) -> int:
        return len(self.moving)

    def conditions_imposed(self) -> int:
        return sum(o - 1 for o in self.fixed) + sum(o - 2 for o in self.moving)

    def moduli_dimension(self) -> int:
        return self.g + 2 * (self.d - self.g - 1)


def genus0_count(d: int, orders) -> int:
    """Degree-d self-covers of the line with prescribed ramification.

    Integrates the product of the special classes s(o-1, 0) over
    Gr(2, d+1); the orders must use up its dimension 2d - 2 exactly.
    """
    orders = tuple(orders)
    for o in orders:
        if not 2 <= o <= d:
            raise DomainError(f"genus0_count: order {o} outside 2..degree={d}")
    imposed = sum(o - 1 for o in orders)
    if imposed != 2 * d - 2:
        raise DomainError(
            f"off-shell: fixed ramification imposes {imposed}, expected "
            f"2*degree - 2 = {2 * d - 2}"
        )
    acc = unit(d + 1)
    for o in orders:
        acc = mul(acc, sigma(o - 1, 0, d + 1))
    return integrate(acc)


def genus0_weighted(d: int, orders) -> int:
    """Weighted genus-0 count: a Catalan number, independent of the orders.

    Evaluated through the engine as the top power of the hyperplane
    class and cross-checked against the closed form.
    """
    orders = tuple(orders)
    for o in orders:
        if o < 2:
            raise DomainError(f"genus0_weighted: order {o} < 2")
    imposed = sum(o - 1 for o in orders)
    if imposed != 2 * d - 2:
        raise DomainError(
            f"off-shell: fixed ramification imposes {imposed}, expected "
            f"2*degree - 2 = {2 * d - 2}"
        )
    val = integrate(sigma1_power(2 * d - 2, d + 1))
    expected = catalan(d - 1)
    if val != expected:
        raise CrossCheckError(
            f"genus0_weighted engine gave {val}, closed form {expected}"
        )
    return val


def pad_moving(p: RamificationProblem) -> tuple[RamificationProblem, int]:
    """Append simple moving conditions up to 3g; the padded count equals
    (3g - m)! times the original one."""
    extra = 3 * p.g - p.m
    padded = RamificationProblem(p.g, p.d, p.fixed, p.moving + (2,) * extra)
    return padded, math.factorial(extra)


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


def _tail_class(factor, triple: tuple[int, int, int], d: int) -> SchubertClass:
    """One tail's node classes weighted by its genus-1 factors.

    The sum runs over the node vanishing sequences 0 <= a < b <= d with
    a + b = s; a <= d-2 keeps the tail's pencil degree d-a at least 2,
    below that the factor is 0.
    """
    s = 2 * d + 4 - sum(triple)
    return SchubertClass(d + 1, {
        (d - a - 1, d - s + a): factor(Genus1Tuple(s - 2 * a, *triple))
        for a in range(max(0, s - d), min((s - 1) // 2, d - 2) + 1)
    })


def _assemble(p: RamificationProblem, weighted: bool) -> int:
    d, ambient = p.d, p.d + 1
    if weighted:
        fixed_part = sigma1_power(sum(o - 1 for o in p.fixed), ambient)
    else:
        fixed_part = unit(ambient)
        for o in p.fixed:
            fixed_part = mul(fixed_part, sigma(o - 1, 0, ambient))
    if fixed_part.is_zero():
        return 0
    factor = weighted_fixed_first if weighted else count_laurent
    # the product and the integral are multilinear and the tail factors
    # symmetric in a triple, so each triple is one class and ordered
    # distributions with the same triples integrate alike
    multisets = Counter(
        tuple(sorted(tuple(sorted(triple)) for triple in dist))
        for dist in distributions(p.moving, p.g)
    )
    tails: dict[tuple[int, int, int], SchubertClass] = {}
    total = 0
    for key, multiplicity in multisets.items():
        cls = fixed_part
        for triple in key:
            if triple not in tails:
                tails[triple] = _tail_class(factor, triple, d)
            cls = mul(cls, tails[triple])
        total += multiplicity * integrate(cls)
    return total


def genus_g_count(p: RamificationProblem) -> int:
    """Degeneration sum for the unweighted genus-g count.

    Requires a full complement of 3g moving conditions; pad first if
    there are fewer.  Genus-0 problems route to the direct integral.
    """
    if p.g == 0:
        return genus0_count(p.d, p.fixed)
    if p.m != 3 * p.g:
        raise DomainError(
            f"need exactly 3*genus = {3 * p.g} moving conditions "
            f"(pad with simple ones first); got {p.m}"
        )
    return _assemble(p, weighted=False)


def genus_g_weighted(p: RamificationProblem) -> int:
    """Weighted variant of the degeneration sum."""
    if p.g == 0:
        return genus0_weighted(p.d, p.fixed)
    # simple conditions are always meaningful, so the cap never bites below 2
    cap = max(2, 2 * p.d - p.g - 1)
    for o in p.moving:
        if o > cap:
            raise DomainError(
                f"weighted domain: moving order {o} exceeds "
                f"2*degree - genus - 1 = {2 * p.d - p.g - 1}"
            )
    if p.m != 3 * p.g:
        raise DomainError(
            f"need exactly 3*genus = {3 * p.g} moving conditions "
            f"(pad with simple ones first); got {p.m}"
        )
    return _assemble(p, weighted=True)


def count_with_padding(
    p: RamificationProblem, weighted: bool = False
) -> tuple[int, int, int]:
    """Pad, count, and divide the overcount back out.

    Returns (answer, padded count, factorial factor); the padded count
    must be an exact multiple of the factor.
    """
    padded, factor = pad_moving(p)
    raw = genus_g_weighted(padded) if weighted else genus_g_count(padded)
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
