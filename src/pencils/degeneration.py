"""Counts of pencils on a general genus-g curve assembled by degeneration.

A problem fixes a genus g, a pencil degree d, total-vanishing orders at
fixed general points, and orders at moving points.  The count
degenerates onto a rational spine carrying g elliptic tails: each
distribution of the 3g moving labels into ordered triples, together with
a vanishing sequence 0 <= a_j < b_j <= d at each node, contributes a
genus-0 integral against the fixed and node classes times a genus-1
factor per tail.  Genus 0 is the case with no tails, where the sum is
the Grassmannian integral of the fixed classes alone.  By multilinearity
each triple's node choices fold into one tail class, distributions with
the same triples into one product, and all the products of one set of
labels and degree into one tails class, paired once with the fixed
classes.  The weighted variant
replaces each fixed class by a power of the hyperplane class and each
tail factor by the exact-vanishing weighted count.

A problem with fewer than 3g moving conditions is counted with simple
ones added; that padded count overcounts it by exactly (3g-m)!.
``on_shell_problems`` lists every on-shell problem of a genus and degree.
``RamificationProblem.reflected`` is the paper's involution d_i -> d + 2 - d_i;
the tests pin the classes of problems whose counts it keeps.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import CrossCheckError, DomainError, require_within
from .exactmath import bounded_partitions
from .genus1 import (
    MAX_ANSWER_DEGREE,
    _ANSWER_SCOPE,
    Genus1Tuple,
    count_laurent,
    weighted_fixed_first,
)
from .grassmann import SchubertClass, integrate, mul, pairing, pieri_mul, sigma1_power, unit

__all__ = [
    "RamificationProblem",
    "MAX_GENUS",
    "MAX_DEGENERATION_DEGREE",
    "on_shell_problems",
    "distributions",
    "genus_g_count",
    "genus_g_weighted",
    "count_with_padding",
    "consolidate_fixed",
]

Distribution = tuple[tuple[int, int, int], ...]

# genus 4 lists 369,600 distributions: the trigonal count (4, 3, (), (2,)*12)
# takes 1.2-1.5 s in a fresh interpreter on the host below, with a peak RSS
# (ru_maxrss) of ~94 MB, 78.5 MB of it the Python heap's tracemalloc peak
# (tracing itself lifts ru_maxrss to ~216 MB); genus 5 would list 168,168,000
MAX_GENUS = 4
_GENUS_SCOPE = "the (3*genus)!/6^genus enumeration"
# Per genus, the degree above which a count is refused, and the slowest shape
# found at it in-process on a shared 2-core Intel Xeon host.  Genus 0 (unweighted;
# the weighted class is closed-form): 1.6-1.9 s with fixed orders (2,)*(2d-2).
# Genus 1: 2.9-3.1 s, fixed (d,) and three moving orders near d/3 (about deg^3).
# Genus 2: 2.0-2.5 s, fixed (75,), moving (81, 78, 74, 70, 67, 64); 7 s at 300.
# Genus 3: 1.6-2.9 s, nine evenly spaced moving orders.  Genus 4: 4.2-4.9 s,
# fixed (7,), ten distinct moving orders (12, 11, 10, 8, 7, 6, 5, 4, 3, 2, 2, 2);
# degree 32 admits eleven, 6-8 s.
MAX_DEGENERATION_DEGREE = {0: 1500, 1: 500, 2: 250, 3: 89, 4: 30}
_DEGENERATION_SCOPE = {g: f"the degeneration at genus {g}" for g in MAX_DEGENERATION_DEGREE}


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
        g, d, fixed, moving = self.g, self.d, self.fixed, self.moving
        if type(fixed) is not tuple or type(moving) is not tuple:  # lists, say
            fixed, moving = tuple(fixed), tuple(moving)
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

    def reflected(self) -> RamificationProblem:
        """The paper's involution d_i -> d + 2 - d_i on every fixed and
        moving order, refused when an image order falls below 2 or the
        image is not a valid problem."""
        d = self.d
        fixed = tuple(d + 2 - o for o in self.fixed)
        moving = tuple(d + 2 - o for o in self.moving)
        for o, image in zip(self.fixed + self.moving, fixed + moving):
            if image < 2:
                raise DomainError(
                    f"reflection sends order {o} to {image}, below the minimum order 2"
                )
        try:
            return RamificationProblem(self.g, d, fixed, moving)
        except DomainError as exc:
            raise DomainError(
                f"the reflection d_i -> deg+2-d_i, fixed {list(fixed)} and moving "
                f"{list(moving)}, is not a valid problem: {exc}"
            ) from None


def on_shell_problems(g: int, d: int):
    """Every on-shell problem of genus g and degree d, by fixed cost.

    Fixed orders come non-increasing and may exceed the degree (the
    unweighted count is then 0); the 3g moving orders come non-increasing,
    padded with simple ones.  Problems that are unstable at g >= 1 are
    skipped; a genus or degree no problem has is refused at once.
    """
    if g < 0:
        raise DomainError(f"genus must be >= 0, got {g}")
    if d < 2:
        raise DomainError(f"degree must be >= 2, got {d}")
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
    gives 369,600 of them, so the genus is bounded by MAX_GENUS.  The
    labels are sorted first, so any order of them gives the same list.
    """
    require_within("distributions", "genus", g, MAX_GENUS, _GENUS_SCOPE)
    labels = tuple(sorted(labels))
    if len(labels) != 3 * g:
        raise DomainError(
            f"distributions: need 3*genus = {3 * g} labels, got {len(labels)}"
        )

    out: list[Distribution] = []
    _extend(out, labels, tuple(range(3 * g)), ())
    return out


def _extend(
    out: list, labels: tuple[int, ...], positions: tuple[int, ...], prefix: tuple
) -> None:
    """Append to ``out`` every ``prefix`` followed by a distribution of the
    labels at ``positions``, first triple varying slowest.

    Each triple is built once per choice of positions and shared by every
    distribution below it.  ``out`` comes in as an argument: a nested
    function appending to an enclosing list would hold it in a reference
    cycle, alive until the collector runs.
    """
    if not positions:
        out.append(prefix)
        return
    for i, j, k in itertools.combinations(positions, 3):
        rest = tuple(x for x in positions if x != i and x != j and x != k)
        _extend(out, labels, rest, prefix + ((labels[i], labels[j], labels[k]),))


@lru_cache(maxsize=128)
def _triple_multisets(labels: tuple[int, ...], g: int):
    """The ordered distributions of ``labels`` folded into multisets of
    sorted triples, as (multiset, multiplicity) pairs.

    ``distributions`` sorts the labels and takes positions in increasing
    order, so each triple comes sorted and only the multiset itself is
    sorted; callers pass sorted labels so that permutations share an
    entry.  Genus 1 never reads it, so the bound covers the 47-50
    distinct label tuples of a genusg-mix pass and the 90 of the verify
    gate.  An entry of genus 2 holds at most 10 multisets
    and one of genus 3 at most 280 (~74 KB), so 128 entries hold ~9.4 MB;
    a genus-4 entry with 12 distinct labels holds 15,400 (~4.6 MB,
    measured with tracemalloc), which puts the worst case at ~590 MB.
    """
    return tuple(Counter(map(tuple, map(sorted, distributions(labels, g)))).items())


@lru_cache(maxsize=512)
def _tail_class(factor, triple: tuple[int, int, int], d: int) -> SchubertClass:
    """One tail's node classes weighted by its genus-1 factors.

    The sum runs over the node vanishing sequences 0 <= a < b <= d with
    a + b = s; a <= d-2 keeps the tail's pencil degree d-a at least 2,
    below that the factor is 0.  The bound covers the at most 300
    distinct (factor, triple, d) keys of a genusg-mix pass or of the
    verify gate.  A class has at most d/2 terms, ~2.4 KB at degree 30 and
    ~30 KB at degree 500, genus 1's degree bound, so 512 entries hold
    ~1.2 MB up to degree 30 and ~16 MB at that bound.
    """
    s = 2 * d + 4 - sum(triple)
    return SchubertClass(d + 1, {
        (d - a - 1, d - s + a): factor(Genus1Tuple(s - 2 * a, *triple))
        for a in range(max(0, s - d), min((s - 1) // 2, d - 2) + 1)
    })


@lru_cache(maxsize=1024)
def _tails_class(factor, labels: tuple[int, ...], d: int) -> SchubertClass:
    """The tails of every distribution of ``labels`` in one class: the sum
    over the multisets of sorted triples of multiplicity times the product
    of the tail classes.

    The product and the integral are multilinear and the tail factors
    symmetric in a triple, so ordered distributions with the same triples
    multiply alike, and problems that differ only in their fixed points
    share this class and cost one pairing each.  ``labels`` are sorted,
    as ``_triple_multisets`` needs.  The bound covers the 200 distinct
    (factor, labels, d) keys of a genusg-mix pass and the 472 of the
    verify gate (level 9); the suite at its bound (level 13) reads 3,351.
    Entries average 0.2-0.4 KB up to degree 16.  A genus-1 entry is its
    tail class, ~30 KB at degree 500, genus 1's degree bound, and a
    genus-3 one at degree 89, genus 3's, takes ~6.3 KB (measured with
    tracemalloc), so 1024 entries hold ~0.4 MB on the sweeps, ~6.4 MB at
    genus 3's bound and ~31 MB at genus 1's.
    """
    g = len(labels) // 3
    if g == 1:  # one distribution of one triple
        return _tail_class(factor, labels, d)
    terms: dict[tuple[int, int], int] = {}
    for key, multiplicity in _triple_multisets(labels, g):
        cls = _tail_class(factor, key[0], d)
        for triple in key[1:]:
            cls = mul(cls, _tail_class(factor, triple, d))
        for partition, c in cls.terms.items():
            terms[partition] = terms.get(partition, 0) + multiplicity * c
    return SchubertClass(d + 1, terms)


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
    what = "genus_g_weighted" if weighted else "genus_g_count"
    require_within(what, "degree", p.d, MAX_ANSWER_DEGREE, _ANSWER_SCOPE)
    require_within(what, "genus", p.g, MAX_GENUS, _GENUS_SCOPE)
    if p.g or not weighted:  # weighted genus 0 is one closed-form class
        require_within(what, "degree", p.d, MAX_DEGENERATION_DEGREE[p.g],
                       _DEGENERATION_SCOPE[p.g])
    d, ambient = p.d, p.d + 1
    if weighted:
        fixed_part = sigma1_power(sum(o - 1 for o in p.fixed), ambient)
    else:
        fixed_part = unit(ambient)
        for o in p.fixed:
            fixed_part = pieri_mul(fixed_part, o - 1)
    if p.g == 0:  # no tails: the spine's integral alone
        return integrate(fixed_part)
    if fixed_part.is_zero():
        return 0
    factor = weighted_fixed_first if weighted else count_laurent
    labels = tuple(sorted(p.moving + (2,) * (3 * p.g - p.m)))
    # the integral is bilinear, so the tails of every distribution pair
    # with the fixed classes at once
    return pairing(fixed_part, _tails_class(factor, labels, d))


def genus_g_count(p: RamificationProblem) -> int:
    """Degeneration count of pencils of degree d on a general genus-g
    curve with p's fixed and moving conditions; any number m <= 3g of
    moving conditions.  At genus 0 it is the integral of the fixed
    classes s(o-1, 0) over Gr(2, d+1).  The genus is bounded by
    ``MAX_GENUS`` and the degree by ``MAX_DEGENERATION_DEGREE`` of the
    genus, both checked before any product."""
    return count_with_padding(p)[0]


def genus_g_weighted(p: RamificationProblem) -> int:
    """Weighted variant of ``genus_g_count``: each fixed class becomes
    sigma1^(o-1), so genus 0 gives Catalan(d-1) whatever the orders, with
    no degree bound but ``MAX_ANSWER_DEGREE``.  Moving orders above
    2d - g - 1 are outside its domain."""
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
