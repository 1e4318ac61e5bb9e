"""Self-verification suites.

Each property re-derives a family of values two independent ways and
compares exactly; ``run_suite`` executes a named group of properties and
reports one result per property.  The ``level`` knob scales the sweep
bounds (level 9 is the release gate; the test suite runs level 7); every
check is exact integer/rational arithmetic, so any mismatch at all is a
failure.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

from .degeneration import (
    RamificationProblem,
    consolidate_fixed,
    count_with_padding,
    genus_g_count,
    genus_g_weighted,
    on_shell_problems,
)
from .errors import CrossCheckError, DomainError, require_within
from .exactmath import binomial, catalan, cut_product, syt_count
from .genus1 import (
    Genus1Tuple,
    count,
    count_laurent,
    count_polynomial,
    on_shell_tuples,
    unweighted_from_weighted,
    weighted_count,
    weighted_fixed_first,
    weighted_from_unweighted,
)
from .grassmann import (
    SchubertClass,
    fourfold_integral,
    integrate,
    magic_integral,
    mul,
    pieri_mul,
    sigma,
    sigma1_power,
    unit,
)
from .laurent import constant_term, p_poly
from .qseries import _convolution, catalan_power_series, power_3_2, sqrt_one_minus_4q

__all__ = ["PropertyResult", "SUITES", "MAX_VERIFY_LEVEL", "run_property", "run_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: int


# ---------------------------------------------------------------- schubert


def sigma1_powers_match_tableau_counts(level: int) -> str:
    cases = 0
    for ambient in range(2, level + 4):
        cls = unit(ambient)  # Pieri steps, against the closed form sigma1_power
        for k in range(0, 2 * level + 1):
            closed = sigma1_power(k, ambient)
            # both hold exactly the nonzero coefficients in the box, so the
            # box is walked only to name the first coefficient that differs
            if cls.terms != closed.terms:
                for b in range(0, ambient - 1):
                    for a in range(b, ambient - 1):
                        got, want = cls.coefficient(a, b), closed.coefficient(a, b)
                        if got != want:
                            raise CrossCheckError(
                                f"sigma1^{k} on Gr(2,{ambient}) at ({a},{b}): {got} != {want}"
                            )
            cases += ambient * (ambient - 1) // 2
            cls = pieri_mul(cls, 1)
    return f"powers k <= {2 * level} on Gr(2,N), N <= {level + 3}, {cases} coefficients"


def sigma1_top_power_is_catalan(level: int) -> str:
    for d in range(2, level + 6):
        cls = unit(d + 1)
        for _ in range(2 * d - 2):
            cls = pieri_mul(cls, 1)
        got = integrate(cls)
        if got != catalan(d - 1):
            raise CrossCheckError(f"integral of sigma1^{2 * d - 2}: {got}")
    return f"top self-intersections for degrees 2..{level + 5}"


def _quadruple_integrals(start: SchubertClass, total: int):
    """Each sorted quadruple n1 >= n2 >= n3 >= n4 >= 0 of special classes
    s(n, 0) with indices summing to ``total``, in descending order, with the
    integral of their product times ``start``.

    Walked as nested loops, so each prefix product is built once; a factor
    s(n, 0) is one Pieri step."""
    for n1 in range(total, -1, -1):
        if 4 * n1 < total:
            break
        first = pieri_mul(start, n1)
        for n2 in range(min(n1, total - n1), -1, -1):
            if 3 * n2 < total - n1:
                break
            second = pieri_mul(first, n2)
            for n3 in range(min(n2, total - n1 - n2), -1, -1):
                n4 = total - n1 - n2 - n3
                if n4 > n3:
                    break
                yield (n1, n2, n3, n4), integrate(pieri_mul(pieri_mul(second, n3), n4))


def fourfold_closed_form_matches_engine(level: int) -> str:
    cases = 0
    for ambient in range(2, level + 6):
        for quad, got in _quadruple_integrals(unit(ambient), 2 * ambient - 4):
            if got != fourfold_integral(*quad, ambient):
                raise CrossCheckError(f"fourfold {quad} on Gr(2,{ambient})")
            cases += 1
    return f"{cases} quadruples on Gr(2,N), N <= {level + 5}"


def special_quadratic_integral_matches_engine(level: int) -> str:
    cases = 0
    for ambient in range(3, level + 6):
        s1 = sigma(1, 0, ambient)
        correction = 8 * sigma(1, 1, ambient) - 2 * mul(s1, s1)
        for quad, got in _quadruple_integrals(correction, 2 * (ambient - 1) - 4):
            if got != magic_integral(*quad, ambient):
                raise CrossCheckError(f"quadratic correction {quad} on Gr(2,{ambient})")
            cases += 1
    return f"{cases} quadruples against the 6/4/2/-2/0 table, N <= {level + 5}"


def basis_duality(level: int) -> str:
    cases = 0
    for ambient in range(2, level + 2):
        top = ambient - 2
        box = {
            (a, b): sigma(a, b, ambient)
            for b in range(0, ambient - 1)
            for a in range(b, ambient - 1)
        }
        for (a, b), x in box.items():
            dual = (top - b, top - a)
            for (c, e), y in box.items():
                want = 1 if (c, e) == dual else 0
                if integrate(mul(x, y)) != want:
                    raise CrossCheckError(f"pairing ({a},{b})x({c},{e}) on Gr(2,{ambient})")
                cases += 1
    return f"{cases} basis pairings, N <= {level + 1}"


# ----------------------------------------------------------------- laurent


def building_block_symmetry(level: int) -> str:
    for r in range(0, min(30, 4 * level + 2) + 1):
        p = p_poly(r)
        for e in p.support():
            if p.coefficient(-e) != -p.coefficient(e):
                raise CrossCheckError(f"P_{r} at exponent {e}")
    odd = 0
    for r1 in range(0, level + 1):
        for r2 in range(r1, level + 1):
            for r3 in range(r2, level + 1):
                if (r1 + r2 + r3) % 2 == 1:
                    if constant_term(p_poly(r1) * p_poly(r2) * p_poly(r3)) != 0:
                        raise CrossCheckError(f"odd product P_{r1}P_{r2}P_{r3}")
                    odd += 1
    for r in range(0, min(20, 3 * level - 1) + 1):
        p = p_poly(r)
        direct = constant_term(p * p)
        paired = sum(p.coefficient(e) * p.coefficient(-e) for e in p.support())
        squared = -sum(p.coefficient(e) ** 2 for e in p.support())
        if not (direct == paired == squared):
            raise CrossCheckError(f"P_{r}^2 constant term")
    return f"antisymmetry to r = {min(30, 4 * level + 2)}, {odd} odd products vanish"


def four_method_agreement(level: int) -> str:
    anchor = count(Genus1Tuple(2, 2, 2, 2))
    if not (anchor.agreed and set(anchor.values.values()) == {6}):
        raise CrossCheckError(f"anchor (2,2,2,2): {anchor.values}")
    tuples = 0
    for degree in range(2, level + 3):
        for quad in on_shell_tuples(degree):
            report = count(Genus1Tuple(*quad))
            if not report.agreed:
                raise CrossCheckError(f"methods disagree on {quad}: {report.values}")
            value = report.values["laurent"]
            if value < 0:
                raise CrossCheckError(f"negative count on {quad}")
            tuples += 1
    return f"{tuples} tuples through degree {level + 2}, four pipelines identical"


def closed_form_branch_guard(level: int) -> str:
    tuples = boundary = 0
    for degree in range(2, level + 3):
        for quad in on_shell_tuples(degree):
            t = Genus1Tuple(*quad)
            if count_polynomial(t) != count_laurent(t):
                raise CrossCheckError(f"closed form vs constant term on {quad}")
            d1, d2, d3, d4 = t.sorted_desc()
            # on the boundary neither call reflects: the top-gap branch, then the bottom
            if d1 - d2 == d3 - d4:
                if count_polynomial(t.reflected()) != count_polynomial(t):
                    raise CrossCheckError(f"branch mismatch on boundary tuple {quad}")
                boundary += 1
            tuples += 1
    return f"{tuples} tuples, {boundary} boundary tuples agree across branches"


def _inverse_coeffs(n: int) -> list[dict[int, int]]:
    # 1/(1 - (x - q x^2)) as a geometric series, collected per power of x
    out: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    for k in range(0, n + 1):
        for j in range(0, k + 1):
            if k + j > n:
                break
            c = binomial(k, j) * (-1) ** j
            out[k + j][j] = out[k + j].get(j, 0) + c
    return out


def series_coefficient_identities(level: int) -> str:
    # every series here but the convolutions F_n is an int tuple, and the
    # products run on them through the package's one product loop
    order = 2 * level + 1
    top = max(1, level - 1)
    f = {t: catalan_power_series(t, order) for t in range(1, top + 1)}
    for t in range(1, top + 1):
        for m in range(0, order + 1):
            if f[t][m] != syt_count(t + m - 1, m):
                raise CrossCheckError(f"f_{t} coefficient {m}")
    for t in range(2, top + 1):
        if cut_product(f[1], f[t - 1], order + 1) != [*f[t]]:
            raise CrossCheckError(f"f_1 * f_{t - 1} != f_{t}")
    s = sqrt_one_minus_4q(30)
    s_squared = cut_product(s, s, len(s))
    if s_squared != [1, -4] + [0] * 29:
        raise CrossCheckError("square root square")
    if [*power_3_2(30)] != cut_product(s_squared, s, len(s)):
        raise CrossCheckError("3/2 power vs cube of square root")
    power = power_3_2(level + 4)  # (6q - 1) + (1-4q)^(3/2) generates 12 C_(m-2)/m
    lhs = [power[0] - 1, power[1] + 6, *power[2:]]
    for m in (0, 1):
        if lhs[m]:
            raise CrossCheckError(f"weighted generating function coefficient {m}")
    for m in range(2, level + 5):
        if m * lhs[m] != 12 * catalan(m - 2):
            raise CrossCheckError(f"weighted generating function coefficient {m}")
    checked = 0
    # entries up to x^n do not depend on the cut, so one table serves every n
    inv = _inverse_coeffs(2 * level + 2)
    for n in range(2, 2 * level + 3):
        square = {}
        for i in range(1, n):
            for qi, ci in inv[i - 1].items():
                for qj, cj in inv[n - i - 1].items():
                    square[qi + qj] = square.get(qi + qj, 0) + ci * cj
        conv = _convolution(n, n).coeffs  # Fractions: one off the integers fails too
        for m in range(0, n + 1):
            if conv[m] != square.get(m, 0):
                raise CrossCheckError(f"x^{n} coefficient of the squared inverse at q^{m}")
        bound = n // 2 - 1
        for m, c in square.items():
            if not (c == 0 or m <= bound):
                raise CrossCheckError(f"q-degree of x^{n} coefficient exceeds {bound}")
        checked += 1
    return (
        f"f_t tables t <= {top}, m <= {order}; inverse-square identity "
        f"to x^{2 * level + 2} with q-degree bounds; {checked + 2 * top} identities"
    )


# ----------------------------------------------------------------- duality


def degree_reflection_duality(level: int) -> str:
    anchor = Genus1Tuple(4, 4, 4, 2)
    image = anchor.reflected()
    if image != Genus1Tuple(3, 3, 3, 5):
        raise CrossCheckError(f"reflection of (4,4,4,2) gives {image.orders()}")
    n1, n2 = count_laurent(anchor), count_laurent(image)
    if not n1 == n2 == 96:
        raise CrossCheckError(f"anchor (4,4,4,2) vs reflection: {n1}, {n2}")
    tuples = 0
    for degree in range(2, level + 3):
        for quad in on_shell_tuples(degree, min_order=2):
            t = Genus1Tuple(*quad)
            a, b = count_laurent(t), count_laurent(t.reflected())
            if a != b:
                raise CrossCheckError(f"reflection breaks on {quad}: {a} != {b}")
            tuples += 1
    return f"{tuples} tuples through degree {level + 2}, reflection preserves counts"


# --------------------------------------------------------------- recursion


def weighted_recursion_consistency(level: int) -> str:
    tuples = 0
    for degree in range(2, level + 2):
        for quad in on_shell_tuples(degree, max_order=2 * degree - 1):
            t = Genus1Tuple(*quad)
            weighted = weighted_count(t)
            if weighted_from_unweighted(t) != weighted:
                raise CrossCheckError(f"weight assembly vs closed form on {quad}")
            if unweighted_from_weighted(t) != count_laurent(t):
                raise CrossCheckError(f"inversion vs constant term on {quad}")
            # a base point of order k at the largest order d1 leaves exact
            # vanishing (0, d1 - 2k) on a pencil of degree deg - k
            d1, rest = quad[0], quad[1:]
            split = sum(
                syt_count(d1 - k - 1, k) * weighted_fixed_first(Genus1Tuple(d1 - 2 * k, *rest))
                for k in range(0, degree - 1)
                if 1 <= d1 - 2 * k <= degree - k
            )
            if split != weighted:
                raise CrossCheckError(f"base-point splitting vs closed form on {quad}")
            tuples += 1
    return f"{tuples} tuples with orders to 2*deg-1, degrees 2..{level + 1}"


# ------------------------------------------------------------ degeneration


def genus1_reduction(level: int) -> str:
    problems = 0
    for degree in range(2, level):
        for quad in on_shell_tuples(degree, min_order=2):
            t = Genus1Tuple(*quad)
            want, weighted = count_laurent(t), weighted_count(t)
            for pivot in {0, 3}:
                rest = quad[:pivot] + quad[pivot + 1 :]
                p = RamificationProblem(1, degree, (quad[pivot],), rest)
                if genus_g_count(p) != want:
                    raise CrossCheckError(
                        f"tail assembly vs direct count on {quad} (pivot {pivot})"
                    )
                if genus_g_weighted(p) != weighted:
                    raise CrossCheckError(
                        f"weighted tail assembly vs closed form on {quad} (pivot {pivot})"
                    )
                problems += 1
    return (f"{problems} single-tail problems through degree {max(2, level - 1)}, "
            "unweighted and weighted")


def total_ramification_family(level: int) -> str:
    for d in range(2, level + 4):
        want = 2 * (d * d - 1)
        if count_laurent(Genus1Tuple(d, d, 2, 2)) != want:
            raise CrossCheckError(f"(d,d,2,2) closed form at d={d}")
        answer, raw, factor = count_with_padding(
            RamificationProblem(1, d, (d,), (d,))
        )
        if (answer, raw, factor) != (d * d - 1, want, 2):
            raise CrossCheckError(
                f"padded one-moving-point problem at d={d}: {(answer, raw, factor)}"
            )
    return f"degrees 2..{level + 3}, padded counts divide out exactly"


def hyperelliptic_sextuple(level: int) -> str:
    answer, raw, factor = count_with_padding(RamificationProblem(2, 2, (), ()))
    if (answer, raw, factor) != (1, 720, 720):
        raise CrossCheckError(
            f"unique degree-2 pencil after dividing labelings: {(answer, raw, factor)}"
        )
    worked = RamificationProblem(1, 3, (2, 2), (2, 2, 3))
    if genus_g_count(worked) != 16:
        raise CrossCheckError("two fixed points, three moving, degree 3")
    # Brill-Noether: with 3g simple moving points each tail is a cusp, so
    # 2d - g - 2 simple fixed points count (3g)! times the integral of
    # sigma1^(2d-2), weighted alike; genus 0 is Goldberg's count
    for g, d in itertools.product((0, 1, 2), range(2, level + 4)):
        n = 2 * d - g - 2
        simple = RamificationProblem(g, d, (2,) * n, (2,) * (3 * g))
        want = math.factorial(3 * g) * catalan(d - 1)
        if genus_g_count(simple) != want:
            raise CrossCheckError(f"{n} simple fixed points on genus {g}, degree {d}")
        if genus_g_weighted(simple) != want:
            raise CrossCheckError(f"weighted, {n} simple fixed points on genus {g}, degree {d}")
    # two total points on the line: the weighted count only sees the weight 2d - 2
    for d in range(2, level + 4):
        total = RamificationProblem(0, d, (d, d))
        if genus_g_count(total) != 1:
            raise CrossCheckError(f"two total points on the line, degree {d}")
        if genus_g_weighted(total) != catalan(d - 1):
            raise CrossCheckError(f"weighted two total points on the line, degree {d}")
    return ("720 = 6! labelings of the hyperelliptic branch points; worked example 16; "
            f"genus 0..2 to degree {level + 3}: (3g)! Catalan(d-1) from 2d-g-2 simple fixed "
            "points, unweighted and weighted; genus 0: 1 from (d,d), Catalan(d-1) weighted")


def _sigma1_products(start: SchubertClass, total: int):
    """Each partition of each weight 1..``total``, parts in descending
    order and partitions in descending lexicographic order, with ``start``
    times sigma1 to each part.

    Walked as one prefix tree, so each partition is one product: its
    parent's class, the partition without its last part, times sigma1 to
    that part."""
    stack = [((part,), start, total - part) for part in range(1, total + 1)]
    while stack:  # children go on smallest first, so the largest comes off first
        parts, parent, rest = stack.pop()
        cls = mul(parent, sigma1_power(parts[-1], start.ambient))
        yield parts, cls
        stack.extend(
            ((*parts, part), cls, rest - part) for part in range(1, min(rest, parts[-1]) + 1)
        )


def weighted_consolidation_invariance(level: int) -> str:
    top = max(2, level - 2)
    # what the invariance rests on: the weighted count sees the fixed points
    # only through the product of their classes sigma1^(o-1), which is
    # sigma1^w for the fixed weight w = sum(o - 1)
    for d in range(2, top + 1):
        ambient = d + 1
        for parts, cls in _sigma1_products(unit(ambient), 2 * d - 3):
            if cls != sigma1_power(sum(parts), ambient):
                fixed = tuple(part + 1 for part in parts)
                raise CrossCheckError(
                    f"sigma1 powers of fixed {fixed} multiply wrongly on Gr(2,{ambient})"
                )
    problems = 0
    merged_counts = {}  # keyed (g, d, w, moving): each merged problem counted once
    for g, d in itertools.product((1, 2), range(2, top + 1)):
        for p in on_shell_problems(g, d):
            if not p.fixed:
                continue
            w = sum(o - 1 for o in p.fixed)
            merged = consolidate_fixed(p)
            if (merged.g, merged.d, merged.fixed, merged.moving) != (g, d, (w + 1,), p.moving):
                raise CrossCheckError(f"fixed {p.fixed} does not consolidate to ({w + 1},)")
            key = (g, d, w, p.moving)
            if key not in merged_counts:
                merged_counts[key] = genus_g_weighted(merged)
            before, after = genus_g_weighted(p), merged_counts[key]
            if not (before == after >= 0):
                raise CrossCheckError(f"consolidation changes {p}: {before} -> {after}")
            problems += 1
    return f"{problems} problems with g <= 2, d <= {top}"


def label_symmetry(level: int) -> str:
    problems = 0
    for degree in range(2, level):
        for quad in on_shell_tuples(degree, min_order=2):
            base = None
            for perm in set(itertools.permutations(quad[1:])):
                p = RamificationProblem(1, degree, (quad[0],), perm)
                got = genus_g_count(p)
                if base is None:
                    base = got
                if got != base:
                    raise CrossCheckError(f"moving order {perm} changes the count")
                problems += 1
    return f"{problems} relabelings through degree {max(2, level - 1)}"


# ------------------------------------------------------------------ runner


_PROPERTIES = {
    "schubert": (
        sigma1_powers_match_tableau_counts,
        sigma1_top_power_is_catalan,
        fourfold_closed_form_matches_engine,
        special_quadratic_integral_matches_engine,
        basis_duality,
    ),
    "laurent": (
        building_block_symmetry,
        four_method_agreement,
        closed_form_branch_guard,
        series_coefficient_identities,
    ),
    "duality": (degree_reflection_duality,),
    "recursion": (weighted_recursion_consistency,),
    "degeneration": (
        genus1_reduction,
        total_ramification_family,
        hyperelliptic_sextuple,
        weighted_consolidation_invariance,
        label_symmetry,
    ),
}

SUITES = ("all", *_PROPERTIES)

# each level runs the whole suite; its timings are in README's bounds table
MAX_VERIFY_LEVEL = 13


def run_property(prop: Callable[[int], str], level: int) -> PropertyResult:
    """Run one property function, reporting a failure rather than raising."""
    start = time.perf_counter()
    try:
        detail = prop(level)
        passed = True
    except Exception as exc:  # report, never crash the suite
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = int(1000 * (time.perf_counter() - start))
    return PropertyResult(prop.__name__, passed, detail, elapsed)


def run_suite(suite: str = "all", level: int = 7) -> list[PropertyResult]:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if level < 2:
        raise DomainError(f"verification level must be >= 2, got {level}")
    require_within("run_suite", "verification level", level, MAX_VERIFY_LEVEL,
                   "the verify suites")
    groups = _PROPERTIES.values() if suite == "all" else (_PROPERTIES[suite],)
    return [run_property(prop, level) for group in groups for prop in group]
