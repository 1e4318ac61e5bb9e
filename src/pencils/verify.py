"""Self-verification suites.

Each property re-derives a family of values two independent ways and
compares exactly; ``run_suite`` executes a named group of properties and
reports one result per property.  The ``level`` knob scales the sweep
bounds (level 7 is the reference gate used by the test suite); every
check is exact integer/rational arithmetic, so any mismatch at all is a
failure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from .degeneration import (
    RamificationProblem,
    consolidate_fixed,
    count_with_padding,
    genus_g_count,
    genus_g_weighted,
)
from .errors import CrossCheckError, DomainError
from .exactmath import binomial, catalan, syt_count
from .genus1 import (
    MAX_SERIES_DEGREE,
    Genus1Tuple,
    count,
    count_laurent,
    count_polynomial,
    duality_check,
    on_shell_tuples,
    polynomial_branch_values,
    unweighted_from_weighted,
    weighted_count,
    weighted_from_unweighted,
)
from .grassmann import (
    fourfold_integral,
    integrate,
    magic_integral,
    mul,
    sigma,
    sigma1_power,
    unit,
)
from .laurent import constant_term, p_poly
from .parallel import map_jobs
from .qseries import TruncatedSeries, catalan_power_series, power_3_2, schur_q, sqrt_one_minus_4q

__all__ = ["PropertyResult", "SUITES", "run_property", "run_suite"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str
    elapsed_ms: int


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CrossCheckError(msg)


def _desc_quadruples(total: int, max_part: int):
    """Non-increasing quadruples of nonnegative ints with the given sum."""
    for n1 in range(min(total, max_part), -1, -1):
        for n2 in range(min(n1, total - n1), -1, -1):
            for n3 in range(min(n2, total - n1 - n2), -1, -1):
                n4 = total - n1 - n2 - n3
                if 0 <= n4 <= n3:
                    yield (n1, n2, n3, n4)


# ---------------------------------------------------------------- schubert


def sigma1_powers_match_tableau_counts(level: int) -> str:
    cases = 0
    for ambient in range(2, level + 4):
        for k in range(0, 2 * level + 1):
            cls = sigma1_power(k, ambient)
            for b in range(0, ambient - 1):
                for a in range(b, ambient - 1):
                    want = syt_count(a, b) if a + b == k else 0
                    _check(
                        cls.coefficient(a, b) == want,
                        f"sigma1^{k} on Gr(2,{ambient}) at ({a},{b}): "
                        f"{cls.coefficient(a, b)} != {want}",
                    )
                    cases += 1
    return f"powers k <= {2 * level} on Gr(2,N), N <= {level + 3}, {cases} coefficients"


def sigma1_top_power_is_catalan(level: int) -> str:
    for d in range(2, level + 6):
        got = integrate(sigma1_power(2 * d - 2, d + 1))
        _check(got == catalan(d - 1), f"integral of sigma1^{2 * d - 2}: {got}")
    return f"top self-intersections for degrees 2..{level + 5}"


def fourfold_closed_form_matches_engine(level: int) -> str:
    cases = 0
    for ambient in range(2, level + 6):
        total = 2 * ambient - 4
        for quad in _desc_quadruples(total, total):
            cls = unit(ambient)
            for n in quad:
                cls = mul(cls, sigma(n, 0, ambient))
            _check(
                integrate(cls) == fourfold_integral(*quad, ambient),
                f"fourfold {quad} on Gr(2,{ambient})",
            )
            cases += 1
    return f"{cases} quadruples on Gr(2,N), N <= {level + 5}"


def special_quadratic_integral_matches_engine(level: int) -> str:
    cases = 0
    for ambient in range(3, level + 6):
        total = 2 * (ambient - 1) - 4
        s1 = sigma(1, 0, ambient)
        correction = 8 * sigma(1, 1, ambient) - 2 * mul(s1, s1)
        for quad in _desc_quadruples(total, total):
            cls = correction
            for n in quad:
                cls = mul(cls, sigma(n, 0, ambient))
            _check(
                integrate(cls) == magic_integral(*quad, ambient),
                f"quadratic correction {quad} on Gr(2,{ambient})",
            )
            cases += 1
    return f"{cases} quadruples against the 6/4/2/-2/0 table, N <= {level + 5}"


def basis_duality(level: int) -> str:
    cases = 0
    for ambient in range(2, level + 2):
        box = [
            (a, b)
            for b in range(0, ambient - 1)
            for a in range(b, ambient - 1)
        ]
        for (a, b), (c, e) in itertools.product(box, repeat=2):
            got = integrate(mul(sigma(a, b, ambient), sigma(c, e, ambient)))
            want = 1 if (c, e) == (ambient - 2 - b, ambient - 2 - a) else 0
            _check(got == want, f"pairing ({a},{b})x({c},{e}) on Gr(2,{ambient})")
            cases += 1
    return f"{cases} basis pairings, N <= {level + 1}"


# ----------------------------------------------------------------- laurent


def building_block_symmetry(level: int) -> str:
    for r in range(0, min(30, 4 * level + 2) + 1):
        p = p_poly(r)
        for e in p.support():
            _check(p.coefficient(-e) == -p.coefficient(e), f"P_{r} at exponent {e}")
    odd = 0
    for r1 in range(0, level + 1):
        for r2 in range(r1, level + 1):
            for r3 in range(r2, level + 1):
                if (r1 + r2 + r3) % 2 == 1:
                    _check(
                        constant_term(p_poly(r1) * p_poly(r2) * p_poly(r3)) == 0,
                        f"odd product P_{r1}P_{r2}P_{r3}",
                    )
                    odd += 1
    for r in range(0, min(20, 3 * level - 1) + 1):
        p = p_poly(r)
        direct = constant_term(p * p)
        paired = sum(p.coefficient(e) * p.coefficient(-e) for e in p.support())
        squared = -sum(p.coefficient(e) ** 2 for e in p.support())
        _check(direct == paired == squared, f"P_{r}^2 constant term")
    return f"antisymmetry to r = {min(30, 4 * level + 2)}, {odd} odd products vanish"


def four_method_agreement(level: int) -> str:
    anchor = count(Genus1Tuple(2, 2, 2, 2))
    _check(
        anchor.agreed and set(anchor.values.values()) == {6},
        f"anchor (2,2,2,2): {anchor.values}",
    )
    tuples = 0
    for degree in range(2, level + 3):
        for quad in on_shell_tuples(degree):
            report = count(Genus1Tuple(*quad))
            _check(report.agreed, f"methods disagree on {quad}: {report.values}")
            value = report.values["laurent"]
            _check(value >= 0, f"negative count on {quad}")
            tuples += 1
    return f"{tuples} tuples through degree {level + 2}, four pipelines identical"


def closed_form_branch_guard(level: int) -> str:
    tuples = boundary = 0
    for degree in range(2, level + 3):
        for quad in on_shell_tuples(degree):
            t = Genus1Tuple(*quad)
            _check(
                count_polynomial(t) == count_laurent(t),
                f"closed form vs constant term on {quad}",
            )
            d1, d2, d3, d4 = t.sorted_desc()
            if d1 - d2 == d3 - d4:
                lo, hi = polynomial_branch_values(t)
                _check(lo == hi, f"branch mismatch on boundary tuple {quad}")
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
    order = 2 * level + 1
    top = max(1, level - 1)
    for t in range(1, top + 1):
        f_t = catalan_power_series(t, order)
        for m in range(0, order + 1):
            _check(
                f_t.coefficient(m) == syt_count(t + m - 1, m),
                f"f_{t} coefficient {m}",
            )
    f_1 = catalan_power_series(1, order)
    for t in range(2, top + 1):
        _check(
            f_1 * catalan_power_series(t - 1, order) == catalan_power_series(t, order),
            f"f_1 * f_{t - 1} != f_{t}",
        )
    s = sqrt_one_minus_4q(30)
    one_minus_4q = TruncatedSeries((Fraction(1), Fraction(-4)), order=30)
    _check(s * s == one_minus_4q, "square root square")
    _check(power_3_2(30) == s * s * s, "3/2 power vs cube of square root")
    lhs = TruncatedSeries((Fraction(-1), Fraction(6)), order=level + 4) + power_3_2(
        level + 4
    )
    for m in range(2, level + 5):
        _check(
            lhs.coefficient(m) == Fraction(12 * catalan(m - 2), m),
            f"weighted generating function coefficient {m}",
        )
    checked = 0
    for n in range(2, 2 * level + 3):
        inv = _inverse_coeffs(n)
        square = {}
        for i in range(1, n):
            for qi, ci in inv[i - 1].items():
                for qj, cj in inv[n - i - 1].items():
                    square[qi + qj] = square.get(qi + qj, 0) + ci * cj
        conv = TruncatedSeries.constant(0, n)
        for j in range(0, n - 1):
            conv = conv + schur_q(j, n) * schur_q(n - 2 - j, n)
        for m in range(0, n + 1):
            _check(
                conv.coefficient(m) == square.get(m, 0),
                f"x^{n} coefficient of the squared inverse at q^{m}",
            )
        bound = n // 2 - 1
        for m, c in square.items():
            _check(c == 0 or m <= bound, f"q-degree of x^{n} coefficient exceeds {bound}")
        checked += 1
    return (
        f"f_t tables t <= {top}, m <= {order}; inverse-square identity "
        f"to x^{2 * level + 2} with q-degree bounds; {checked + 2 * top} identities"
    )


# ----------------------------------------------------------------- duality


def degree_reflection_duality(level: int) -> str:
    n1, n2, flag = duality_check(Genus1Tuple(4, 4, 4, 2))
    _check(flag and n1 == 96, f"anchor (4,4,4,2) vs reflection: {n1}, {n2}")
    tuples = 0
    for degree in range(2, level + 3):
        for quad in on_shell_tuples(degree, min_order=2):
            a, b, flag = duality_check(Genus1Tuple(*quad))
            _check(flag, f"reflection breaks on {quad}: {a} != {b}")
            tuples += 1
    return f"{tuples} tuples through degree {level + 2}, reflection preserves counts"


# --------------------------------------------------------------- recursion


def weighted_recursion_consistency(level: int) -> str:
    tuples = 0
    for degree in range(2, level + 2):
        for quad in on_shell_tuples(degree, max_order=2 * degree - 1):
            t = Genus1Tuple(*quad)
            _check(
                weighted_from_unweighted(t) == weighted_count(t),
                f"weight assembly vs closed form on {quad}",
            )
            _check(
                unweighted_from_weighted(t) == count_laurent(t),
                f"inversion vs constant term on {quad}",
            )
            tuples += 1
    return f"{tuples} tuples with orders to 2*deg-1, degrees 2..{level + 1}"


# ------------------------------------------------------------ degeneration


def genus1_reduction(level: int) -> str:
    problems = 0
    for degree in range(2, level):
        for quad in on_shell_tuples(degree, min_order=2):
            want = count_laurent(Genus1Tuple(*quad))
            for pivot in {0, 3}:
                rest = quad[:pivot] + quad[pivot + 1 :]
                p = RamificationProblem(1, degree, (quad[pivot],), rest)
                _check(
                    genus_g_count(p) == want,
                    f"tail assembly vs direct count on {quad} (pivot {pivot})",
                )
                problems += 1
    return f"{problems} single-tail problems through degree {max(2, level - 1)}"


def total_ramification_family(level: int) -> str:
    for d in range(2, level + 4):
        want = 2 * (d * d - 1)
        _check(
            count_laurent(Genus1Tuple(d, d, 2, 2)) == want,
            f"(d,d,2,2) closed form at d={d}",
        )
        answer, raw, factor = count_with_padding(
            RamificationProblem(1, d, (d,), (d,))
        )
        _check(
            (answer, raw, factor) == (d * d - 1, want, 2),
            f"padded one-moving-point problem at d={d}: {(answer, raw, factor)}",
        )
    return f"degrees 2..{level + 3}, padded counts divide out exactly"


def hyperelliptic_sextuple(level: int) -> str:
    p = RamificationProblem(2, 2, (), (2,) * 6)
    _check(genus_g_count(p) == 720, "six labeled simple points on genus 2")
    _check(genus_g_weighted(p) == 720, "weighted variant of the sextuple")
    answer, raw, factor = count_with_padding(RamificationProblem(2, 2, (), ()))
    _check(
        (answer, raw, factor) == (1, 720, 720),
        f"unique degree-2 pencil after dividing labelings: {(answer, raw, factor)}",
    )
    worked = RamificationProblem(1, 3, (2, 2), (2, 2, 3))
    _check(genus_g_count(worked) == 16, "two fixed points, three moving, degree 3")
    return "720 = 6! labelings of the hyperelliptic branch points; worked example 16"


def _partitions(total: int, max_part: int):
    """Non-increasing partitions of total into parts 1..max_part."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _bounded_tuples(total: int, length: int, max_part: int):
    """Non-increasing length-`length` tuples of ints in 0..max_part summing to total."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, max_part), -1, -1):
        if first * length < total:
            break
        for rest in _bounded_tuples(total - first, length - 1, first):
            yield (first,) + rest


def weighted_consolidation_invariance(level: int) -> str:
    problems = 0
    for g in (1, 2):
        for d in range(2, max(2, level - 2) + 1):
            budget = 2 * d - g - 2
            cap = 2 * d - g - 1
            for fixed_weight in range(1, budget + 1):
                for fparts in _partitions(fixed_weight, fixed_weight):
                    fixed = tuple(part + 1 for part in fparts)
                    for mparts in _bounded_tuples(
                        budget - fixed_weight, 3 * g, cap - 2
                    ):
                        moving = tuple(part + 2 for part in mparts)
                        p = RamificationProblem(g, d, fixed, moving)
                        before = genus_g_weighted(p)
                        after = genus_g_weighted(consolidate_fixed(p))
                        _check(
                            before == after >= 0,
                            f"consolidation changes {p}: {before} -> {after}",
                        )
                        problems += 1
    return f"{problems} problems with g <= 2, d <= {max(2, level - 2)}"


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
                _check(got == base, f"moving order {perm} changes the count")
                problems += 1
    return f"{problems} relabelings through degree {max(2, level - 1)}"


# ------------------------------------------------------------------ runner


_REGISTRY: dict[str, tuple] = {
    "sigma1_powers_match_tableau_counts": (sigma1_powers_match_tableau_counts, "schubert"),
    "sigma1_top_power_is_catalan": (sigma1_top_power_is_catalan, "schubert"),
    "fourfold_closed_form_matches_engine": (fourfold_closed_form_matches_engine, "schubert"),
    "special_quadratic_integral_matches_engine": (
        special_quadratic_integral_matches_engine,
        "schubert",
    ),
    "basis_duality": (basis_duality, "schubert"),
    "building_block_symmetry": (building_block_symmetry, "laurent"),
    "four_method_agreement": (four_method_agreement, "laurent"),
    "closed_form_branch_guard": (closed_form_branch_guard, "laurent"),
    "series_coefficient_identities": (series_coefficient_identities, "laurent"),
    "degree_reflection_duality": (degree_reflection_duality, "duality"),
    "weighted_recursion_consistency": (weighted_recursion_consistency, "recursion"),
    "genus1_reduction": (genus1_reduction, "degeneration"),
    "total_ramification_family": (total_ramification_family, "degeneration"),
    "hyperelliptic_sextuple": (hyperelliptic_sextuple, "degeneration"),
    "weighted_consolidation_invariance": (
        weighted_consolidation_invariance,
        "degeneration",
    ),
    "label_symmetry": (label_symmetry, "degeneration"),
}

SUITES = ("all", "schubert", "laurent", "duality", "recursion", "degeneration")


def run_property(name: str, level: int) -> PropertyResult:
    func = _REGISTRY[name][0]
    start = time.perf_counter()
    try:
        detail = func(level)
        passed = True
    except Exception as exc:  # report, never crash the suite
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = int(1000 * (time.perf_counter() - start))
    return PropertyResult(name, passed, detail, elapsed)


def _run_pair(pair: tuple[str, int]) -> PropertyResult:
    return run_property(*pair)


def run_suite(suite: str = "all", level: int = 7, jobs: int = 1) -> list[PropertyResult]:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if level < 2:
        raise DomainError(f"verification level must be >= 2, got {level}")
    names = [
        name
        for name, (_, group) in _REGISTRY.items()
        if suite == "all" or group == suite
    ]
    if "four_method_agreement" in names and level + 2 > MAX_SERIES_DEGREE:
        raise DomainError(
            f"verification level {level} runs four_method_agreement to degree "
            f"{level + 2}, above the series bound {MAX_SERIES_DEGREE}"
        )
    return map_jobs(_run_pair, [(name, level) for name in names], jobs)
