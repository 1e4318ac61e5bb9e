"""Seeded inputs, operations and exact answer checks for the workloads.

Input generation is plain Python over the benchmark's own enumeration of
on-shell problems; ``pencils`` is imported only to turn the generated
inputs into its argument types and to run the operations.  Expected
answers come from the tables in ``data/``, written once by ``record.py``
for every problem a seed can draw.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"
GENUS1_ANSWERS = DATA / "genus1_answers.txt"
GENUSG_ANSWERS = DATA / "genusg_answers.txt"

WORKLOADS = ("genus1-all", "genusg-mix", "verify-gate")

# genus1-all: tuples drawn per degree, one from each stratum of the pool
GENUS1_DEGREES = range(6, 31)
GENUS1_PER_DEGREE = 8

# genusg-mix: degrees per genus and problems drawn per (genus, degree)
GENUSG_DEGREES = {1: range(3, 11), 2: range(3, 10), 3: range(5, 8)}
GENUSG_PER_DEGREE = {1: 5, 2: 8, 3: 6}

VERIFY_ARGV = ("verify", "--suite", "all", "--max-degree", "9", "--format", "json")
VERIFY_PROPERTIES = (
    "sigma1_powers_match_tableau_counts",
    "sigma1_top_power_is_catalan",
    "fourfold_closed_form_matches_engine",
    "special_quadratic_integral_matches_engine",
    "basis_duality",
    "building_block_symmetry",
    "four_method_agreement",
    "closed_form_branch_guard",
    "series_coefficient_identities",
    "degree_reflection_duality",
    "weighted_recursion_consistency",
    "genus1_reduction",
    "total_ramification_family",
    "hyperelliptic_sextuple",
    "weighted_consolidation_invariance",
    "label_symmetry",
)

Problem = tuple[int, int, tuple[int, ...], tuple[int, ...]]  # g, d, fixed, moving


# ------------------------------------------------------------------ pools


def _parts(total: int, max_part: int, length: int):
    """Non-increasing tuples of at most `length` parts in 1..max_part summing to total."""
    if total == 0:
        yield ()
        return
    if length == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _parts(total - first, first, length - 1):
            yield (first,) + rest


def genus1_pool(degree: int) -> list[tuple[int, int, int, int]]:
    """Sorted on-shell tuples d1 >= d2 >= d3 >= d4 >= 2 with d1 <= degree."""
    total = 2 * degree + 4
    return [
        (d1, d2, d3, total - d1 - d2 - d3)
        for d1 in range(2, degree + 1)
        for d2 in range(2, d1 + 1)
        for d3 in range(2, d2 + 1)
        if 2 <= total - d1 - d2 - d3 <= d3
    ]


def skew(t: tuple[int, int, int, int]) -> int:
    """Sum of squared orders: least for balanced tuples, most for skewed
    ones.  The q-series pipeline's work grows with it."""
    return sum(o * o for o in t)


def tail_options(p: Problem) -> int:
    """Node vanishing sequences summed over every 3-subset of the padded
    moving points: proportional to the tail-factor calls of the
    degeneration, which dominate its work."""
    g, d, _, moving = p
    labels = moving + (2,) * (3 * g - len(moving))
    total = 0
    for triple_sum, count in Counter(map(sum, itertools.combinations(labels, 3))).items():
        s = 2 * d + 4 - triple_sum
        total += count * max(0, min((s - 1) // 2, d - 2) - max(0, s - d) + 1)
    return total


def genusg_pool(g: int, d: int) -> list[Problem]:
    """On-shell problems with one or two fixed points (one at genus 1) and
    at most 3g non-simple moving points, every order in 2..d.

    On-shell: sum(f - 1) over fixed plus sum(m - 2) over moving equals
    2d - g - 2; missing moving points are padded with simple ones.  With
    moving orders at most d <= 2d - g - 1, every problem is inside the
    weighted domain too.
    """
    budget = 2 * d - g - 2
    max_fixed = 1 if g == 1 else 2
    out = []
    for fixed_weight in range(1, budget + 1):
        for fparts in _parts(fixed_weight, d - 1, max_fixed):
            for mparts in _parts(budget - fixed_weight, d - 2, 3 * g):
                fixed = tuple(p + 1 for p in fparts)
                moving = tuple(p + 2 for p in mparts)
                out.append((g, d, fixed, moving))
    return out


def problem_key(p: Problem) -> str:
    g, d, fixed, moving = p
    return f"{g};{d};{','.join(map(str, fixed))};{','.join(map(str, moving))}"


# ----------------------------------------------------------------- samples


def stratified(rng: random.Random, pool: list, k: int, key) -> list:
    """One draw from each of k equal slices of the pool ranked by key.

    Every seed then gets the same mix of light and heavy inputs, so the
    work of a pass varies little between seeds.
    """
    ranked = sorted(pool, key=lambda x: (key(x), x))
    k = min(k, len(ranked))
    return [
        rng.choice(ranked[i * len(ranked) // k : (i + 1) * len(ranked) // k])
        for i in range(k)
    ]


def genus1_sample(seed: int) -> list[tuple[int, int, int, int]]:
    """Distinct tuples, per degree from the most balanced to the most skewed."""
    rng = random.Random(f"genus1-all/{seed}")
    out = []
    for degree in GENUS1_DEGREES:
        out += stratified(rng, genus1_pool(degree), GENUS1_PER_DEGREE, skew)
    rng.shuffle(out)
    return out


def genusg_sample(seed: int) -> list[Problem]:
    """Distinct problems, per (genus, degree) from the fewest tail-factor
    calls to the most."""
    rng = random.Random(f"genusg-mix/{seed}")
    out = []
    for g, degrees in GENUSG_DEGREES.items():
        for d in degrees:
            out += stratified(rng, genusg_pool(g, d), GENUSG_PER_DEGREE[g], tail_options)
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------- ops


@dataclass(frozen=True)
class Op:
    """One timed call into pencils and the exact check of its result.

    ``call`` looks the entry point up on its module at call time, so a
    tracer installed after set-up sees it.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def load_genus1_answers() -> dict[tuple[int, ...], int]:
    answers = {}
    for line in GENUS1_ANSWERS.read_text().splitlines():
        *orders, value = map(int, line.split())
        answers[tuple(orders)] = value
    return answers


def load_genusg_answers() -> dict[str, tuple[int, int]]:
    """Problem key -> (unweighted, weighted) answer."""
    answers = {}
    for line in GENUSG_ANSWERS.read_text().splitlines():
        key, plain, weighted = line.split()
        answers[key] = (int(plain), int(weighted))
    return answers


def _genus1_ops(seed: int) -> list[Op]:
    from pencils import genus1

    answers = {}

    def check(t, report) -> bool:
        if not answers:
            answers.update(load_genus1_answers())
        want = answers.get(t.orders())
        return (
            report.agreed
            and tuple(report.values) == tuple(genus1.METHODS)
            and set(report.values.values()) == {want}
        )

    ops = []
    for orders in genus1_sample(seed):
        t = genus1.Genus1Tuple(*orders)
        ops.append(
            Op(
                f"genus1 {orders}",
                lambda t=t: genus1.count(t),
                lambda report, t=t: check(t, report),
            )
        )
    return ops


def _genusg_ops(seed: int) -> list[Op]:
    from pencils import degeneration, genus1

    answers = {}

    def check(p: Problem, weighted: bool, result) -> bool:
        if not answers:
            answers.update(load_genusg_answers())
        recorded = answers.get(problem_key(p))
        if recorded is None:
            return False
        g, d, fixed, moving = p
        factor = math.factorial(3 * g - len(moving))
        want = recorded[weighted]
        if result != (want, want * factor, factor):
            return False
        if g == 1 and not weighted:
            padded = moving + (2,) * (3 - len(moving))
            direct = genus1.count_laurent(genus1.Genus1Tuple(*fixed, *padded))
            return direct == want * factor
        return True

    ops = []
    for p in genusg_sample(seed):
        problem = degeneration.RamificationProblem(*p)
        for weighted in (False, True):
            ops.append(
                Op(
                    f"genusg {problem_key(p)} weighted={weighted}",
                    lambda q=problem, w=weighted: degeneration.count_with_padding(
                        q, weighted=w
                    ),
                    lambda r, p=p, w=weighted: check(p, w, r),
                )
            )
    return ops


def verify_record(result) -> dict | None:
    """The gate's JSON record if it ran cleanly and passed all properties."""
    code, text = result
    if code != 0:
        return None
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None
    names = tuple(prop["name"] for prop in record["properties"])
    passed = all(prop["passed"] for prop in record["properties"])
    if names != VERIFY_PROPERTIES or not (passed and record["passed"]):
        return None
    return record


def _verify_ops(seed: int) -> list[Op]:
    from pencils import cli  # part of set-up, as for a user of the command

    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(VERIFY_ARGV))
        return code, out.getvalue()

    return [Op("verify", call, lambda r: verify_record(r) is not None)]


def build_ops(workload: str, seed: int) -> list[Op]:
    builders = {
        "genus1-all": _genus1_ops,
        "genusg-mix": _genusg_ops,
        "verify-gate": _verify_ops,
    }
    return builders[workload](seed)
