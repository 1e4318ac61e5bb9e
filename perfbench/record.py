"""Write the exact answer tables in data/ for every problem a seed can draw.

Run from the repository root:  python3 perfbench/record.py

Genus-1 tuples are recorded only when all four pipelines agree; a
genus-g problem is recorded unweighted and weighted.  The tables pin
the answers of the commit they were recorded at, so a later change that
alters a number fails the benchmark's checks.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from pencils import degeneration, genus1  # noqa: E402


def record_genus1() -> list[str]:
    lines = []
    for degree in workloads.GENUS1_DEGREES:
        for orders in workloads.genus1_pool(degree):
            report = genus1.count(genus1.Genus1Tuple(*orders))
            if not report.agreed:
                raise SystemExit(f"methods disagree on {orders}: {report.values}")
            value = report.values["laurent"]
            lines.append(" ".join(map(str, orders + (value,))))
    return lines


def record_genusg() -> list[str]:
    lines = []
    for g, degrees in workloads.GENUSG_DEGREES.items():
        for d in degrees:
            for p in workloads.genusg_pool(g, d):
                problem = degeneration.RamificationProblem(*p)
                plain = degeneration.count_with_padding(problem)[0]
                weighted = degeneration.count_with_padding(problem, weighted=True)[0]
                lines.append(f"{workloads.problem_key(p)} {plain} {weighted}")
    return lines


def main() -> None:
    workloads.DATA.mkdir(exist_ok=True)
    for path, record in (
        (workloads.GENUSG_ANSWERS, record_genusg),
        (workloads.GENUS1_ANSWERS, record_genus1),
    ):
        lines = record()
        path.write_text("\n".join(lines) + "\n")
        print(f"{len(lines)} answers -> {path}")


if __name__ == "__main__":
    main()
