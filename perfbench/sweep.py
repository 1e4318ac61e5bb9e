"""Run the benchmark over many seeds and summarize, optionally appending
the summary to the trajectory.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1        # each workload once, and traced
    python3 perfbench/sweep.py --seeds 1-10 --label "before X" \\
        --trajectory perfbench/trajectory.json

Every run lasts run_seconds of BENCHMARK.json.  For each workload it
makes one untraced run per seed and reports, per end-to-end metric, the
median, the quartiles (``statistics.quantiles`` with n=4) and the
spread: the distance between the quartiles as a share of the median.  A
spread at or above the metric's bound in BENCHMARK.json is flagged,
except for ``setup_s``.  Then it makes one traced run per
workload on the first seed, for the per-layer metrics and the tracing
overhead.  Runs are made one after another, never in parallel.  A run
that fails, by a wrong answer or otherwise, stops the sweep with exit
code 1, as does a spread at or above its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{int(traced)}.json"
    result["env"] = json.loads(record.read_text())["env"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--trajectory", type=Path, default=None,
                        help="JSON list to append this sweep's summary to")
    parser.add_argument("--label", default="", help="what was measured, for the trajectory")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    entry = {
        "label": args.label,
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
        "loadavg": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, traced=False) for seed in seeds]
        entry["loadavg"][workload] = [
            [r["env"]["start"]["loadavg"][0], r["env"]["end"]["loadavg"][0]] for r in runs
        ]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            # quartiles need two values; one seed has no spread
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = ""
            if name != "setup_s" and spread >= bound:
                flag, steady = "  SPREAD AT OR ABOVE BOUND", False
            elif name != "setup_s" and spread >= bound / 3:
                flag = "  (above a third of the bound)"
            print(f"{workload} {name}: median {median:.6g} {units[name]}, q1 {q1:.6g}, "
                  f"q3 {q3:.6g}, spread {spread:.3f}, bound {bound}{flag}", flush=True)
        entry["end_to_end"][workload] = summary
        traced = _run(workload, seeds[0], seconds, traced=True)
        entry["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload} trace.overhead_s: "
              f"{entry['per_layer'][workload]['trace.overhead_s']:.6g} s", flush=True)

    if args.trajectory:
        trajectory = json.loads(args.trajectory.read_text()) if args.trajectory.exists() else []
        trajectory.append(entry)
        args.trajectory.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
