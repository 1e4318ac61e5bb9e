"""Benchmark of pencils on three workloads, with every answer checked exactly.

    python3 perfbench/run.py --workload genus1-all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each pass is a fresh interpreter
(``worker.py``) that imports pencils from ``src``, generates the seed's
inputs and runs the workload's operation list once, one operation at a
time.  The run repeats passes until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
set-up-only interpreters), the time of the operation list (the sum of
each operation's median over the passes), percentiles of those
per-operation medians, and peak RSS.  Times are calibrated: each is
scaled by how long a fixed calibration chunk, timed next to it, took
against its nominal time, so that the host's drifting speed cancels.  ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of output is one JSON object; a wrong answer makes it report
``"correct": false`` and the exit code 1.  A record of the run, with the
interpreter version, CPU count and load average at start and end, goes
to ``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
from workloads import VERIFY_PROPERTIES, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 12
RUN_DEADLINE_S = 170
# calibrated times are what the pass would take on a machine where the
# worker's calibration chunk takes this long (about its time on the
# 2-vCPU Xeon the benchmark was built on)
NOMINAL_CAL_S = 0.0015
CAL_WINDOW_S = 0.25  # an operation is calibrated by the samples this close to it

END_TO_END = {
    "setup_s": "s",
    "wall_cal_s": "s",
    "latency_p50_cal_ms": "ms",
    "latency_p95_cal_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "grassmann.mul.calls": "count",
    "grassmann.mul.self_s": "s",
    "grassmann.pieri_mul.calls": "count",
    "grassmann.pieri_mul.self_s": "s",
    "grassmann.integrate.calls": "count",
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.p_poly.calls": "count",
    "qseries.n_via_series.calls": "count",
    "qseries.n_via_series.self_s": "s",
    "qseries.series_mul.calls": "count",
    "qseries.series_mul.self_s": "s",
    "genus1.count_schubert.self_s": "s",
    "genus1.count_laurent.calls": "count",
    "genus1.count_laurent.self_s": "s",
    "genus1.count_polynomial.self_s": "s",
    "genus1.count_series.self_s": "s",
    "genus1.weighted_fixed_first.calls": "count",
    "genus1.weighted_fixed_first.self_s": "s",
    "genus1.weighted_from_unweighted.self_s": "s",
    "genus1.unweighted_from_weighted.self_s": "s",
    "exactmath.syt_count.calls": "count",
    "exactmath.as_integer.calls": "count",
    "degeneration.count_with_padding.self_s": "s",
    "degeneration.distributions.items": "count",
    "degeneration.distributions.self_s": "s",
    "degeneration.integrate.calls": "count",
    "degeneration.tail_factor.calls": "count",
    "degeneration.tail_factor.s": "s",
    "degeneration.tail_factor.distinct_ratio": "ratio",
    "degeneration.tail_factor.zero_ratio": "ratio",
    **{f"verify.{name}.s": "s" for name in VERIFY_PROPERTIES},
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class PassError(RuntimeError):
    """A worker that crashed or printed no result: the run cannot report."""


def _spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass of {workload} ran past the run deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(
            f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    if mode == "setup":
        out["setup_cal_s"] = out["setup_s"] * NOMINAL_CAL_S / out["setup_chunk_s"]
    return out


def _calibrated(p: dict) -> list[float]:
    """A pass's operation times scaled to the nominal calibration speed,
    each by the median chunk time of the calibration samples taken during
    it or within CAL_WINDOW_S of it."""
    samples = p["calibration_s"]
    times = [t for t, _ in samples]
    out = []
    for start, lat in zip(p["starts_s"], p["latencies_s"]):
        lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, start + lat + CAL_WINDOW_S)
        out.append(lat * NOMINAL_CAL_S / statistics.median(c for _, c in samples[lo:hi]))
    return out


def _pass_cal_s(p: dict) -> float:
    """A pass's total operation time, calibrated by the chunks around it."""
    return p["wall_s"] * NOMINAL_CAL_S / p["pass_chunk_s"]


def _environment() -> dict:
    return {"loadavg": list(os.getloadavg()), "time": time.time()}


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Set-up-only interpreters, then untraced passes: the end-to-end metrics."""
    begin = time.monotonic()
    setups = [_spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SPAWNS)]
    passes = []
    while not passes or time.monotonic() - begin < seconds:
        passes.append(_spawn(workload, seed, "calibrated", deadline))
    # each operation's median over the passes, so that a burst of load on
    # the machine during one pass does not move the whole list's time
    per_op = [statistics.median(op) for op in zip(*map(_calibrated, passes))]
    metrics = {
        "setup_s": statistics.median(s["setup_cal_s"] for s in setups),
        "wall_cal_s": sum(per_op),
        "latency_p50_cal_ms": 1000 * _percentile(per_op, 50),
        "latency_p95_cal_ms": 1000 * _percentile(per_op, 95),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }
    return {"metrics": metrics, "passes": passes, "setups": setups, "mismatches": []}


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".items", "_ratio")) or name == "trace.spans"


def trace(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Alternating untraced and traced passes (at least one and two): the
    per-layer metrics, and the counts that differ between traced passes."""
    begin = time.monotonic()
    plain, traced = [], []
    while len(traced) < 2 or time.monotonic() - begin < seconds:
        if len(plain) <= len(traced):
            plain.append(_spawn(workload, seed, "untraced", deadline))
        else:
            traced.append(_spawn(workload, seed, "traced", deadline))
    first = traced[0]["layers"]
    mismatches = [
        name
        for name in first
        if _is_count(name) and any(p["layers"][name] != first[name] for p in traced[1:])
    ]
    metrics = {}
    for name in PER_LAYER:
        if name in first:
            values = [p["layers"][name] for p in traced]
            metrics[name] = values[0] if _is_count(name) else statistics.median(values)
    for prop in VERIFY_PROPERTIES:
        values = [p.get("properties_s", {}).get(prop, 0.0) for p in plain]
        metrics[f"verify.{prop}.s"] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(map(_pass_cal_s, traced)) - statistics.median(
        map(_pass_cal_s, plain)
    )
    return {"metrics": metrics, "passes": plain + traced, "setups": [], "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pencils" / "__init__.py").is_file():
        print(f"error: no pencils sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "start": _environment(),
    }
    run, units = (trace, PER_LAYER) if args.trace else (measure, END_TO_END)
    try:
        outcome = run(args.workload, args.seed, args.seconds, deadline)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["end"] = _environment()
    metrics, passes, mismatches = outcome["metrics"], outcome["passes"], outcome["mismatches"]

    attempted = sum(p["attempted"] for p in passes)
    failures = [label for p in passes for label in p["failed"]]
    correct = not failures and not mismatches
    print(
        f"env: python {env['python']}, nproc {env['nproc']}, "
        f"loadavg {env['start']['loadavg']} -> {env['end']['loadavg']}"
    )
    print(f"passes: {len(passes)}, operations per pass: {passes[0]['attempted']}")
    if not args.trace:
        print(f"latency samples: {sum(len(p['latencies_s']) for p in passes)}")
        walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
        cals = ", ".join(
            f"{1000 * statistics.median(c for _, c in p['calibration_s']):.3f}" for p in passes
        )
        print(f"uncalibrated pass times (s): {walls}")
        print(f"calibration chunk per pass (ms, nominal {1000 * NOMINAL_CAL_S}): {cals}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for label in sorted(set(failures)):
        print(f"FAILED: {label}")
    for name in mismatches:
        print(f"COUNT DIFFERS BETWEEN TRACED PASSES: {name}")

    RUNS.mkdir(exist_ok=True)
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(
        json.dumps(
            {"args": vars(args), "env": env, **outcome},
            indent=1,
        )
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
