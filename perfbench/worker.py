"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

The pass imports pencils from the checkout's ``src``, generates the
inputs and notes the monotonic clock: that is the end of set-up.  Then
it runs every operation once, closed loop, timing each one, checks every
answer exactly, and prints one JSON object.  ``setup`` mode stops after
set-up and a few calibration chunks; ``calibrated`` mode samples the
calibration chunk while the operations run; ``untraced`` mode runs them
bare, and ``traced`` mode under the span tracer.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The machine's speed drifts by up to a factor 1.8 from one half-minute to
# the next, so a pass also times a fixed pure-Python calibration chunk
# every CAL_INTERVAL_S, from a timer signal that interrupts the
# operations; the chunks' time is taken out of the operations' times.  A
# pass also times SETUP_CHUNKS of them once set-up is done, and as many
# after its operations.
CAL_INTERVAL_S = 0.05
CAL_REPS = 15
SETUP_CHUNKS = 5


def _calibration_chunk() -> float:
    """Time a fixed piece of dict and integer work, about 2 ms."""
    start = time.perf_counter()
    for _ in range(CAL_REPS):
        out: dict[int, int] = {}
        for e1 in range(-24, 25, 2):
            for e2 in range(-24, 25, 2):
                out[e1 + e2] = out.get(e1 + e2, 0) + e1 * e2
    return time.perf_counter() - start


def _import_pencils() -> None:
    sys.path.insert(0, str(SRC))
    import pencils

    if Path(pencils.__file__).resolve().parent != SRC / "pencils":
        raise SystemExit(f"imported pencils from {pencils.__file__}, not from {SRC}")


def run_pass(workload: str, seed: int, mode: str, limit: int | None = None) -> dict:
    """One pass; ``limit`` keeps only the first operations (for self-tests)."""
    _import_pencils()
    sys.path.insert(0, str(HERE))
    import workloads

    ops = workloads.build_ops(workload, seed)[:limit]
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    # chunks right after set-up calibrate it, and with more chunks after the
    # operations, a pass's total time
    chunks = [_calibration_chunk() for _ in range(SETUP_CHUNKS)]
    if mode == "setup":
        return {"ready": ready, "setup_chunk_s": statistics.median(chunks)}

    tracer = None
    if mode == "traced":
        from spans import Tracer

        with Tracer() as tracer:
            starts, latencies, samples, results = _run_ops(ops, tracer.root, False)
    else:
        starts, latencies, samples, results = _run_ops(
            ops, lambda fn: fn, mode == "calibrated"
        )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    chunks += [_calibration_chunk() for _ in range(SETUP_CHUNKS)]
    layers = tracer.summary() if tracer else None

    failed = [op.label for op, r in zip(ops, results) if not _passes(op, r)]
    out = {
        "ready": ready,
        "wall_s": sum(latencies),
        "starts_s": starts,
        "latencies_s": latencies,
        "calibration_s": samples,
        "pass_chunk_s": statistics.median(chunks),
        "peak_rss_kb": rss_kb,
        "attempted": len(ops),
        "failed": failed,
        "layers": layers,
    }
    if workload == "verify-gate" and not failed:
        out["properties_s"] = {
            prop["name"]: prop["elapsed_ms"] / 1000
            for r in results
            for prop in workloads.verify_record(r)["properties"]
        }
    return out


class _Sampler:
    """Times a calibration chunk on every tick of the interval timer; an
    inactive sampler takes no samples."""

    def __init__(self, active: bool) -> None:
        self.active = active
        self.samples: list[tuple[float, float]] = []  # (start, chunk time)
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, _calibration_chunk()))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "_Sampler":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


class _Raised:
    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def _run_ops(ops, wrap, calibrate: bool) -> tuple[list[float], list[float], list, list]:
    """Run each operation once, under the calibration sampler if asked;
    returns the operations' start times and latencies (chunks excluded),
    the calibration samples and the results."""
    starts, latencies, results = [], [], []
    clock = time.perf_counter
    with _Sampler(calibrate) as sampler:
        for op in ops:
            call = wrap(op.call)
            spent = sampler.spent
            start = clock()
            try:
                result = call()
            except Exception as exc:  # a raising op is a failed op, not a crash
                result = _Raised(exc)
            latencies.append(clock() - start - (sampler.spent - spent))
            starts.append(start)
            results.append(result)
    return starts, latencies, sampler.samples, results


def _passes(op, result) -> bool:
    if isinstance(result, _Raised):
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a check that cannot read the result fails the op
        return False


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "calibrated", "untraced", "traced"), required=True
    )
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.mode)))


if __name__ == "__main__":
    main()
