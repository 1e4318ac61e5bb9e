"""Self-tests of the benchmark: inputs, answer checks, tracer and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, find_bindings  # noqa: E402


def fresh_pass(workload: str, mode: str, limit: int) -> dict:
    """A pass over the first operations, in a fresh interpreter."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import worker; "
        "print(json.dumps(worker.run_pass(sys.argv[2], 1, sys.argv[3], limit=int(sys.argv[4]))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), workload, mode, str(limit)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == [] and out["attempted"] == limit
    return out


def traced_pass(workload: str, limit: int) -> dict:
    return fresh_pass(workload, "traced", limit)["layers"]


@pytest.mark.parametrize("sample", [workloads.genus1_sample, workloads.genusg_sample])
def test_inputs_deterministic_per_seed_and_differ_between_seeds(sample):
    assert sample(7) == sample(7)
    assert sample(7) != sample(8)
    assert len(set(sample(7))) == len(sample(7))


def test_genus1_sample_is_on_shell_and_spans_balanced_to_skewed():
    sample = workloads.genus1_sample(3)
    assert len(sample) >= 200
    for t in sample:
        degree = (sum(t) - 4) // 2
        assert list(t) == sorted(t, reverse=True) and 2 <= t[3] and t[0] <= degree
    at30 = [t for t in sample if sum(t) == 64]
    pool = workloads.genus1_pool(30)
    assert min(map(workloads.skew, at30)) < sorted(map(workloads.skew, pool))[len(pool) // 8]
    assert max(map(workloads.skew, at30)) > sorted(map(workloads.skew, pool))[-len(pool) // 8]


def test_genusg_sample_is_on_shell_and_mixes_genera():
    sample = workloads.genusg_sample(3)
    assert 2 * len(sample) >= 200
    assert {g for g, *_ in sample} == {1, 2, 3}
    for g, d, fixed, moving in sample:
        imposed = sum(o - 1 for o in fixed) + sum(o - 2 for o in moving)
        assert imposed == 2 * d - g - 2 and len(moving) <= 3 * g


def test_every_pool_problem_has_a_recorded_answer():
    genus1 = workloads.load_genus1_answers()
    pool1 = {t for d in workloads.GENUS1_DEGREES for t in workloads.genus1_pool(d)}
    assert set(genus1) == pool1
    genusg = workloads.load_genusg_answers()
    poolg = {
        workloads.problem_key(p)
        for g, degrees in workloads.GENUSG_DEGREES.items()
        for d in degrees
        for p in workloads.genusg_pool(g, d)
    }
    assert set(genusg) == poolg


def test_checks_reject_wrong_answers():
    from pencils.genus1 import CountReport

    g1 = workloads.build_ops("genus1-all", 1)[0]
    report = g1.call()
    assert g1.check(report)
    wrong = {name: value + 1 for name, value in report.values.items()}
    assert not g1.check(CountReport(report.tuple, wrong, True))
    gg = workloads.build_ops("genusg-mix", 1)[0]
    answer, raw, factor = gg.call()
    assert gg.check((answer, raw, factor))
    assert not gg.check((answer + 1, (answer + 1) * factor, factor))
    assert workloads.verify_record((2, "{}")) is None


def test_wrapped_functions_return_same_values_and_are_restored():
    from pencils import degeneration, genus1

    t = genus1.Genus1Tuple(6, 5, 4, 3)
    p = degeneration.RamificationProblem(2, 4, (3,), (3, 3))
    before = find_bindings()
    plain = (genus1.count(t).values, degeneration.count_with_padding(p, weighted=True))
    with Tracer() as tracer:
        assert genus1.METHODS["laurent"] is not genus1.count_laurent.__wrapped__
        traced = (genus1.count(t).values, degeneration.count_with_padding(p, weighted=True))
    assert traced == plain
    assert tracer.summary()["genus1.count_laurent.calls"] > 0
    for b in before:
        current = getattr(b.owner, b.key) if isinstance(b.owner, type) else b.owner[b.key]
        assert current is b.original
    assert [(b.layer, b.key) for b in find_bindings()] == [(b.layer, b.key) for b in before]


def test_bindings_cover_every_namespace():
    from pencils import genus1

    vias = {b.via for b in find_bindings() if b.layer == "genus1.count_laurent"}
    assert {"genus1", "degeneration", "verify", "cli", "pencils"} <= vias
    mul_vias = {b.via for b in find_bindings() if b.layer == "grassmann.mul"}
    assert {"grassmann", "genus1", "degeneration", "verify"} <= mul_vias
    assert any(b.owner is genus1.METHODS for b in find_bindings())


def test_counts_repeat_and_zero_predictions_hold():
    g1 = [traced_pass("genus1-all", 6) for _ in range(2)]
    gg = [traced_pass("genusg-mix", 30) for _ in range(2)]
    for first, second in (g1, gg):
        for name, value in first.items():
            if run._is_count(name):
                assert second[name] == value, name
    genus1_layers, genusg_layers = g1[0], gg[0]
    assert genus1_layers["qseries.series_mul.calls"] > 0
    assert genus1_layers["grassmann.pieri_mul.calls"] > 0
    for name, value in genus1_layers.items():
        if name.startswith("degeneration."):
            assert value == 0, name
    assert genusg_layers["degeneration.tail_factor.calls"] > 0
    assert genusg_layers["degeneration.distributions.items"] > 0
    for name, value in genusg_layers.items():
        if name.startswith("qseries.") and name.endswith(".calls"):
            assert value == 0, name


def test_calibration_samples_cover_the_operations():
    out = fresh_pass("genus1-all", "calibrated", 30)
    samples = out["calibration_s"]
    assert len(samples) >= 5
    assert out["starts_s"][0] <= samples[-1][0]
    assert samples[0][0] <= out["starts_s"][-1] + out["latencies_s"][-1]
    calibrated = run._calibrated(out)
    assert len(calibrated) == 30 and all(t > 0 for t in calibrated)
    assert fresh_pass("genus1-all", "untraced", 3)["calibration_s"] == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "genus1-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
