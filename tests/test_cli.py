"""End-to-end CLI tests driving main() in-process."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pencils
from pencils import cli, verify
from pencils.cli import argv_from_query, build_parser, main
from pencils.genus1 import MAX_SERIES_DEGREE
from pencils.parallel import map_jobs
from pencils.verify import run_suite

from oracles import ordered_on_shell


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genus1_plain(capsys):
    code, out, err = run(["genus1", "--ram", "2,2,2,2"], capsys)
    assert (code, out.strip(), err) == (0, "6", "")


def test_genus1_with_degree_check(capsys):
    code, out, _ = run(["genus1", "--ram", "3,3,2,2", "--degree", "3"], capsys)
    assert code == 0 and out.strip() == "16"


def test_genus1_breakdown(capsys):
    code, out, _ = run(["genus1", "--ram", "3,3,3,3", "--method", "all"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2] == "agreed: yes"
    assert lines[-1] == "96"
    for name in ("schubert", "laurent", "polynomial", "series"):
        assert f"{name}: 96" in lines


def test_genus1_single_method(capsys):
    code, out, _ = run(["genus1", "--ram", "3,3,3,3", "--method", "laurent"], capsys)
    assert code == 0 and out.strip() == "96"
    # the tolerant pipeline extends past the common domain
    code, out, _ = run(["genus1", "--ram", "4,2,2,2", "--method", "laurent"], capsys)
    assert code == 0 and out.strip() == "0"


def test_genus1_json(capsys):
    code, out, _ = run(["genus1", "--ram", "3,3,3,3", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["result"] == "96"
    assert rec["agreed"] is True
    assert set(rec["methods"]) == {"schubert", "laurent", "polynomial", "series"}
    assert set(rec["methods"].values()) == {"96"}
    assert rec["query"]["ram"] == [3, 3, 3, 3]
    assert isinstance(rec["elapsed_ms"], int)


def test_weighted(capsys):
    code, out, _ = run(["weighted", "--ram", "4,3,3,2"], capsys)
    assert code == 0 and out.strip() == "72"
    code, out, _ = run(["weighted", "--ram", "4,3,3,2", "--fixed-first"], capsys)
    assert code == 0 and out.strip() == "40"


def test_genus0(capsys):
    code, out, _ = run(["genus0", "--degree", "3", "--ram", "2,2,2,2"], capsys)
    assert code == 0 and out.strip() == "2"


def test_genusg_sextuple(capsys):
    argv = ["genusg", "--genus", "2", "--degree", "2", "--moving", "2,2,2,2,2,2"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.strip() == "720"


def test_genusg_padding_report(capsys):
    argv = ["genusg", "--genus", "1", "--degree", "4", "--fixed", "4", "--moving", "4"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == ["15", "padded count 30 divided by 2"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    rec = json.loads(out)
    assert (rec["result"], rec["padded"], rec["factor"]) == ("15", "30", "2")


def test_dualprobe(capsys):
    argv = [
        "dualprobe", "--genus", "1", "--degree", "5",
        "--fixed", "4", "--moving", "4,4,2",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == ["original: 96", "reflected: 96", "equal: yes"]
    code, _, err = run(["dualprobe", "--genus", "1", "--degree", "3", "--fixed", "4"], capsys)
    assert code == 1
    assert "below the minimum order 2" in err


def test_table_csv(capsys):
    code, out, _ = run(["table", "--degree", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["d1,d2,d3,d4,count", "3,3,2,2,16", "3,3,3,1,0"]


def test_table_rows_match_enumeration(capsys):
    code, out, _ = run(["table", "--degree", "4", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    got = [tuple(row["ram"]) for row in rec["rows"]]
    want = sorted(set(tuple(sorted(q, reverse=True)) for q in ordered_on_shell(4)))
    assert got == want
    by_ram = {tuple(row["ram"]): int(row["count"]) for row in rec["rows"]}
    assert by_ram[(4, 3, 3, 2)] == 40
    assert by_ram[(4, 4, 3, 1)] == 0


def test_table_ordered(capsys):
    code, out, _ = run(["table", "--degree", "3", "--ordered", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    got = [tuple(row["ram"]) for row in rec["rows"]]
    assert got == sorted(ordered_on_shell(3))
    for row in rec["rows"]:
        if sorted(row["ram"], reverse=True) == [3, 3, 2, 2]:
            assert row["count"] == "16"


def test_table_parallel_matches_serial(capsys):
    code, serial, _ = run(["table", "--degree", "3"], capsys)
    assert code == 0
    code, parallel, _ = run(["table", "--degree", "3", "--jobs", "2"], capsys)
    assert code == 0
    assert serial == parallel
    assert serial.splitlines()[0] == "d1 d2 d3 d4 count"


def test_verify_cli(capsys):
    code, out, _ = run(["verify", "--suite", "schubert", "--max-degree", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("properties passed")
    code, out, _ = run(
        ["verify", "--suite", "laurent", "--max-degree", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] is True
    assert rec["query"]["max_degree"] == 2
    assert all(p["passed"] for p in rec["properties"])


@pytest.mark.parametrize(
    "argv",
    [
        ["genus0", "--degree", "3", "--ram", "2,2,2,2"],
        ["genus1", "--ram", "3,3,2,2", "--method", "all"],
        ["genus1", "--ram", "3,3,2,2"],
        ["weighted", "--ram", "4,3,3,2", "--fixed-first"],
        ["weighted", "--ram", "4,3,3,2"],
        ["genusg", "--genus", "1", "--degree", "3", "--fixed", "3", "--moving", "3",
         "--weighted"],
        ["genusg", "--genus", "2", "--degree", "2", "--moving", "2,2,2,2,2,2"],
        ["table", "--degree", "3", "--ordered"],
        ["dualprobe", "--genus", "1", "--degree", "5", "--fixed", "4",
         "--moving", "4,4,2"],
        ["verify", "--suite", "laurent", "--max-degree", "2"],
    ],
)
def test_query_round_trip(argv, capsys):
    def strip_timings(rec):
        rec.pop("elapsed_ms", None)
        for prop in rec.get("properties", ()):
            prop.pop("elapsed_ms", None)
        return rec

    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    first = json.loads(out)
    rebuilt = argv_from_query(first["query"])
    code, out, _ = run(rebuilt + ["--format", "json"], capsys)
    assert code == 0
    second = json.loads(out)
    assert first["query"] == second["query"]
    assert strip_timings(first) == strip_timings(second)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["genus1", "--ram", "3,2,2,2"], "even"),
        (["genus1", "--ram", "2,2,2"], "four orders"),
        (["genus1", "--ram", "2,x,2,2"], "comma-separated integers"),
        (["genus1", "--ram", "2,2,2,0"], "must be positive"),
        (["genus1", "--ram", "3,3,2,2", "--degree", "4"], "contradicts"),
        (["genus1", "--ram", "2,2,2,2", "--format", "csv"],
         "csv output is only available"),
        (["genus1", "--ram", "2,2,2,2", "--bogus"], ""),
        (["genus0", "--degree", "3"], ""),
        (["bogus"], ""),
        (["genusg", "--genus", "1", "--degree", "3", "--fixed", "2", "--moving", "2"],
         "off-shell"),
        (["table", "--degree", "1"], ""),
        (["verify", "--suite", "nope"], ""),
        (["table", "--degree", "3", "--jobs", "0"], "jobs must be >= 1"),
        (["verify", "--suite", "schubert", "--jobs", "-3"], "jobs must be >= 1"),
    ],
)
def test_domain_errors_exit_one(argv, fragment, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:")
    assert fragment in err


def test_parser_builds_and_rejects_bad_query():
    parser = build_parser()
    args = parser.parse_args(["genus1", "--ram", "2,2,2,2"])
    assert args.subcommand == "genus1"
    with pytest.raises(Exception):
        argv_from_query({"subcommand": "nope"})


def test_csv_rejected_before_the_command_runs(monkeypatch, capsys):
    def never(args):
        raise AssertionError("the verify gate ran before the format check")

    monkeypatch.setitem(cli._COMMANDS, "verify", never)
    code, out, err = run(["verify", "--format", "csv"], capsys)
    assert (code, out) == (1, "")
    assert "csv output is only available for the table subcommand" in err


def test_series_degree_bound_exits_one(monkeypatch, capsys):
    top = MAX_SERIES_DEGREE
    a = (top + 4) // 2
    ram = f"{a},{a},{top + 3 - a},{top + 3 - a}"  # degree top + 1
    code, out, err = run(["genus1", "--ram", ram], capsys)
    assert (code, out) == (1, "")
    assert f"degree {top + 1} exceeds the bound {top}" in err

    def never(fn, items, jobs):
        raise AssertionError("a property ran before the level check")

    monkeypatch.setattr(verify, "map_jobs", never)
    for suite in ("all", "laurent"):
        code, out, err = run(["verify", "--suite", suite, "--max-degree", str(top - 1)],
                             capsys)
        assert (code, out) == (1, "")
        assert f"degree {top + 1}, above the series bound {top}" in err
    # the last admitted level, and suites that never run the series
    monkeypatch.setattr(verify, "map_jobs", lambda fn, items, jobs: [])
    assert run_suite("laurent", level=top - 2) == []
    assert run_suite("schubert", level=top - 1) == []


def test_import_pencils_leaves_verify_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pencils; "
        "assert 'pencils.verify' not in sys.modules; "
        "results = pencils.run_suite('schubert', level=2); "
        "assert results and all(r.passed for r in results); "
        "assert pencils.SUITES[0] == 'all' and pencils.PropertyResult; "
        "print('pencils.verify' in sys.modules)"
    )
    src = str(Path(pencils.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "True"), proc.stderr


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class _SerialPool:
    """Stands in for a process pool: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, serial, _ = run(["table", "--degree", "3"], capsys)
    assert code == 0
    code, clamped, _ = run(["table", "--degree", "3", "--jobs", "64"], capsys)
    assert (code, clamped) == (0, serial)
    code, _, _ = run(["verify", "--suite", "schubert", "--max-degree", "2",
                      "--jobs", "64"], capsys)
    assert code == 0
    assert all(r.passed for r in run_suite("schubert", level=2, jobs=64))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    _SerialPool.sizes.clear()
    assert map_jobs(abs, [-1, 2, -3], 64) == [1, 2, 3]
    assert map_jobs(abs, [-1, 2, -3], 2) == [1, 2, 3]
    assert _SerialPool.sizes == [3, 2]
