"""End-to-end CLI tests driving main() in-process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pencils
from pencils import cli, verify
from pencils.cli import argv_from_query, build_parser, main
from pencils.errors import CrossCheckError, DomainError, IntegralityError
from pencils.genus1 import (
    MAX_ANSWER_DEGREE,
    MAX_LAURENT_DEGREE,
    MAX_SCHUBERT_DEGREE,
    MAX_SERIES_DEGREE,
    Genus1Tuple,
    count_laurent,
    on_shell_tuples,
    weighted_count,
)
from pencils.exactmath import catalan
from pencils.verify import run_suite

from oracles import ordered_on_shell


README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize(
    "degree, orders, code, out, err",
    [
        ("1", "", 1, "", "error: degree must be >= 2, got 1\n"),
        ("3", "3,3", 0, "1\n", ""),
        ("3", "4,2", 0, "0\n", ""),  # an order above the degree counts 0
        ("3", "2,2,2,2", 0, "2\n", ""),
        ("3", "2,2", 1, "", "error: off-shell: conditions impose 2 but pencils of degree 3 "
                            "on a genus-0 curve move in dimension 4\n"),
        ("3", "1,3,2,2", 1, "", "error: order 1 < 2 imposes no condition\n"),
    ],
)
def test_genus0_is_genusg_at_genus_0(degree, orders, code, out, err, capsys):
    direct = run(["genus0", "--degree", degree, "--ram", orders], capsys)
    via = run(["genusg", "--genus", "0", "--degree", degree, "--fixed", orders], capsys)
    assert direct == via == (code, out, err)


def test_readme_examples_print_what_they_say(capsys):
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [
        (line.split("#", 1)[0].split()[1:], line.split("# ->", 1)[1].strip())
        for line in block.splitlines()
        if "# ->" in line
    ]
    # genus1 twice (the second on the closed form's reflected branch), genus0
    # and genusg today
    assert len(examples) >= 4
    for argv, want in examples:
        code, out, _ = run(argv, capsys)
        assert (code, out.splitlines()[0]) == (0, want), argv


def test_readme_library_block_runs():
    block = README.read_text().split("## Library", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})


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
    for args, count in (
        (["--genus", "1", "--degree", "5", "--fixed", "4", "--moving", "4,4,2"], "96"),
        # the reflection anchor beyond genus 1: (2,4,4,4) <-> (3,3,3,5)
        (["--genus", "2", "--degree", "5", "--moving", "2,4,4,4"], "26496"),
    ):
        code, out, _ = run(["dualprobe", *args], capsys)
        assert code == 0
        assert out.splitlines() == [f"original: {count}", f"reflected: {count}", "equal: yes"]
    code, _, err = run(["dualprobe", "--genus", "1", "--degree", "3", "--fixed", "4"], capsys)
    assert code == 1
    assert "below the minimum order 2" in err
    # on-shell (genusg counts it as 16), but its reflection is not: the
    # message must say so rather than quote the reflection's numbers as the input's
    on_shell = ["--genus", "1", "--degree", "3", "--fixed", "2,2", "--moving", "2,2,3"]
    code, out, _ = run(["genusg", *on_shell], capsys)
    assert (code, out) == (0, "16\n")
    code, out, err = run(["dualprobe", *on_shell], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: the reflection d_i -> deg+2-d_i, fixed [3, 3] and moving [3, 3, 2], "
        "is not a valid problem: off-shell: conditions impose 6 "
    )


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


def test_ordered_table_rows_match_their_labeled_counts(capsys):
    for degree in range(2, 9):
        code, out, _ = run(["table", "--degree", str(degree), "--ordered", "--format", "json"],
                           capsys)
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert int(row["count"]) == count_laurent(Genus1Tuple(*row["ram"])), row


def test_ordered_table_counts_each_multiset_once(monkeypatch, capsys, fresh_memos):
    calls = []

    def counted(t):
        calls.append(t)
        return count_laurent(t)

    monkeypatch.setattr(cli, "count_laurent", counted)
    code, out, _ = run(["table", "--degree", "12", "--ordered"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + len(on_shell_tuples(12, ordered=True))
    assert len(calls) == len(on_shell_tuples(12)) == len(set(calls))


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


# the gate's report order, by suite; the benchmark's answer check reads it
SUITE_PROPERTIES = {
    "schubert": (
        "sigma1_powers_match_tableau_counts",
        "sigma1_top_power_is_catalan",
        "fourfold_closed_form_matches_engine",
        "special_quadratic_integral_matches_engine",
        "basis_duality",
    ),
    "laurent": (
        "building_block_symmetry",
        "four_method_agreement",
        "closed_form_branch_guard",
        "series_coefficient_identities",
    ),
    "duality": ("degree_reflection_duality",),
    "recursion": ("weighted_recursion_consistency",),
    "degeneration": (
        "genus1_reduction",
        "total_ramification_family",
        "hyperelliptic_sextuple",
        "weighted_consolidation_invariance",
        "label_symmetry",
    ),
}


def test_suites_report_their_properties_in_order():
    assert verify.SUITES == ("all", *SUITE_PROPERTIES)
    every = tuple(name for names in SUITE_PROPERTIES.values() for name in names)
    assert len(every) == 16
    for suite, want in (("all", every), *SUITE_PROPERTIES.items()):
        results = run_suite(suite, level=2)
        assert tuple(r.name for r in results) == want, suite
        assert all(r.passed for r in results), suite


ROUND_TRIPS = [
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
]


@pytest.mark.parametrize("argv", ROUND_TRIPS)
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


def test_round_trips_rebuild_every_option(capsys):
    # the options each subcommand declares, read off the parser itself
    subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
    declared = {
        (name, flag)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("--format", "-h", "--help")
    }
    rebuilt = set()
    for argv in ROUND_TRIPS:
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        query = json.loads(out)["query"]
        assert set(query) == {"subcommand"} | {
            flag[2:].replace("-", "_") for name, flag in declared if name == argv[0]
        }
        rebuilt |= {(argv[0], a) for a in argv_from_query(query) if a.startswith("--")}
    assert rebuilt == declared


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
        (["table", "--degree", "3", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
        (["verify", "--suite", "schubert", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
        (["genusg", "--genus", "1", "--degree", "3", "--fixed", "0"],
         "--fixed must be positive, got 0"),
        (["dualprobe", "--genus", "1", "--degree", "3", "--moving", "2,y"],
         "--moving must be comma-separated integers, got '2,y'"),
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

    summary, options, _ = cli._SUBCOMMANDS["verify"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "verify", (summary, options, never))
    code, out, err = run(["verify", "--format", "csv"], capsys)
    assert (code, out) == (1, "")
    assert "csv output is only available for the table subcommand" in err


CROSS_CHECK_FAILED = "error: cross-check failed, see output\n"


@pytest.mark.parametrize("extra", [[], ["--method", "all"]])
def test_genus1_disagreement_exits_two(extra, monkeypatch, capsys):
    monkeypatch.setitem(cli.METHODS, "laurent", lambda t: 95)
    argv = ["genus1", "--ram", "3,3,3,3", *extra]
    code, out, err = run(argv, capsys)
    assert (code, err) == (2, CROSS_CHECK_FAILED)
    assert out.splitlines() == [
        "schubert: 96", "laurent: 95", "polynomial: 96", "series: 96", "agreed: no",
    ]
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert (code, err) == (2, CROSS_CHECK_FAILED)
    rec = json.loads(out)
    assert (rec["result"], rec["agreed"]) == (None, False)
    assert rec["methods"]["laurent"] == "95"


def test_failing_verify_property_exits_two(monkeypatch, capsys):
    def broken(level):
        raise CrossCheckError(f"wrong at level {level}")

    monkeypatch.setitem(verify._PROPERTIES, "duality", (broken,))
    argv = ["verify", "--suite", "duality", "--max-degree", "2"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (2, CROSS_CHECK_FAILED)
    assert out.splitlines() == [
        "FAIL broken: CrossCheckError: wrong at level 2", "0/1 properties passed",
    ]
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert (code, err) == (2, CROSS_CHECK_FAILED)
    rec = json.loads(out)
    assert rec["passed"] is False
    assert [(p["name"], p["passed"]) for p in rec["properties"]] == [("broken", False)]


def test_integrality_error_exits_two(monkeypatch, capsys):
    def broken(problem):
        raise IntegralityError("genus_g_count: 7/2 is not an integer")

    monkeypatch.setattr(cli, "genus_g_count", broken)
    for fmt in ("text", "json"):
        code, out, err = run(
            ["genus0", "--degree", "3", "--ram", "2,2,2,2", "--format", fmt], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: genus_g_count: 7/2 is not an integer\n"


def test_series_degree_bound_exits_one(monkeypatch, capsys):
    top = MAX_SERIES_DEGREE
    a = (top + 4) // 2
    ram = f"{a},{a},{top + 3 - a},{top + 3 - a}"  # degree top + 1
    code, out, err = run(["genus1", "--ram", ram], capsys)
    assert (code, out) == (1, "")
    assert f"degree {top + 1} exceeds the bound {top}" in err

    def never(prop, level):
        raise AssertionError("a property ran before the level check")

    monkeypatch.setattr(verify, "run_property", never)
    for suite in ("all", "laurent"):
        code, out, err = run(["verify", "--suite", suite, "--max-degree", str(top - 1)],
                             capsys)
        assert (code, out) == (1, "")
        assert f"level {top - 1} exceeds the bound {verify.MAX_VERIFY_LEVEL}" in err
    # the last admitted level, and suites that never run the series
    monkeypatch.setattr(verify, "run_property", lambda prop, level: prop.__name__)
    for suite in ("laurent", "schubert"):
        assert run_suite(suite, level=verify.MAX_VERIFY_LEVEL) == list(SUITE_PROPERTIES[suite])


def test_genus1_refuses_the_series_bound_before_any_pipeline(monkeypatch, capsys):
    def never(t):
        raise AssertionError("a pipeline ran before the series bound check")

    for name in ("schubert", "laurent", "polynomial"):
        monkeypatch.setitem(cli.METHODS, name, never)
    code, out, err = run(["genus1", "--ram", "1000,1000,1000,1000"], capsys)
    assert (code, out) == (1, "")
    assert f"count_series: degree 1998 exceeds the bound {MAX_SERIES_DEGREE}" in err


@pytest.mark.parametrize(
    "pipeline, top", [("schubert", MAX_SCHUBERT_DEGREE), ("laurent", MAX_LAURENT_DEGREE)]
)
def test_genus1_single_method_degree_bound_exits_one(pipeline, top, monkeypatch, capsys):
    def never(t):
        raise AssertionError("a pipeline ran before its bound check")

    monkeypatch.setitem(cli.METHODS, pipeline, never)
    a = (top + 4) // 2
    ram = f"{a},{a},{top + 3 - a},{top + 3 - a}"  # degree top + 1
    code, out, err = run(["genus1", "--ram", ram, "--method", pipeline], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: count_{pipeline}: degree {top + 1} exceeds the bound {top} "
        f"on the {pipeline} pipeline\n"
    )


def test_verify_level_bound_exits_one(monkeypatch, capsys):
    def never(prop, level):
        raise AssertionError("a property ran before the level check")

    monkeypatch.setattr(verify, "run_property", never)
    top = verify.MAX_VERIFY_LEVEL
    assert 9 <= top < MAX_SERIES_DEGREE - 2
    for suite in verify.SUITES:
        with pytest.raises(DomainError, match=f"level {top + 1} exceeds the bound {top}"):
            run_suite(suite, level=top + 1)
    code, out, err = run(["verify", "--max-degree", "100"], capsys)
    assert (code, out) == (1, "")
    assert f"verification level 100 exceeds the bound {top}" in err


def test_table_degree_bound_exits_one(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the table was built before the degree check")

    monkeypatch.setattr(cli, "on_shell_tuples", never)
    top = cli.MAX_TABLE_DEGREE
    for extra in ([], ["--ordered"]):
        code, out, err = run(["table", "--degree", str(top + 1), *extra], capsys)
        assert (code, out) == (1, "")
        assert f"degree {top + 1} exceeds the bound {top}" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["weighted", "--ram", "7200,7200,2,2"], "weighted_count: degree 7200"),
        (["weighted", "--ram", "2,7201,7201,2", "--fixed-first"],
         "weighted_fixed_first: degree 7201"),
        (["genusg", "--genus", "0", "--degree", "8000", "--fixed", "8000,8000", "--weighted"],
         "genus_g_weighted: degree 8000"),
        (["genusg", "--genus", "1", "--degree", "7500", "--fixed", "7500", "--moving", "7500",
          "--weighted"], "genus_g_weighted: degree 7500"),
    ],
)
def test_answers_past_the_answer_degree_bound_exit_one(argv, what, capsys):
    # each once computed an answer past the 4300 digits Python prints, and died
    # in str() with a ValueError traceback
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: {what} exceeds the bound {MAX_ANSWER_DEGREE} on counts that grow as 4^degree\n"
    )


def test_answers_at_the_answer_degree_bound_print(capsys):
    top = MAX_ANSWER_DEGREE
    code, out, err = run(["weighted", "--ram", f"{top},{top},2,2"], capsys)
    assert (code, out, err) == (0, f"{weighted_count(Genus1Tuple(top, top, 2, 2))}\n", "")
    argv = ["genusg", "--genus", "0", "--degree", str(top), "--fixed", f"{top},{top}", "--weighted"]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (0, f"{catalan(top - 1)}\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["weighted", "--ram", "2000,2000,2,2"],
        ["genusg", "--genus", "0", "--degree", "2000", "--fixed", "2000,2000", "--weighted",
         "--format", "json"],
    ],
)
def test_answers_past_the_int_digit_limit_exit_one(argv, capsys):
    # under the 6000-degree bound, but over a lowered limit on printing an int
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(argv, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err == (
        "error: the answer has more than sys.get_int_max_str_digits() = 640 digits, "
        "Python's limit on printing an int\n"
    )


def test_python_dash_m_runs_the_cli():
    src = str(Path(pencils.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pencils", "genus1", "--ram", "2,2,2,2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "6", "")


def test_import_pencils_leaves_verify_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pencils; "
        "assert 'pencils.verify' not in sys.modules; "
        "assert 'pencils.cli' not in sys.modules; "
        "from pencils.verify import run_suite; "
        "results = run_suite('schubert', level=2); "
        "assert results and all(r.passed for r in results); "
        "print('pencils.verify' in sys.modules)"
    )
    src = str(Path(pencils.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "True"), proc.stderr
