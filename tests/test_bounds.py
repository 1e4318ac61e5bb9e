"""Every public count and CLI subcommand refuses one step past its
documented bound, before any arithmetic, with the exact message.

Each row names an entry point, the bounded quantity's bound, the
arithmetic a refusal must not reach and the message one step past it.  At
the bound a hook on that arithmetic fires, which shows the input was
admitted; one step past it a ``DomainError`` (exit 1 from the CLI) carries
the exact text, the hook never ran and every package memo is still empty.
"""

from collections.abc import Callable
from dataclasses import dataclass

import pytest

from pencils import cli, degeneration, genus1, verify
from pencils.cli import MAX_TABLE_DEGREE, main
from pencils.degeneration import (
    MAX_DEGENERATION_DEGREE,
    MAX_GENUS,
    RamificationProblem,
    count_with_padding,
    distributions,
    genus_g_count,
    genus_g_weighted,
)
from pencils.errors import DomainError
from pencils.genus1 import (
    MAX_ANSWER_DEGREE,
    MAX_ASSEMBLY_DEGREE,
    MAX_INVERSION_DEGREE,
    MAX_LAURENT_DEGREE,
    MAX_SCHUBERT_DEGREE,
    MAX_SERIES_DEGREE,
    METHODS,
    Genus1Tuple,
    count,
    count_laurent,
    count_schubert,
    count_series,
    unweighted_from_weighted,
    weighted_count,
    weighted_fixed_first,
    weighted_from_unweighted,
)
from pencils.verify import MAX_VERIFY_LEVEL, SUITES, run_suite


class Reached(Exception):
    """Raised by a hook: the arithmetic behind a bound ran."""


@dataclass(frozen=True)
class Row:
    name: str
    bound: int
    hooks: tuple  # (namespace, attribute); a dict namespace is patched by key
    message: str  # with {past} and {bound}
    call: Callable[[int], object] | None = None  # a library entry point
    argv: Callable[[int], list] | None = None  # or a CLI command line


def _balanced(degree: int) -> Genus1Tuple:
    """Four orders as equal as the degree allows."""
    q, r = divmod(2 * degree + 4, 4)
    return Genus1Tuple(*((q + 1,) * r + (q,) * (4 - r)))


def _simple_fixed(g: int, d: int) -> tuple[int, ...]:
    """Simple fixed points that put a genus-g problem of degree d on shell;
    at genus 0 they are its slowest shape."""
    return (2,) * (2 * d - g - 2)


def _ram(orders) -> str:
    return ",".join(map(str, orders))


def _genusg_argv(g: int, d: int, *extra: str) -> list:
    return ["genusg", "--genus", str(g), "--degree", str(d), "--fixed", _ram(_simple_fixed(g, d)),
            *extra]


PIPELINES = tuple((METHODS, name) for name in METHODS)
FIXED_CLASSES = ((degeneration, "unit"), (degeneration, "sigma1_power"))
PIPELINE_BOUNDS = {
    "series": MAX_SERIES_DEGREE, "schubert": MAX_SCHUBERT_DEGREE, "laurent": MAX_LAURENT_DEGREE,
}
# the messages; a row fills in its names, the test {past} and {bound}
PIPELINE = ("count_{pipeline}: degree {{past}} exceeds the bound {{bound}} "
            "on the {pipeline} pipeline")
ANSWER = "{what}: degree {{past}} exceeds the bound {{bound}} on counts that grow as 4^degree"
DEGENERATION = ("{what}: degree {{past}} exceeds the bound {{bound}} "
                "on the degeneration at genus {g}")
GENUS = ("{what}: genus {{past}} exceeds the bound {{bound}} "
         "on the (3*genus)!/6^genus enumeration")
RECURSION = "{what}: degree {{past}} exceeds the bound {{bound}} on the recursion"
LEVEL = "run_suite: verification level {past} exceeds the bound {bound} on the verify suites"

ROWS = [
    Row("count_series", MAX_SERIES_DEGREE, ((genus1, "n_via_series"),),
        PIPELINE.format(pipeline="series"), call=lambda n: count_series(_balanced(n))),
    Row("count_schubert", MAX_SCHUBERT_DEGREE, ((genus1, "_schubert_half"),),
        PIPELINE.format(pipeline="schubert"), call=lambda n: count_schubert(_balanced(n))),
    Row("count_laurent", MAX_LAURENT_DEGREE, ((genus1, "_paired_blocks"),),
        PIPELINE.format(pipeline="laurent"), call=lambda n: count_laurent(_balanced(n))),
    # count checks the tightest selected bound before any pipeline runs
    *(
        Row(f"count[{','.join(methods or ('all',))}]", PIPELINE_BOUNDS[tightest], PIPELINES,
            PIPELINE.format(pipeline=tightest),
            call=lambda n, methods=methods: count(_balanced(n), methods))
        for methods, tightest in (
            (None, "series"),
            (("schubert", "series"), "series"),
            (("laurent", "polynomial", "series"), "series"),
            (("polynomial", "schubert"), "schubert"),
            (("laurent", "schubert"), "schubert"),
            (("polynomial", "laurent"), "laurent"),
        )
    ),
    Row("weighted_from_unweighted", MAX_ASSEMBLY_DEGREE, ((genus1, "_weighted_block"),),
        RECURSION.format(what="weighted_from_unweighted"),
        call=lambda n: weighted_from_unweighted(Genus1Tuple(n, n, 2, 2))),
    Row("unweighted_from_weighted", MAX_INVERSION_DEGREE, ((genus1.math, "comb"),),
        RECURSION.format(what="unweighted_from_weighted"),
        call=lambda n: unweighted_from_weighted(Genus1Tuple(n, n, 2, 2))),
    Row("weighted_count", MAX_ANSWER_DEGREE, ((genus1, "catalan"),),
        ANSWER.format(what="weighted_count"),
        call=lambda n: weighted_count(Genus1Tuple(n, n, 2, 2))),
    Row("weighted_fixed_first", MAX_ANSWER_DEGREE, ((genus1, "binomial"),),
        ANSWER.format(what="weighted_fixed_first"),
        call=lambda n: weighted_fixed_first(Genus1Tuple(2, n, n, 2))),
    # weighted genus 0 is one closed-form class, bounded by the answer alone
    Row("genus_g_weighted[answer]", MAX_ANSWER_DEGREE, FIXED_CLASSES,
        ANSWER.format(what="genus_g_weighted"),
        call=lambda n: genus_g_weighted(RamificationProblem(0, n, (n, n)))),
    *(
        Row(f"{count.__name__}[genus {g}]", MAX_DEGENERATION_DEGREE[g], FIXED_CLASSES,
            DEGENERATION.format(what=count.__name__, g=g),
            call=lambda n, g=g, count=count: count(RamificationProblem(g, n, _simple_fixed(g, n))))
        for count in (genus_g_count, genus_g_weighted)
        for g in MAX_DEGENERATION_DEGREE
        if g or count is genus_g_count
    ),
    *(
        Row(f"{count.__name__}[genus]", MAX_GENUS, FIXED_CLASSES,
            GENUS.format(what=count.__name__),
            call=lambda g, count=count: count(RamificationProblem(g, 7, (13 - g,))))
        for count in (genus_g_count, genus_g_weighted)
    ),
    Row("distributions", MAX_GENUS, ((degeneration, "_extend"),),
        GENUS.format(what="distributions"), call=lambda g: distributions((2,) * (3 * g), g)),
    Row("run_suite", MAX_VERIFY_LEVEL, ((verify, "run_property"),), LEVEL,
        call=lambda n: run_suite("all", level=n)),
    Row("cli genus0", MAX_DEGENERATION_DEGREE[0], FIXED_CLASSES,
        DEGENERATION.format(what="genus_g_count", g=0),
        argv=lambda n: ["genus0", "--degree", str(n), "--ram", _ram(_simple_fixed(0, n))]),
    Row("cli genus1", MAX_SERIES_DEGREE, PIPELINES, PIPELINE.format(pipeline="series"),
        argv=lambda n: ["genus1", "--ram", _ram(_balanced(n).orders())]),
    *(
        Row(f"cli genus1 --method {pipeline}", bound, ((METHODS, pipeline),),
            PIPELINE.format(pipeline=pipeline),
            argv=lambda n, pipeline=pipeline: [
                "genus1", "--ram", _ram(_balanced(n).orders()), "--method", pipeline])
        for pipeline, bound in PIPELINE_BOUNDS.items()
    ),
    Row("cli weighted", MAX_ANSWER_DEGREE, ((genus1, "catalan"),),
        ANSWER.format(what="weighted_count"), argv=lambda n: ["weighted", "--ram", f"{n},{n},2,2"]),
    Row("cli weighted --fixed-first", MAX_ANSWER_DEGREE, ((genus1, "binomial"),),
        ANSWER.format(what="weighted_fixed_first"),
        argv=lambda n: ["weighted", "--ram", f"2,{n},{n},2", "--fixed-first"]),
    Row("cli genusg --weighted[answer]", MAX_ANSWER_DEGREE, FIXED_CLASSES,
        ANSWER.format(what="genus_g_weighted"),
        argv=lambda n: ["genusg", "--genus", "0", "--degree", str(n), "--fixed", f"{n},{n}",
                        "--weighted"]),
    *(
        Row(f"cli {' '.join(('genusg',) + extra)}[genus {g}]", MAX_DEGENERATION_DEGREE[g],
            FIXED_CLASSES, DEGENERATION.format(what=what, g=g),
            argv=lambda n, g=g, extra=extra: _genusg_argv(g, n, *extra))
        for extra, what in (((), "genus_g_count"), (("--weighted",), "genus_g_weighted"))
        for g in MAX_DEGENERATION_DEGREE
        if g or not extra
    ),
    *(
        Row(f"cli {' '.join(('genusg',) + extra)}[genus]", MAX_GENUS, FIXED_CLASSES,
            GENUS.format(what=what),
            argv=lambda g, extra=extra: [
                "genusg", "--genus", str(g), "--degree", "7", "--fixed", str(13 - g), *extra])
        for extra, what in (((), "genus_g_count"), (("--weighted",), "genus_g_weighted"))
    ),
    *(
        Row(f"cli {' '.join(('table',) + extra)}", MAX_TABLE_DEGREE, ((cli, "on_shell_tuples"),),
            "table: degree {past} exceeds the bound {bound} on tables",
            argv=lambda n, extra=extra: ["table", "--degree", str(n), *extra])
        for extra in ((), ("--ordered",))
    ),
    Row("cli verify", MAX_VERIFY_LEVEL, ((verify, "run_property"),), LEVEL,
        argv=lambda n: ["verify", "--max-degree", str(n)]),
    # one fixed and three moving orders up to the degree: the reflection is a problem too
    Row("cli dualprobe", MAX_DEGENERATION_DEGREE[1], FIXED_CLASSES,
        DEGENERATION.format(what="genus_g_count", g=1),
        argv=lambda n: ["dualprobe", "--genus", "1", "--degree", str(n),
                        "--fixed", _ram(_balanced(n).orders()[:1]),
                        "--moving", _ram(_balanced(n).orders()[1:])]),
]


def _hook(monkeypatch, hooks) -> list:
    """Replace each hooked name by one that records its call and raises."""
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise Reached

    for owner, name in hooks:
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, never)
        else:
            monkeypatch.setattr(owner, name, never)
    return calls


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_refuses_one_step_past_its_bound(row, monkeypatch, capsys, package_memos, fresh_memos):
    calls = _hook(monkeypatch, row.hooks)
    message = row.message.format(past=row.bound + 1, bound=row.bound)
    if row.argv:
        assert main(row.argv(row.bound + 1)) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    else:
        with pytest.raises(DomainError) as info:
            row.call(row.bound + 1)
        assert str(info.value) == message
    assert calls == []
    assert [memo for memos in package_memos.values() for memo in memos
            if memo.cache_info().currsize] == []
    with pytest.raises(Reached):
        main(row.argv(row.bound)) if row.argv else row.call(row.bound)
    assert len(calls) == 1


def test_every_entry_point_has_a_row():
    names = {row.name.split("[")[0] for row in ROWS}
    assert names >= {
        "count_series", "count_schubert", "count_laurent", "weighted_from_unweighted",
        "unweighted_from_weighted", "weighted_count", "weighted_fixed_first", "genus_g_count",
        "genus_g_weighted", "distributions", "run_suite",
    }
    assert {name.split()[1] for name in names if name.startswith("cli ")} == set(cli._SUBCOMMANDS)
    assert set(MAX_DEGENERATION_DEGREE) == set(range(MAX_GENUS + 1))


def test_the_degeneration_checks_the_answer_then_the_genus_then_its_degree(monkeypatch, capsys):
    calls = _hook(monkeypatch, FIXED_CLASSES)
    argv = ["genusg", "--genus", "1", "--degree", "7500", "--fixed", "7500", "--moving", "7500",
            "--weighted"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: genus_g_weighted: degree 7500 exceeds the bound {MAX_ANSWER_DEGREE} "
        "on counts that grow as 4^degree\n"
    )
    # unweighted, every degree bound of a genus is below the answer's, checked first
    with pytest.raises(DomainError, match=f"^genus_g_count: degree 6001 exceeds the bound "
                                          f"{MAX_ANSWER_DEGREE} on counts that grow"):
        count_with_padding(RamificationProblem(0, 6001, (6001, 6001)))
    # a genus past MAX_GENUS has no degree bound to look up
    message = f"^genus_g_count: genus 40 exceeds the bound {MAX_GENUS} "
    with pytest.raises(DomainError, match=message):
        count_with_padding(RamificationProblem(40, 42, (43,)))
    assert calls == []


def test_every_suite_is_refused_past_the_level_bound_and_admitted_at_it(monkeypatch):
    calls = _hook(monkeypatch, ((verify, "run_property"),))
    for suite in SUITES:
        with pytest.raises(DomainError, match=f"level {MAX_VERIFY_LEVEL + 1} exceeds the bound"):
            run_suite(suite, level=MAX_VERIFY_LEVEL + 1)
        assert calls == []
    for suite in SUITES:
        with pytest.raises(Reached):
            run_suite(suite, level=MAX_VERIFY_LEVEL)
    assert len(calls) == len(SUITES)


def test_the_verify_suites_at_their_bound_stay_inside_the_count_bounds():
    # four_method_agreement reaches degree level + 2 through the series; the
    # degeneration sweeps count genus 0 to 3 up to degree level + 3
    assert 9 <= MAX_VERIFY_LEVEL < MAX_SERIES_DEGREE - 2
    assert min(PIPELINE_BOUNDS.values()) >= 30  # every pipeline counts the degree-30 tuples
    assert min(MAX_DEGENERATION_DEGREE[g] for g in range(4)) > MAX_VERIFY_LEVEL + 3


def test_the_degeneration_counts_at_its_degree_bounds():
    # two total fixed points and simple moving ones: cheap up to genus 3
    for g in range(4):
        top = MAX_DEGENERATION_DEGREE[g]
        at_top = RamificationProblem(g, top, (top, top - g))
        assert genus_g_count(at_top) > 0, g
        assert genus_g_weighted(at_top) > 0, g
