"""Command-line frontend.

Subcommands map onto the computation modules: ``genus0``, ``genus1``,
``weighted``, ``genusg``, ``table``, ``verify``, and ``dualprobe`` (a
no-assertion probe of ``RamificationProblem.reflected``, the degree
reflection, on genus-g problems).
Counts are emitted as decimal strings in machine formats so consumers
without big-integer support survive.

Exit codes: 0 on success, 1 on a domain/validation error (the message
names the violated hypothesis), 2 on an internal cross-check failure —
method disagreement or a failed verification property is never reported
as success.  A reader that closes stdout early (``| head``) gets exit 1
and nothing on stderr, as with SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

from .degeneration import RamificationProblem, count_with_padding, genus_g_count
from .errors import CrossCheckError, DomainError, IntegralityError, require_within
from .genus1 import (
    Genus1Tuple,
    METHODS,
    count,
    count_laurent,
    on_shell_tuples,
    weighted_count,
    weighted_fixed_first,
)
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser", "argv_from_query", "MAX_TABLE_DEGREE"]

# A table runs count_laurent once per on-shell multiset, each block pair built
# once per unordered pair of orders; --ordered adds only the listing of the
# labeled rows, which grows fastest (timings in README's bounds table).
MAX_TABLE_DEGREE = 30


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise DomainError(message)


# A command parses what argparse leaves as text and writes the result back
# into args (order lists, genus1's degree), so the query echoes it.
def _orders(args, name: str) -> tuple[int, ...]:
    text = getattr(args, name)
    try:
        orders = tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise DomainError(
            f"--{name} must be comma-separated integers, got {text!r}"
        ) from None
    for o in orders:
        if o < 1:
            raise DomainError(f"--{name} must be positive, got {o}")
    setattr(args, name, list(orders))
    return orders


def _genus1_tuple(args) -> Genus1Tuple:
    orders = _orders(args, "ram")
    if len(orders) != 4:
        raise DomainError(f"--ram needs exactly four orders, got {len(orders)}")
    return Genus1Tuple(*orders)


def _problem(args) -> RamificationProblem:
    fixed = _orders(args, "fixed")
    return RamificationProblem(args.genus, args.degree, fixed, _orders(args, "moving"))


def _text(answer: int) -> str:
    """Every answer becomes decimal text here, within Python's digit limit."""
    try:
        return str(answer)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DomainError(
            f"the answer has more than sys.get_int_max_str_digits() = "
            f"{sys.get_int_max_str_digits()} digits, Python's limit on printing an int"
        ) from None


def _cmd_genus0(args) -> tuple[dict, int, list[str]]:
    result = _text(genus_g_count(RamificationProblem(0, args.degree, _orders(args, "ram"))))
    return {"result": result}, 0, [result]


def _cmd_genus1(args) -> tuple[dict, int, list[str]]:
    t = _genus1_tuple(args)
    if args.degree is not None and args.degree != t.degree:
        raise DomainError(
            f"--degree {args.degree} contradicts the orders, which force degree {t.degree}"
        )
    args.degree = t.degree
    report = count(t, args.method)
    values = {name: _text(v) for name, v in report.values.items()}
    common = next(iter(values.values())) if report.agreed else None
    record = {"result": common, "methods": values, "agreed": report.agreed}
    lines = []
    if args.method == "all" or not report.agreed:
        lines = [f"{name}: {value}" for name, value in values.items()]
        lines.append("agreed: " + ("yes" if report.agreed else "no"))
    if report.agreed:
        lines.append(common)
    return record, 0 if report.agreed else 2, lines


def _cmd_weighted(args) -> tuple[dict, int, list[str]]:
    t = _genus1_tuple(args)
    result = _text(weighted_fixed_first(t) if args.fixed_first else weighted_count(t))
    return {"result": result}, 0, [result]


def _cmd_genusg(args) -> tuple[dict, int, list[str]]:
    answer, raw, factor = map(_text, count_with_padding(_problem(args), weighted=args.weighted))
    lines = [answer]
    if factor != "1":
        lines.append(f"padded count {raw} divided by {factor}")
    return {"result": answer, "padded": raw, "factor": factor}, 0, lines


def _cmd_table(args) -> tuple[dict, int, list[str]]:
    if args.genus != 1:
        raise DomainError(f"only genus 1 tables are implemented, got genus {args.genus}")
    require_within("table", "degree", args.degree, MAX_TABLE_DEGREE, "tables")
    # the count is symmetric in the four points, so a labeled row reads its multiset's
    counts = {q: _text(count_laurent(Genus1Tuple(*q))) for q in on_shell_tuples(args.degree)}
    rows = [
        (q, counts[tuple(sorted(q, reverse=True))])
        for q in on_shell_tuples(args.degree, ordered=args.ordered)
    ]
    sep = "," if args.format == "csv" else " "
    lines = [sep.join(("d1", "d2", "d3", "d4", "count"))]
    lines += [sep.join(map(str, (*q, c))) for q, c in rows]
    return {"rows": [{"ram": list(q), "count": c} for q, c in rows]}, 0, lines


def _cmd_verify(args) -> tuple[dict, int, list[str]]:
    results = run_suite(args.suite, level=args.max_degree)
    good = sum(r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    lines.append(f"{good}/{len(results)} properties passed")
    record = {"properties": [asdict(r) for r in results], "passed": good == len(results)}
    return record, 0 if record["passed"] else 2, lines


def _cmd_dualprobe(args) -> tuple[dict, int, list[str]]:
    problem = _problem(args)
    reflected = problem.reflected()
    a, b = _text(genus_g_count(problem)), _text(genus_g_count(reflected))
    record = {
        "result": a,
        "reflected": {
            "fixed": list(reflected.fixed),
            "moving": list(reflected.moving),
            "result": b,
        },
        "equal": a == b,
    }
    lines = [f"original: {a}", f"reflected: {b}", "equal: " + ("yes" if a == b else "no")]
    return record, 0, lines


# Every subcommand as (summary, options, handler).  Options are (flag,
# add_argument keywords), in help order after the shared --format:
# build_parser declares them, the JSON query is their parsed values, and
# argv_from_query walks them back.  A handler returns the record body, the
# exit code and the lines of its text output.
_RAM4 = ("--ram", {"required": True, "help": "d1,d2,d3,d4"})
_PROBLEM = (
    ("--genus", {"type": int, "required": True}),
    ("--degree", {"type": int, "required": True}),
    ("--fixed", {"default": "", "help": "comma-separated fixed orders"}),
    ("--moving", {"default": "", "help": "comma-separated moving orders"}),
)
_SUBCOMMANDS = {
    "genus0": ("fixed-ramification count on the line", (
        ("--degree", {"type": int, "required": True}),
        ("--ram", {"required": True, "help": "comma-separated orders"}),
    ), _cmd_genus0),
    "genus1": ("four-orders count on a genus-1 curve", (
        _RAM4,
        ("--method", {
            "choices": tuple(METHODS) + ("all",), "default": None,
            "help": "single pipeline, or 'all' for the per-method breakdown",
        }),
        ("--degree", {
            "type": int, "default": None, "help": "optional; checked against the orders",
        }),
    ), _cmd_genus1),
    "weighted": ("weighted genus-1 counts", (
        _RAM4,
        ("--fixed-first", {"action": "store_true", "help": (
            "exact vanishing (0,d1) at the first point instead of four weighted conditions"
        )}),
    ), _cmd_weighted),
    "genusg": ("degeneration count for any genus", (
        *_PROBLEM, ("--weighted", {"action": "store_true"}),
    ), _cmd_genusg),
    "table": ("all on-shell genus-1 tuples for a degree", (
        ("--genus", {"type": int, "default": 1}),
        ("--degree", {"type": int, "required": True}),
        ("--ordered", {
            "action": "store_true",
            "help": "emit all permutations instead of sorted representatives",
        }),
    ), _cmd_table),
    "verify": ("run the self-verification suites", (
        ("--suite", {"choices": SUITES, "default": "all"}),
        ("--max-degree", {"type": int, "default": 7, "help": (
            "sweep level that scales every property's bounds, not a degree (the gate is 9)"
        )}),
    ), _cmd_verify),
    "dualprobe": (
        "compare a genus-g problem against its degree reflection (no assertion)",
        _PROBLEM, _cmd_dualprobe,
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="pencils", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, (summary, options, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (csv applies to table only)",
        )
        for flag, spec in options:
            p.add_argument(flag, **spec)
    return parser


def argv_from_query(query: dict) -> list[str]:
    """Rebuild an argv that parses back to an equivalent query."""
    sub = query["subcommand"]
    if sub not in _SUBCOMMANDS:
        raise DomainError(f"unknown subcommand in query: {sub!r}")
    argv = [sub]
    for flag, spec in _SUBCOMMANDS[sub][1]:
        value = query.get(flag[2:].replace("-", "_"))
        if spec.get("action") == "store_true":
            argv += [flag] if value else []
        elif value not in (None, "", []):
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [flag, text]
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.subcommand != "table":
            raise DomainError("csv output is only available for the table subcommand")
        start = time.perf_counter()
        body, code, lines = _SUBCOMMANDS[args.subcommand][2](args)
        query = {k: v for k, v in vars(args).items() if k != "format"}
        record = {"query": query, **body}
        record["elapsed_ms"] = int(1000 * (time.perf_counter() - start))
        try:
            print(json.dumps(record, indent=2) if args.format == "json" else "\n".join(lines))
            sys.stdout.flush()
        except BrokenPipeError:
            # Python's SIGPIPE recipe: the flush at exit must not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        if code == 2:
            print("error: cross-check failed, see output", file=sys.stderr)
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CrossCheckError, IntegralityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
