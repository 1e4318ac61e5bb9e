"""Command-line frontend.

Subcommands map onto the computation modules: ``genus0``, ``genus1``,
``weighted``, ``genusg``, ``table``, ``verify``, and ``dualprobe`` (a
no-assertion probe of the degree reflection on genus-g problems).
Counts are emitted as decimal strings in machine formats so consumers
without big-integer support survive.

Exit codes: 0 on success, 1 on a domain/validation error (the message
names the violated hypothesis), 2 on an internal cross-check failure —
method disagreement or a failed verification property is never reported
as success.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .degeneration import RamificationProblem, count_with_padding, genus0_count
from .errors import CrossCheckError, DomainError, IntegralityError
from .genus1 import (
    Genus1Tuple,
    METHODS,
    count,
    count_laurent,
    on_shell_tuples,
    weighted_count,
    weighted_fixed_first,
)
from .parallel import map_jobs
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser", "argv_from_query", "MAX_TABLE_DEGREE"]

# A table runs count_laurent on every on-shell tuple, at a cost growing like
# deg^4 (deg^5 with --ordered).  On one core of an Intel Xeon server degree
# 30 takes 0.3 s (865 rows) and 5-6 s with --ordered (17,893 rows); degree
# 60 would take 8 s and 135 s, so larger degrees are refused up front.
MAX_TABLE_DEGREE = 30


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise DomainError(message)


def _parse_orders(text: str, what: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None
    for o in orders:
        if o < 1:
            raise DomainError(f"{what} must be positive, got {o}")
    return orders


def build_parser() -> _Parser:
    parser = _Parser(prog="pencils", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (csv applies to table only)",
    )

    p = sub.add_parser("genus0", parents=[fmt], help="fixed-ramification count on the line")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ram", required=True, help="comma-separated orders")

    p = sub.add_parser("genus1", parents=[fmt], help="four-orders count on a genus-1 curve")
    p.add_argument("--ram", required=True, help="d1,d2,d3,d4")
    p.add_argument(
        "--method", choices=tuple(METHODS) + ("all",), default=None,
        help="single pipeline, or 'all' for the per-method breakdown",
    )
    p.add_argument("--degree", type=int, default=None, help="optional; checked against the orders")

    p = sub.add_parser("weighted", parents=[fmt], help="weighted genus-1 counts")
    p.add_argument("--ram", required=True, help="d1,d2,d3,d4")
    p.add_argument(
        "--fixed-first", action="store_true",
        help="exact vanishing (0,d1) at the first point instead of four weighted conditions",
    )

    p = sub.add_parser("genusg", parents=[fmt], help="degeneration count for any genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--fixed", default="", help="comma-separated fixed orders")
    p.add_argument("--moving", default="", help="comma-separated moving orders")
    p.add_argument("--weighted", action="store_true")

    p = sub.add_parser("table", parents=[fmt], help="all on-shell genus-1 tuples for a degree")
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument(
        "--ordered", action="store_true",
        help="emit all permutations instead of sorted representatives",
    )
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("verify", parents=[fmt], help="run the self-verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--max-degree", type=int, default=7, dest="max_degree")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser(
        "dualprobe", parents=[fmt],
        help="compare a genus-g problem against its degree reflection (no assertion)",
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--fixed", default="", help="comma-separated fixed orders")
    p.add_argument("--moving", default="", help="comma-separated moving orders")

    return parser


def argv_from_query(query: dict) -> list[str]:
    """Rebuild an argv that parses back to an equivalent query."""
    sub = query["subcommand"]
    argv = [sub]
    if sub == "genus0":
        argv += ["--degree", str(query["degree"]), "--ram", _join(query["ram"])]
    elif sub == "genus1":
        argv += ["--ram", _join(query["ram"])]
        if query.get("method"):
            argv += ["--method", query["method"]]
        if query.get("degree") is not None:
            argv += ["--degree", str(query["degree"])]
    elif sub == "weighted":
        argv += ["--ram", _join(query["ram"])]
        if query.get("fixed_first"):
            argv.append("--fixed-first")
    elif sub in ("genusg", "dualprobe"):
        argv += ["--genus", str(query["genus"]), "--degree", str(query["degree"])]
        if query.get("fixed"):
            argv += ["--fixed", _join(query["fixed"])]
        if query.get("moving"):
            argv += ["--moving", _join(query["moving"])]
        if sub == "genusg" and query.get("weighted"):
            argv.append("--weighted")
    elif sub == "table":
        argv += ["--genus", str(query["genus"]), "--degree", str(query["degree"])]
        if query.get("ordered"):
            argv.append("--ordered")
    elif sub == "verify":
        argv += ["--suite", query["suite"], "--max-degree", str(query["max_degree"])]
    else:
        raise DomainError(f"unknown subcommand in query: {sub!r}")
    return argv


def _join(orders) -> str:
    return ",".join(str(o) for o in orders)


def _table_row(quad: tuple[int, int, int, int]) -> int:
    return count_laurent(Genus1Tuple(*quad))


def _cmd_genus0(args) -> tuple[dict, int]:
    orders = _parse_orders(args.ram, "--ram")
    value = genus0_count(args.degree, orders)
    record = {
        "query": {"subcommand": "genus0", "degree": args.degree, "ram": list(orders)},
        "result": str(value),
    }
    return record, 0


def _cmd_genus1(args) -> tuple[dict, int]:
    orders = _parse_orders(args.ram, "--ram")
    if len(orders) != 4:
        raise DomainError(f"--ram needs exactly four orders, got {len(orders)}")
    t = Genus1Tuple(*orders)
    if args.degree is not None and args.degree != t.degree:
        raise DomainError(
            f"--degree {args.degree} contradicts the orders, which force degree {t.degree}"
        )
    selector = "all" if args.method in (None, "all") else (args.method,)
    report = count(t, selector)
    values = {name: str(v) for name, v in report.values.items()}
    common = str(next(iter(report.values.values()))) if report.agreed else None
    record = {
        "query": {
            "subcommand": "genus1",
            "ram": list(orders),
            "method": args.method,
            "degree": t.degree,
        },
        "result": common,
        "methods": values,
        "agreed": report.agreed,
    }
    return record, 0 if report.agreed else 2


def _cmd_weighted(args) -> tuple[dict, int]:
    orders = _parse_orders(args.ram, "--ram")
    if len(orders) != 4:
        raise DomainError(f"--ram needs exactly four orders, got {len(orders)}")
    t = Genus1Tuple(*orders)
    value = weighted_fixed_first(t) if args.fixed_first else weighted_count(t)
    record = {
        "query": {
            "subcommand": "weighted",
            "ram": list(orders),
            "fixed_first": bool(args.fixed_first),
        },
        "result": str(value),
    }
    return record, 0


def _cmd_genusg(args) -> tuple[dict, int]:
    fixed = _parse_orders(args.fixed, "--fixed")
    moving = _parse_orders(args.moving, "--moving")
    problem = RamificationProblem(args.genus, args.degree, fixed, moving)
    answer, raw, factor = count_with_padding(problem, weighted=args.weighted)
    record = {
        "query": {
            "subcommand": "genusg",
            "genus": args.genus,
            "degree": args.degree,
            "fixed": list(fixed),
            "moving": list(moving),
            "weighted": bool(args.weighted),
        },
        "result": str(answer),
        "padded": str(raw),
        "factor": str(factor),
    }
    return record, 0


def _cmd_table(args) -> tuple[dict, int]:
    if args.genus != 1:
        raise DomainError(f"only genus 1 tables are implemented, got genus {args.genus}")
    if args.degree > MAX_TABLE_DEGREE:
        raise DomainError(
            f"table: degree {args.degree} exceeds the bound {MAX_TABLE_DEGREE} on tables"
        )
    quads = on_shell_tuples(args.degree, ordered=args.ordered)
    counts = map_jobs(_table_row, quads, args.jobs)
    rows = [
        {"ram": list(q), "count": str(c)} for q, c in sorted(zip(quads, counts))
    ]
    record = {
        "query": {
            "subcommand": "table",
            "genus": args.genus,
            "degree": args.degree,
            "ordered": bool(args.ordered),
        },
        "rows": rows,
    }
    return record, 0


def _cmd_verify(args) -> tuple[dict, int]:
    results = run_suite(args.suite, level=args.max_degree, jobs=args.jobs)
    record = {
        "query": {
            "subcommand": "verify",
            "suite": args.suite,
            "max_degree": args.max_degree,
        },
        "properties": [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_ms": r.elapsed_ms,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return record, 0 if record["passed"] else 2


def _cmd_dualprobe(args) -> tuple[dict, int]:
    fixed = _parse_orders(args.fixed, "--fixed")
    moving = _parse_orders(args.moving, "--moving")
    problem = RamificationProblem(args.genus, args.degree, fixed, moving)
    d = args.degree
    for o in fixed + moving:
        if d + 2 - o < 2:
            raise DomainError(
                f"reflection sends order {o} to {d + 2 - o}, below the minimum order 2"
            )
    reflected = RamificationProblem(
        args.genus,
        d,
        tuple(d + 2 - o for o in fixed),
        tuple(d + 2 - o for o in moving),
    )
    a = count_with_padding(problem)[0]
    b = count_with_padding(reflected)[0]
    record = {
        "query": {
            "subcommand": "dualprobe",
            "genus": args.genus,
            "degree": d,
            "fixed": list(fixed),
            "moving": list(moving),
        },
        "result": str(a),
        "reflected": {
            "fixed": list(reflected.fixed),
            "moving": list(reflected.moving),
            "result": str(b),
        },
        "equal": a == b,
    }
    return record, 0


_COMMANDS = {
    "genus0": _cmd_genus0,
    "genus1": _cmd_genus1,
    "weighted": _cmd_weighted,
    "genusg": _cmd_genusg,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "dualprobe": _cmd_dualprobe,
}


def _emit_text(record: dict, subcommand: str, method: str | None) -> None:
    if subcommand == "table":
        print("d1 d2 d3 d4 count")
        for row in record["rows"]:
            print(" ".join(str(x) for x in row["ram"]), row["count"])
    elif subcommand == "verify":
        for prop in record["properties"]:
            status = "PASS" if prop["passed"] else "FAIL"
            print(f"{status} {prop['name']}: {prop['detail']}")
        total = len(record["properties"])
        good = sum(1 for prop in record["properties"] if prop["passed"])
        print(f"{good}/{total} properties passed")
    elif subcommand == "genus1":
        if method == "all":
            for name, value in record["methods"].items():
                print(f"{name}: {value}")
            print("agreed:", "yes" if record["agreed"] else "no")
        if record["agreed"]:
            print(record["result"])
        elif method != "all":
            for name, value in record["methods"].items():
                print(f"{name}: {value}")
            print("agreed: no")
    elif subcommand == "dualprobe":
        print(f"original: {record['result']}")
        print(f"reflected: {record['reflected']['result']}")
        print("equal:", "yes" if record["equal"] else "no")
    else:
        print(record["result"])
        if subcommand == "genusg" and record["factor"] != "1":
            print(f"padded count {record['padded']} divided by {record['factor']}")


def _emit_csv(record: dict) -> None:
    print("d1,d2,d3,d4,count")
    for row in record["rows"]:
        print(",".join(str(x) for x in row["ram"]) + "," + row["count"])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.subcommand != "table":
            raise DomainError("csv output is only available for the table subcommand")
        start = time.perf_counter()
        record, code = _COMMANDS[args.subcommand](args)
        record["elapsed_ms"] = int(1000 * (time.perf_counter() - start))
        if args.format == "json":
            print(json.dumps(record, indent=2))
        elif args.format == "csv":
            _emit_csv(record)
        else:
            _emit_text(record, args.subcommand, getattr(args, "method", None))
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
