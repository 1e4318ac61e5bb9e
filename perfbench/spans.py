"""Span tracing of pencils' layers from outside the package.

Each traced function is replaced, in every pencils namespace that bound
it by name (module globals, module-level dicts such as ``METHODS``, or
the class for a method), by a wrapper that records a span: which
binding was called, start, end and the enclosing span.  Spans stay in
compact arrays in memory; ``summary`` folds them into per-layer calls,
inclusive and self time once the pass is over.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field

# (home module, attribute path, layer name); a dotted path is a method
TARGETS = (
    ("grassmann", "mul", "grassmann.mul"),
    ("grassmann", "pieri_mul", "grassmann.pieri_mul"),
    ("grassmann", "integrate", "grassmann.integrate"),
    ("laurent", "LaurentPolynomial.__mul__", "laurent.mul"),
    ("laurent", "p_poly", "laurent.p_poly"),
    ("qseries", "n_via_series", "qseries.n_via_series"),
    ("qseries", "TruncatedSeries.__mul__", "qseries.series_mul"),
    ("genus1", "count_schubert", "genus1.count_schubert"),
    ("genus1", "count_laurent", "genus1.count_laurent"),
    ("genus1", "count_polynomial", "genus1.count_polynomial"),
    ("genus1", "count_series", "genus1.count_series"),
    ("genus1", "weighted_fixed_first", "genus1.weighted_fixed_first"),
    ("genus1", "weighted_from_unweighted", "genus1.weighted_from_unweighted"),
    ("genus1", "unweighted_from_weighted", "genus1.unweighted_from_weighted"),
    ("exactmath", "syt_count", "exactmath.syt_count"),
    ("exactmath", "as_integer", "exactmath.as_integer"),
    ("degeneration", "count_with_padding", "degeneration.count_with_padding"),
    ("degeneration", "distributions", "degeneration.distributions"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
)

# genus-1 counts the degeneration evaluates once per tail of a distribution
TAIL_FACTORS = ("genus1.count_laurent", "genus1.weighted_fixed_first")

ROOT = "op"


@dataclass
class Binding:
    layer: str
    via: str  # the pencils module whose namespace holds this binding
    owner: object  # module __dict__, module-level dict, or class
    key: str
    original: object


@dataclass
class _Probe:
    """Argument and result tallies for bindings that need more than time."""

    tail_args: set = field(default_factory=set)
    tail_zeros: int = 0
    distribution_items: int = 0


def _pencils_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "pencils" or name.startswith("pencils."))
    ]


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def find_bindings() -> list[Binding]:
    """Every place in pencils where a traced function is bound by name."""
    for home, _, _ in TARGETS:
        importlib.import_module(f"pencils.{home}")
    modules = _pencils_modules()
    by_name = {mod.__name__: mod for mod in modules}
    bindings = []
    seen = set()

    def bind(layer, via, owner, key, original):
        # a dict imported by name into several modules is patched once
        if (id(owner), key) not in seen:
            seen.add((id(owner), key))
            bindings.append(Binding(layer, via, owner, key, original))

    for home, path, layer in TARGETS:
        cls_name, _, attr = path.rpartition(".")
        home_mod = by_name[f"pencils.{home}"]
        if cls_name:
            cls = getattr(home_mod, cls_name)
            bind(layer, home, cls, attr, cls.__dict__[attr])
            continue
        original = getattr(home_mod, attr)
        for mod in modules:
            via = _short(mod.__name__)
            for key, value in vars(mod).items():
                if value is original:
                    bind(layer, via, vars(mod), key, original)
                elif type(value) is dict:
                    for dkey, dvalue in value.items():
                        if dvalue is original:
                            bind(layer, via, value, dkey, original)
    return bindings


class Tracer:
    """Install with ``with Tracer() as tracer:``; originals come back on exit."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.vias: list[str] = [""]
        self.bindings: list[Binding] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.probe = _Probe()

    # -- recording

    def _wrap(self, fn, name_id: int, after=None):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn):
        """Wrap a harness operation as a root span."""
        return self._wrap(fn, 0)

    def _after_tail(self, layer: str):
        probe = self.probe

        def after(args, result) -> None:
            probe.tail_args.add((layer, args))
            if result == 0:
                probe.tail_zeros += 1

        return after

    def _after_distributions(self, args, result) -> None:
        self.probe.distribution_items += len(result)

    def __enter__(self) -> "Tracer":
        self.bindings = find_bindings()
        for b in self.bindings:
            self.names.append(b.layer)
            self.vias.append(b.via)
            after = None
            if b.via == "degeneration" and b.layer in TAIL_FACTORS:
                after = self._after_tail(b.layer)
            elif b.layer == "degeneration.distributions":
                after = self._after_distributions
            wrapped = self._wrap(b.original, len(self.names) - 1, after)
            if isinstance(b.owner, type):
                setattr(b.owner, b.key, wrapped)
            else:
                b.owner[b.key] = wrapped
        return self

    def __exit__(self, *exc) -> None:
        for b in self.bindings:
            if isinstance(b.owner, type):
                setattr(b.owner, b.key, b.original)
            else:
                b.owner[b.key] = b.original

    # -- folding

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self_s and s, plus the degeneration tallies."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        out: dict[str, float] = {
            f"{layer}.{suffix}": 0
            for _, _, layer in TARGETS
            for suffix in ("calls", "self_s", "s")
        }
        out["degeneration.integrate.calls"] = 0
        out["degeneration.tail_factor.calls"] = 0
        out["degeneration.tail_factor.s"] = 0.0
        for i, name_id in enumerate(self.span_name):
            if name_id == 0:  # harness root span
                continue
            layer, via = self.names[name_id], self.vias[name_id]
            dur = ends[i] - starts[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur - child[i]
            out[f"{layer}.s"] += dur
            if via == "degeneration" and layer == "grassmann.integrate":
                out["degeneration.integrate.calls"] += 1
            elif via == "degeneration" and layer in TAIL_FACTORS:
                out["degeneration.tail_factor.calls"] += 1
                out["degeneration.tail_factor.s"] += dur
        probe, tail_calls = self.probe, out["degeneration.tail_factor.calls"]
        out["degeneration.tail_factor.distinct_ratio"] = (
            len(probe.tail_args) / tail_calls if tail_calls else 0
        )
        out["degeneration.tail_factor.zero_ratio"] = (
            probe.tail_zeros / tail_calls if tail_calls else 0
        )
        out["degeneration.distributions.items"] = probe.distribution_items
        out["trace.spans"] = n
        return out
