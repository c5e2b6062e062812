"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` rebinds each layer function named in ``LAYERS`` to a
timing wrapper in every ``amalgam`` module that holds it.  That covers the
names other modules import (``campaigns``, ``algebra`` and ``cli`` import
functions by name) and the module globals a module calls its own functions
through (``compose``, ``graphs``, ``algebra``).  ``uninstall`` puts the
originals back.  No file of the package changes.

Each wrapper call is a span: name, parent, start and end, kept in flat
arrays while the run lasts.  Self time is a span's duration minus the
durations of its direct children.  Counters are derived from the wrapped
calls' arguments and results only, so they repeat exactly for a given
seed.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = {
    "graphs": ("isomorphic", "find_isomorphism", "enumerate_graphs"),
    "compose": (
        "disjoint_copy",
        "merge_relation",
        "equivalence_closure",
        "quotient",
        "compose_disjoint",
        "parallel_compose",
        "parallel_compose_classic",
    ),
    "algebra": ("apply", "evaluate"),
    "serialize": ("parse_lexicon", "parse_graph", "parse_term", "serialize_graph"),
    "campaigns": (
        "check_composition_equivalence",
        "check_algebraic_properties",
        "check_apply_reduction",
    ),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names)
ROOT = "bench"

APPLY_OUTCOMES = (
    "condition_1",
    "condition_2",
    "condition_2a",
    "condition_2b",
    "condition_3",
    "condition_4",
    "defined",
    "error",
)
EXIT_CODES = (0, 1, 2)

COUNTER_METRICS = (
    "graphs.isomorphic.identical_share",
    "graphs.isomorphic.forced_share",
    "graphs.isomorphic.negative_share",
    "compose.equivalence_closure.universe_mean",
    "compose.equivalence_closure.pairs_mean",
    "compose.compose_disjoint.merge_free_share",
    *(f"algebra.apply.outcome.{o}" for o in APPLY_OUTCOMES),
    *(f"cli.exit_code.{c}" for c in EXIT_CODES),
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.self_s", f"{fn}.us_per_call"]
    names.append("graphs.isomorphic.us_p99")
    names += COUNTER_METRICS
    names += [f"{ROOT}.self_s", f"{ROOT}.wall_s", f"{ROOT}.cases_per_s"]
    return names


def iso_path(g, h, max_vertices: int = 64) -> str:
    """Which branch of ``find_isomorphism`` a call with these operands takes.

    Mirrors the checks at the top of ``find_isomorphism``: ``"rejected"``
    (size, label set or clashing sources), ``"identical"``, ``"forced"``
    (the source labels pin every vertex) or ``"search"``.
    """
    n = len(g.base.vertices)
    if n > max_vertices or len(h.base.vertices) > max_vertices:
        return "rejected"
    if n != len(h.base.vertices) or len(g.base.edges) != len(h.base.edges):
        return "rejected"
    if frozenset(g.sources) != frozenset(h.sources):
        return "rejected"
    if g == h:
        return "identical"
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    for label, x in g.sources.items():
        y = h.sources[label]
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return "rejected"
    return "forced" if len(forward) == n else "search"


class Tracer:
    """In-memory spans plus argument- and result-derived counters."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT, *FUNCTIONS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.generator_calls: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def open_root(self) -> None:
        idx = self._open(0)
        self.span_start[idx] = time.perf_counter()

    def close_root(self) -> None:
        idx = self._stack.pop()
        self.span_end[idx] = time.perf_counter()

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        observe = _OBSERVERS.get(name)
        open_span, stack, starts, ends = self._open, self._stack, self.span_start, self.span_end
        clock = time.perf_counter
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            calls = self.generator_calls

            def generator_wrapper(*args, **kwargs):
                # One span per resumption, so time spent between items is
                # the consumer's, not the generator's.
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span(nid)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        starts[idx] = start
                        stack.pop()
                    yield item

            wrapper = generator_wrapper
        else:

            def wrapper(*args, **kwargs):
                idx = open_span(nid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as err:
                    ends[idx] = clock()
                    starts[idx] = start
                    stack.pop()
                    if observe is not None:
                        observe(counts, args, kwargs, None, err)
                    raise
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                if observe is not None:
                    observe(counts, args, kwargs, result, None)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- rebinding --------------------------------------------------------

    def install(self) -> None:
        """Rebind every layer function wherever an amalgam module holds it."""
        for module_name in LAYERS:
            importlib.import_module(f"amalgam.{module_name}")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "amalgam" or key.startswith("amalgam.")
        ]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"amalgam.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[array, array]:
        """Per-span durations and self times, indexed like the span arrays."""
        duration = array("d", (e - s for s, e in zip(self.span_start, self.span_end)))
        children = array("d", bytes(8 * len(duration)))
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                children[p] += duration[i]
        return duration, array("d", (d - c for d, c in zip(duration, children)))

    def summary(self, passes: int, cases: int) -> dict[str, float]:
        """Per-layer metrics; sums and counts are per pass of the workload."""
        duration, own = self.self_times()
        names = self.span_name
        nf = len(self.names)
        spans = [0] * nf
        total = [0.0] * nf
        self_total = [0.0] * nf
        iso_id = self._ids["graphs.isomorphic"]
        iso_durations = array("d")
        for k, d, o in zip(names, duration, own):
            spans[k] += 1
            total[k] += d
            self_total[k] += o
            if k == iso_id:
                iso_durations.append(d)
        out: dict[str, float] = {}
        for fn in FUNCTIONS:
            k = self._ids[fn]
            calls = self.generator_calls[fn] if fn in self.generator_calls else spans[k]
            out[f"{fn}.calls"] = calls / passes
            out[f"{fn}.self_s"] = self_total[k] / passes
            out[f"{fn}.us_per_call"] = 1e6 * total[k] / calls if calls else 0.0
        out["graphs.isomorphic.us_p99"] = 1e6 * percentile(iso_durations, 99)
        c = self.counts
        iso_calls = spans[iso_id]
        closures = spans[self._ids["compose.equivalence_closure"]]
        composes = spans[self._ids["compose.compose_disjoint"]]
        out["graphs.isomorphic.identical_share"] = _share(c["iso.identical"], iso_calls)
        out["graphs.isomorphic.forced_share"] = _share(c["iso.forced"], iso_calls)
        out["graphs.isomorphic.negative_share"] = _share(c["iso.negative"], iso_calls)
        out["compose.equivalence_closure.universe_mean"] = _share(c["closure.universe"], closures)
        out["compose.equivalence_closure.pairs_mean"] = _share(c["closure.pairs"], closures)
        out["compose.compose_disjoint.merge_free_share"] = _share(c["compose.merge_free"], composes)
        for o in APPLY_OUTCOMES:
            out[f"algebra.apply.outcome.{o}"] = c[f"apply.{o}"] / passes
        for code in EXIT_CODES:
            out[f"cli.exit_code.{code}"] = c[f"cli.{code}"] / passes
        wall = total[0]
        out[f"{ROOT}.self_s"] = self_total[0] / passes
        out[f"{ROOT}.wall_s"] = wall / passes
        out[f"{ROOT}.cases_per_s"] = cases / wall if wall else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as one JSON header line naming the layers, then four raw arrays."""
        with path.open("wb") as f:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            f.write(json.dumps(header).encode() + b"\n")
            for a in (self.span_name, self.span_parent, self.span_start, self.span_end):
                a.tofile(f)


def load_spans(path: Path) -> tuple[list[str], array, array, array, array]:
    """Read back what ``Tracer.write`` wrote: names, then the four span arrays."""
    with path.open("rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            a = array(code)
            a.fromfile(f, n)
            arrays.append(a)
    return header["names"], *arrays


def _share(part: float, whole: int) -> float:
    return part / whole if whole else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# -- counters ---------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _observe_isomorphic(counts, args, kwargs, result, err):
    if err is not None:
        return
    g, h = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "h")
    path = iso_path(g, h, kwargs.get("max_vertices", 64))
    if path in ("identical", "forced"):
        counts[f"iso.{path}"] += 1
    if result is False:
        counts["iso.negative"] += 1


def _observe_closure(counts, args, kwargs, result, err):
    pairs = _arg(args, kwargs, 0, "pairs")
    universe = _arg(args, kwargs, 1, "universe")
    if hasattr(pairs, "__len__"):
        counts["closure.pairs"] += len(pairs)
    if hasattr(universe, "__len__"):
        counts["closure.universe"] += len(universe)


def _observe_compose_disjoint(counts, args, kwargs, result, err):
    g, h_prime = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "h_prime")
    if not set(g.sources).intersection(h_prime.sources):
        counts["compose.merge_free"] += 1


def _observe_apply(counts, args, kwargs, result, err):
    if err is not None:
        counts["apply.error"] += 1
    elif hasattr(result, "condition"):
        counts["apply." + result.condition.replace(" ", "_")] += 1
    else:
        counts["apply.defined"] += 1


def _observe_cli(counts, args, kwargs, result, err):
    if err is None:
        counts[f"cli.{result}"] += 1


_OBSERVERS = {
    "graphs.isomorphic": _observe_isomorphic,
    "compose.equivalence_closure": _observe_closure,
    "compose.compose_disjoint": _observe_compose_disjoint,
    "algebra.apply": _observe_apply,
    "cli.main": _observe_cli,
}
