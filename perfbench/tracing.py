"""Per-layer spans, recorded from outside the program.

``install`` replaces, in memory, the names each sdegree module imported from
another (realize -> core, deciders -> reduction steps, cli -> everything) by
timing wrappers; no file of the package changes.  Spans are aggregated per
name as they close (calls, busy seconds including nested spans, failures)
and written out once, by ``export``, when the worker or CLI process ends.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, failed]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.top_busy = 0.0  # time inside spans that no other span encloses
        self._depth = 0  # spans open now

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(counts, args, result)``
        may add to the counters after each successful call."""
        stat = self.spans.setdefault(name, [0, 0.0, 0])
        counts = self.counts

        def traced(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                stat[0] += 1
                stat[1] += dt
                if not self._depth:
                    self.top_busy += dt
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def fail(self, name: str) -> None:
        """Count a call of ``name`` that returned a wrong answer."""
        self.spans.setdefault(name, [0, 0.0, 0])[2] += 1

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "top_busy": self.top_busy}


class _CountingItertools:
    """Stands in for the ``itertools`` module inside sdegree.oracle and counts
    every labelled graph (slot assignment) the oracle enumerates."""

    def __init__(self, counts) -> None:
        self._counts = counts

    def __getattr__(self, name):
        return getattr(itertools, name)

    def product(self, *iterables, repeat=1):
        seen = 0
        try:
            for item in itertools.product(*iterables, repeat=repeat):
                seen += 1
                yield item
        finally:
            self._counts["oracle.slots_enumerated"] += seen


def _edges_copied(counts, args, result) -> None:
    counts["core.join.edges_copied"] += len(args[0].edges)


def realized_edges(counts, args, result) -> None:
    counts["realize.edges"] += len(result.graph.edges)


def _emitted(counts, args, result) -> None:
    counts["textio.emit.bytes"] += len(result)


def _parsed(counts, args, result) -> None:
    counts["textio.parse.bytes"] += len(args[0])


# Names the CLI module imported, with the span each call is recorded as.
CLI_NAMES = {
    "realize_set": ("realize", realized_edges),
    "emit_graph": ("textio.emit", _emitted),
    "emit_dot": ("textio.emit_dot", None),
    "parse_graph": ("textio.parse", _parsed),
    "signed_degree_set": ("core.query", None),
    "is_connected": ("core.query", None),
    "is_s_graphical_branching": ("sgraphical.branching", None),
    "is_s_graphical_deterministic": ("sgraphical.deterministic", None),
    "is_bipartite_s_graphical": ("bipartite.reduction", None),
    "gale_ryser": ("bipartite.gale_ryser", None),
    "oracle_s_graphical": ("oracle.census", None),
    "oracle_bipartite": ("oracle.census", None),
    "connected_degree_sets": ("oracle.enumerate", None),
}


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap the calls between sdegree modules; with ``cli``, also every name
    the CLI module calls into."""
    from sdegree import bipartite, core, oracle, realize, sgraphical

    realize.join_all_positive = tracer.wrap("core.join", realize.join_all_positive, _edges_copied)
    for name in ("signed_degree_set", "is_connected", "signed_degree_sequences"):
        setattr(realize, name, tracer.wrap("realize.selfcheck", getattr(realize, name)))
    graph = core.SignedBipartiteGraph
    graph.__post_init__ = tracer.wrap("core.verify", graph.__post_init__)
    sgraphical.normalize_standard = tracer.wrap("sgraphical.normalize", sgraphical.normalize_standard)
    sgraphical.reduce_hakimi = tracer.wrap("sgraphical.reduce_hakimi", sgraphical.reduce_hakimi)
    sgraphical.choose_m = tracer.wrap("sgraphical.choose_m", sgraphical.choose_m)
    bipartite.reduce_pair = tracer.wrap("bipartite.reduce_pair", bipartite.reduce_pair)
    oracle.itertools = _CountingItertools(tracer.counts)
    if cli:
        from sdegree import cli as cli_module

        for name, (span, count) in CLI_NAMES.items():
            setattr(cli_module, name, tracer.wrap(span, getattr(cli_module, name), count))


# Per-layer metrics, in BENCHMARK.json order: (name, unit, source).  A source
# is (span name, field index) or a counter name.
_CALLS, _BUSY, _FAILED = 0, 1, 2
LAYER_METRICS = [
    ("realize.calls", "count", ("realize", _CALLS)),
    ("realize.busy_s", "s", ("realize", _BUSY)),
    ("realize.edges", "count", "realize.edges"),
    ("realize.selfcheck.calls", "count", ("realize.selfcheck", _CALLS)),
    ("realize.selfcheck.busy_s", "s", ("realize.selfcheck", _BUSY)),
    ("core.join.calls", "count", ("core.join", _CALLS)),
    ("core.join.busy_s", "s", ("core.join", _BUSY)),
    ("core.join.edges_copied", "count", "core.join.edges_copied"),
    ("core.verify.calls", "count", ("core.verify", _CALLS)),
    ("core.verify.busy_s", "s", ("core.verify", _BUSY)),
    ("core.query.calls", "count", ("core.query", _CALLS)),
    ("core.query.busy_s", "s", ("core.query", _BUSY)),
    ("sgraphical.branching.calls", "count", ("sgraphical.branching", _CALLS)),
    ("sgraphical.branching.busy_s", "s", ("sgraphical.branching", _BUSY)),
    ("sgraphical.branching.failed", "count", ("sgraphical.branching", _FAILED)),
    ("sgraphical.deterministic.calls", "count", ("sgraphical.deterministic", _CALLS)),
    ("sgraphical.deterministic.busy_s", "s", ("sgraphical.deterministic", _BUSY)),
    ("sgraphical.deterministic.failed", "count", ("sgraphical.deterministic", _FAILED)),
    ("sgraphical.normalize.calls", "count", ("sgraphical.normalize", _CALLS)),
    ("sgraphical.normalize.busy_s", "s", ("sgraphical.normalize", _BUSY)),
    ("sgraphical.reduce_hakimi.calls", "count", ("sgraphical.reduce_hakimi", _CALLS)),
    ("sgraphical.reduce_hakimi.busy_s", "s", ("sgraphical.reduce_hakimi", _BUSY)),
    ("sgraphical.choose_m.calls", "count", ("sgraphical.choose_m", _CALLS)),
    ("sgraphical.choose_m.busy_s", "s", ("sgraphical.choose_m", _BUSY)),
    ("bipartite.reduction.calls", "count", ("bipartite.reduction", _CALLS)),
    ("bipartite.reduction.busy_s", "s", ("bipartite.reduction", _BUSY)),
    ("bipartite.reduction.failed", "count", ("bipartite.reduction", _FAILED)),
    ("bipartite.reduce_pair.calls", "count", ("bipartite.reduce_pair", _CALLS)),
    ("bipartite.reduce_pair.busy_s", "s", ("bipartite.reduce_pair", _BUSY)),
    ("bipartite.gale_ryser.calls", "count", ("bipartite.gale_ryser", _CALLS)),
    ("bipartite.gale_ryser.busy_s", "s", ("bipartite.gale_ryser", _BUSY)),
    ("textio.emit.calls", "count", ("textio.emit", _CALLS)),
    ("textio.emit.busy_s", "s", ("textio.emit", _BUSY)),
    ("textio.emit.bytes", "bytes", "textio.emit.bytes"),
    ("textio.emit_dot.busy_s", "s", ("textio.emit_dot", _BUSY)),
    ("textio.parse.calls", "count", ("textio.parse", _CALLS)),
    ("textio.parse.busy_s", "s", ("textio.parse", _BUSY)),
    ("textio.parse.bytes", "bytes", "textio.parse.bytes"),
    ("oracle.census.calls", "count", ("oracle.census", _CALLS)),
    ("oracle.census.busy_s", "s", ("oracle.census", _BUSY)),
    ("oracle.enumerate.calls", "count", ("oracle.enumerate", _CALLS)),
    ("oracle.enumerate.busy_s", "s", ("oracle.enumerate", _BUSY)),
    ("oracle.slots_enumerated", "count", "oracle.slots_enumerated"),
]


def merge(total: dict, part: dict) -> None:
    """Add one exported trace into a running total of the same shape."""
    for name, stat in part["spans"].items():
        into = total["spans"].setdefault(name, [0, 0.0, 0])
        for i, value in enumerate(stat):
            into[i] += value
    for name, value in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + value
    total["top_busy"] += part["top_busy"]


def empty() -> dict:
    return {"spans": {}, "counts": {}, "top_busy": 0.0}


def layer_values(total: dict) -> dict[str, tuple[float, str]]:
    values = {}
    for name, unit, source in LAYER_METRICS:
        if isinstance(source, tuple):
            span, field = source
            value = total["spans"].get(span, [0, 0.0, 0])[field]
        else:
            value = total["counts"].get(source, 0)
        values[name] = (value, unit)
    return values
