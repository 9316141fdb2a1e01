"""One round of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py <realize-blocks|decide-mixed|decide-probe> <seed> <round> <trace 0|1>

run.py starts one worker per round, one at a time, so the package's
module-level memo tables start empty for every round, as they do for every
CLI user, and the peak RSS of a round does not depend on how many rounds ran
before it.  The worker prints one JSON object: per-op latencies and outcomes,
the properties of its inputs, wrong answers, and (traced) its spans.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from sdegree import (  # noqa: E402
    emit_graph,
    gale_ryser,
    is_bipartite_s_graphical,
    is_connected,
    is_s_graphical_branching,
    is_s_graphical_deterministic,
    realize_set,
    signed_degree_set,
)

DECIDERS = {
    "sequence": [
        ("sgraphical.branching", is_s_graphical_branching),
        ("sgraphical.deterministic", is_s_graphical_deterministic),
    ],
    "pair": [("bipartite.reduction", is_bipartite_s_graphical)],
    "unsigned": [("bipartite.gale_ryser", gale_ryser)],
}


class Round:
    """Latency and outcome of every op of one round."""

    def __init__(self, tracer: tracing.Tracer | None) -> None:
        self.tracer = tracer
        self.latency: list[float] = []
        self.ok: list[bool] = []
        self.errors: Counter[str] = Counter()
        self.mismatches: list[str] = []

    def call(self, span: str, fn, *args, count=None):
        if self.tracer is not None:
            fn = self.tracer.wrap(span, fn, count)
        return fn(*args)

    def record(self, seconds: float, error: BaseException | None, mismatch: str | None, span: str) -> None:
        self.latency.append(seconds)
        self.ok.append(error is None and mismatch is None)
        if error is not None:
            self.errors[type(error).__name__] += 1
        if mismatch is not None:
            self.mismatches.append(mismatch)
            if self.tracer is not None:
                self.tracer.fail(span)

    def result(self, inputs: dict) -> dict:
        return {
            "latency": self.latency,
            "ok": self.ok,
            "errors": dict(self.errors),
            "mismatches": self.mismatches,
            "inputs": inputs,
            "trace": self.tracer.export() if self.tracer is not None else None,
        }


def realize_blocks(rnd: Round, seed: int, index: int, strata=None) -> dict:
    """One op: realize_set, then the graph's degree set and connectivity, as
    in the README quick start.  Outside the timed region, the case, degree
    set, connectivity and emit_graph digest are checked."""
    picks = workloads.realize_round(strata or workloads.load_catalogue(), seed, index)
    bands: Counter[str] = Counter()
    cases: Counter[str] = Counter()
    edges = 0
    for entry in picks:
        elems = entry["set"]
        error = report = None
        t0 = perf_counter()
        try:
            report = rnd.call("realize", realize_set, elems, count=tracing.realized_edges)
            degrees = rnd.call("core.query", signed_degree_set, report.graph)
            connected = rnd.call("core.query", is_connected, report.graph)
        except Exception as exc:  # the op failed; the round goes on
            error = exc
        seconds = perf_counter() - t0
        mismatch = None
        if error is None:
            digest = hashlib.sha256(emit_graph(report.graph).encode()).hexdigest()
            if report.case_used != entry["case"]:
                mismatch = f"realize {elems}: case {report.case_used}, expected {entry['case']}"
            elif degrees != frozenset(elems) or not connected:
                mismatch = f"realize {elems}: degree set {sorted(degrees)}, connected {connected}"
            elif digest != entry["sha256"]:
                mismatch = f"realize {elems}: emit_graph digest {digest[:12]}, expected {entry['sha256'][:12]}"
            edges += len(report.graph.edges)
        rnd.record(seconds, error, mismatch, "realize")
        bands[f"k={len(elems)}"] += 1
        cases[entry["case"]] += 1
    return {"size_bands": dict(bands), "cases": dict(cases), "true": len(picks), "decided": len(picks),
            "beyond_recursion_limit": 0, "general_inputs": 0, "edges_built": edges}


def _band(n: int) -> str:
    for lo, hi in ((8, 31), (32, 127), (128, workloads.GENERAL_N[1])):
        if n <= hi:
            return f"n={lo}-{hi}"
    return f"n>{workloads.GENERAL_N[1]}"


def decide_mixed(rnd: Round, seed: int, index: int, items: list[dict] | None = None) -> dict:
    """One op: one decider on one input; general sequences go to both
    deciders.  Each verdict is compared with the reference afterwards."""
    if items is None:
        items = workloads.decide_round(seed, index)
    bands: Counter[str] = Counter()
    general = beyond = true = 0
    for item in items:
        for span, decide in DECIDERS[item["kind"]]:
            error = verdict = None
            t0 = perf_counter()
            try:
                verdict = rnd.call(span, decide, *item["args"])
            except Exception as exc:  # RecursionError, in the limit probe
                error = exc
            seconds = perf_counter() - t0
            mismatch = None
            if error is None and verdict != item["expect"]:
                mismatch = f"{span} {item['args']}: {verdict}, reference {item['expect']}"
            rnd.record(seconds, error, mismatch, span)
        true += item["expect"]
        if item["kind"] == "sequence":
            general += 1
            beyond += item["size"] >= workloads.RECURSION_N
            bands[_band(item["size"])] += 1
        else:
            bands[f"{item['kind']}s"] += 1
    return {"size_bands": dict(bands), "true": true, "decided": len(items),
            "beyond_recursion_limit": beyond, "general_inputs": general, "edges_built": 0}


def decide_probe(rnd: Round, seed: int, index: int) -> dict:
    """The limit probe of decide-mixed: sequences beyond the recursion limit."""
    return decide_mixed(rnd, seed, index, workloads.decide_probe())


WORKLOADS = {"realize-blocks": realize_blocks, "decide-mixed": decide_mixed, "decide-probe": decide_probe}


def main(argv: list[str]) -> int:
    workload, seed, index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    rnd = Round(tracer)
    inputs = WORKLOADS[workload](rnd, seed, index)
    print(json.dumps(rnd.result(inputs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
