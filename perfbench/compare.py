"""Compare a parent result set with a change result set.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are files, or directories searched recursively for files,
holding the stdout of untraced ``run.py`` runs (any number per file).  The
runs of each side are grouped by workload and paired in seed order.

One row per workload and end-to-end metric: each side's median and
quartiles, the share of pairs the change won (ties count for neither), and a
verdict under the rules of the choosing-metrics guide, section 8:

  unresolved     the run-to-run spread (interquartile range over median) of
                 either side is wider than the metric's bound, and not every
                 change run beats every parent run
  regression     the change's median is worse than the parent's by more than
                 the bound
  gain           the change won at least 9 in 10 pairs and the medians differ
                 by more than the parent's interquartile range
  within bound   anything else
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    """Untraced runs found under ``path``: workload, seed, metrics, counts."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = []
    for file in files:
        info = None
        for line in file.read_text(errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "perfbench" in obj:
                info = obj["perfbench"]
            elif "metrics" in obj and info is not None:
                if not info["trace"]:
                    values = {name: m["value"] for name, m in obj["metrics"].items()}
                    runs.append({"workload": info["workload"], "seed": info["seed"], "metrics": values,
                                 "attempted": obj["attempted"], "failed": obj["failed"]})
                info = None
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and the share of pairs the change won."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    pm, pq1, pq3 = summary(parent)
    cm, cq1, cq3 = summary(change)
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0, (cq3 - cq1) / abs(cm) if cm else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", won
    if pm and sign * (cm - pm) / abs(pm) < -bound:
        return "regression", won
    if won >= 0.9 and abs(cm - pm) > pq3 - pq1:
        return "gain", won
    return "within bound", won


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> list[str]:
    lines = [f"{'workload':16s} {'metric':16s} {'parent median [q1, q3] (n)':38s} "
             f"{'change median [q1, q3] (n)':38s} {'won':>5s}  verdict"]
    workloads = sorted({r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs})
    for workload in workloads:
        sides = []
        for runs in (parent_runs, change_runs):
            mine = sorted((r for r in runs if r["workload"] == workload), key=lambda r: r["seed"])
            sides.append(mine)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in sides[0] if name in r["metrics"]]
            change = [r["metrics"][name] for r in sides[1] if name in r["metrics"]]
            if not parent or not change:
                continue
            result, won = verdict(parent, change, metric["better"], metric["bound"])
            cells = []
            for values in (parent, change):
                m, q1, q3 = summary(values)
                cells.append(f"{m:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})")
            lines.append(f"{workload:16s} {name:16s} {cells[0]:38s} {cells[1]:38s} {won:5.2f}  {result}")
        failed = []
        for runs in sides:
            attempted = sum(r["attempted"] for r in runs)
            failed.append(sum(r["failed"] for r in runs) / attempted if attempted else float("nan"))
        lines.append(f"{workload:16s} {'failed_share':16s} {failed[0]:<38.5g} {failed[1]:<38.5g}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text())
    parent_runs, change_runs = (load_runs(Path(arg)) for arg in argv)
    if not parent_runs or not change_runs:
        print("error: no untraced runs found on one side", file=sys.stderr)
        return 1
    print("\n".join(compare(parent_runs, change_runs, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
