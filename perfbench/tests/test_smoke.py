"""Smoke test for the benchmark at toy sizes: output schema, metric names,
and that the correctness checks fire.  Asserts no timings.

    python3 -m pytest perfbench/tests -q      # from the repository root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def test_benchmark_json_names_this_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in SPEC["end_to_end"])
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    info, result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["samples"] == result["attempted"] >= run.MIN_SAMPLES
    assert info["beyond_p90"] >= 10
    assert set(info["machine"]) >= {"nproc", "python", "platform", "git_commit"}
    assert set(info["inputs"]) >= {"size_bands", "true_share", "beyond_recursion_limit_share", "edges_built"}
    if workload == "realize-blocks":
        assert info["limit_probe"] is None
    else:
        assert info["limit_probe"]["calls"] >= 1
        assert info["limit_probe"]["raised"] == sum(info["limit_probe"]["errors"].values())


def test_timed_inputs_stay_below_the_recursion_limit():
    sizes = [item["size"] for item in workloads.decide_round(1, 0) if item["kind"] == "sequence"]
    assert max(sizes) <= workloads.GENERAL_N[1] < workloads.RECURSION_N
    assert all(item["size"] >= workloads.RECURSION_N for item in workloads.decide_probe())
    assert all(cmd["size"] < workloads.RECURSION_N for cmd in workloads.cli_round(1, 0, BENCH / ".work")
               if cmd["argv"][0] == "check-seq")
    assert all(cmd["size"] >= workloads.RECURSION_N for cmd in workloads.cli_probe())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    info, result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "1"))
    assert result["failed"] == 0 and info["beyond_p90"] >= 10
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_traced_counts_repeat_for_a_seed():
    runs = [result_of(bench("--workload", "decide-mixed", "--seed", "5", "--seconds", "0.01", "--trace", "1"))[1]
            for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sgraphical.reduce_hakimi.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "decide-mixed", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _toy_decide(monkeypatch):
    monkeypatch.setattr(workloads, "GENERAL_PER_ROUND", 4)
    monkeypatch.setattr(workloads, "PAIRS_PER_ROUND", 2)
    monkeypatch.setattr(workloads, "UNSIGNED_PER_ROUND", 2)
    monkeypatch.setattr(workloads, "GENERAL_N", (8, 20))
    monkeypatch.setattr(workloads, "PAIR_SIDES", (5, 10))


def test_a_wrong_verdict_is_a_failed_op(monkeypatch):
    _toy_decide(monkeypatch)
    rnd = worker.Round(None)
    worker.decide_mixed(rnd, 1, 0)
    assert all(rnd.ok) and not rnd.mismatches

    flipped = [(span, lambda *args, f=f: not f(*args)) for span, f in worker.DECIDERS["sequence"]]
    monkeypatch.setitem(worker.DECIDERS, "sequence", flipped)
    rnd = worker.Round(None)
    worker.decide_mixed(rnd, 1, 0)
    assert len(rnd.mismatches) == 2 * workloads.GENERAL_PER_ROUND
    assert rnd.ok.count(False) == len(rnd.mismatches)


def test_a_changed_graph_fails_the_digest_gate():
    strata = workloads.load_catalogue()
    # toy round: every stratum holds one set of its case's smallest size
    small = {(case, k): [dict(strata[(case, min(k, 8))][0])] for case, k in strata}
    rnd = worker.Round(None)
    worker.realize_blocks(rnd, 1, 0, strata=small)
    assert all(rnd.ok)

    for (case, _), entries in small.items():
        if case == "positive":
            entries[0]["sha256"] = "0" * 64
    rnd = worker.Round(None)
    worker.realize_blocks(rnd, 1, 0, strata=small)
    assert rnd.ok.count(False) == len(workloads.REALIZE_K)
    assert all("digest" in line for line in rnd.mismatches)


def test_cli_checks_reject_wrong_output():
    verdict = {"argv": ["check-seq", "--seq", "1,1"], "check": "verdict", "expect": True}
    assert run.check_cli(verdict, "s-graphical: true\n") is None
    assert run.check_cli(verdict, "s-graphical: false\n") is not None
    degree_set = {"argv": ["degree-set", "--in", "g.sbg"], "check": "degree-set", "set": [-2, 0, 3]}
    assert run.check_cli(degree_set, "degree set: -2,0,3\nconnected: true\n") is None
    assert run.check_cli(degree_set, "degree set: -2,3\nconnected: true\n") is not None
    enumerate_ = {"argv": ["enumerate", "--p", "1", "--q", "1", "--sets"], "check": "enumerate",
                  "expect": [(-1,), (1,)]}
    assert run.check_cli(enumerate_, "-1\n1\n") is None
    assert run.check_cli(enumerate_, "1\n") is not None
