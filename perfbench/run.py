"""The sdegree benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it imports the package from ./src.

Workloads (see README.md in this directory for why each exists):
  realize-blocks  realize_set + signed_degree_set + is_connected on degree sets
                  of 8-33 elements covering all seven construction cases
  decide-mixed    both general deciders, the bipartite decider and gale_ryser
                  on seeded true and planted-false inputs, n up to 180
  cli-session     `python -m sdegree` processes, one at a time: wide realize
                  with --out/--dot then degree-set, oracle checks, enumerate
                  and small default checks

With --trace 0 the run repeats whole rounds until --seconds have passed and
reports the end-to-end metrics.  With --trace 1 it runs a fixed number of
rounds twice, untraced and then traced, and reports the per-layer metrics
and the tracing overhead; its counts repeat exactly for a given seed.
Either way the run ends with the workload's limit probe: inputs beyond
today's recursion limit, run outside the timed ops, whose errors are
reported on their own line.
Every output is checked; the last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("realize-blocks", "decide-mixed", "cli-session")
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Wall seconds of one round at the commit that added the benchmark (2 vCPU);
# sizes the traced run, whose round count must not depend on speed.
SECONDS_PER_ROUND = {"realize-blocks": 4.4, "decide-mixed": 0.33, "cli-session": 4.7}
SETUP_LAUNCHES = 9
MIN_SAMPLES = 100  # so that at least ten samples rank beyond p90
CHILD_TIMEOUT_S = 150
SHOWN_MISMATCHES = 20


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, int, float]:
    """Run one process to completion; return (wall seconds, exit code, peak
    RSS in MB).  The peak RSS is the child's own, from wait4."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def setup_seconds(workdir: Path) -> float:
    """Median wall time of a fresh interpreter running ``import sdegree``."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        wall, code, _ = run_child([sys.executable, "-c", "import sdegree"], workdir / "setup.out", workdir / "setup.err")
        if code != 0:
            raise RuntimeError("import sdegree failed: " + (workdir / "setup.err").read_text())
        times.append(wall)
    return statistics.median(times)


class Pass:
    """Everything measured over the rounds of one pass (untraced or traced)."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.ok: list[bool] = []
        self.round_rates: list[float] = []  # successful ops per op-second, per round
        self.peak_rss_mb = 0.0
        self.errors: Counter[str] = Counter()
        self.mismatches: list[str] = []
        self.bands: Counter[str] = Counter()
        self.cases: Counter[str] = Counter()
        self.true = self.decided = self.beyond = self.general = self.edges = 0
        self.trace = tracing.empty()
        self.cli_commands = 0
        self.cli_import_s = self.cli_overhead_s = 0.0
        self.rounds = 0

    def add_inputs(self, inputs: dict) -> None:
        self.bands.update(inputs["size_bands"])
        self.cases.update(inputs.get("cases", {}))
        self.true += inputs["true"]
        self.decided += inputs["decided"]
        self.beyond += inputs["beyond_recursion_limit"]
        self.general += inputs["general_inputs"]
        self.edges += inputs["edges_built"]

    def metrics(self) -> dict[str, float]:
        successes = sorted(t for t, ok in zip(self.latency, self.ok) if ok)
        slowest = successes[-1] if successes else 0.0
        # a failed op ranks slower than every success
        ranked = successes + sorted(max(t, slowest) for t, ok in zip(self.latency, self.ok) if not ok)
        return {
            "ops_per_s": statistics.median(self.round_rates),
            "latency_p50_ms": 1e3 * harrell_davis(ranked, 0.50),
            "latency_p90_ms": 1e3 * harrell_davis(ranked, 0.90),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def inputs(self) -> dict:
        return {
            "size_bands": dict(sorted(self.bands.items())),
            "cases": dict(sorted(self.cases.items())),
            "true_share": self.true / self.decided if self.decided else None,
            "beyond_recursion_limit_share": self.beyond / self.general if self.general else None,
            "recursion_limit_n": workloads.RECURSION_N,
            "edges_built": self.edges,
        }


def harrell_davis(ranked: list[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile q of a sorted sample: a mean of
    the order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density
    over each one's share of [0, 1].  Unlike one order statistic, it does not
    jump when the rank sits at the edge between two groups of ops of
    different cost.  Weights beyond 12 standard deviations are dropped."""
    n = len(ranked)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    sd = math.sqrt(q * (1 - q) / (n + 2))
    lo, hi = max(0, int(n * (q - 12 * sd))), min(n, math.ceil(n * (q + 12 * sd)))
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
               for x in ((i + 0.5) / n for i in range(lo, hi))]
    return sum(w * ranked[i] for w, i in zip(weights, range(lo, hi))) / sum(weights)


def in_process_round(workload: str, seed: int, index: int, trace: bool, workdir: Path, into: Pass) -> None:
    out, err = workdir / "worker.out", workdir / "worker.err"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(index), "1" if trace else "0"]
    _, code, rss = run_child(argv, out, err)
    if code != 0:
        raise RuntimeError(f"worker for round {index} exited {code}:\n{err.read_text()}")
    result = json.loads(out.read_text())
    into.latency += result["latency"]
    into.ok += result["ok"]
    into.errors.update(result["errors"])
    into.mismatches += result["mismatches"]
    into.peak_rss_mb = max(into.peak_rss_mb, rss)
    into.add_inputs(result["inputs"])
    if trace:
        tracing.merge(into.trace, result["trace"])


def _error_name(stderr: str, code: int) -> str:
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    name = last.split(":", 1)[0]
    return name if name.isidentifier() else f"exit {code}"


def check_cli(cmd: dict, stdout: str) -> str | None:
    """The mismatch in one CLI command's stdout, or None."""
    lines = stdout.splitlines()
    kind = cmd["check"]
    if kind == "realize":
        out, dot = Path(cmd["argv"][4]), Path(cmd["argv"][6])
        if not lines or lines[0] != f"case: {cmd['case']}":
            return f"realize {cmd['set']}: printed {lines[:1]}, expected case {cmd['case']}"
        if not out.is_file() or not dot.is_file():
            return f"realize {cmd['set']}: --out or --dot file missing"
        edges = sum(line.startswith("u") for line in out.read_text().splitlines())
        drawn = sum(" -- " in line for line in dot.read_text().splitlines())
        if edges != drawn:
            return f"realize {cmd['set']}: {edges} edges written, {drawn} drawn in DOT"
        cmd["edges"] = edges
        return None
    if kind == "degree-set":
        expected = ["degree set: " + ",".join(str(x) for x in cmd["set"]), "connected: true"]
        return None if lines == expected else f"degree-set of {cmd['set']}: printed {lines}"
    if kind == "enumerate":
        got = [tuple(int(x) for x in line.split(",")) for line in lines]
        return None if got == cmd["expect"] else f"{' '.join(cmd['argv'])}: {len(got)} sets, reference {len(cmd['expect'])}"
    word = "true" if cmd["expect"] else "false"
    if len(lines) == 1 and lines[0].endswith(": " + word):
        return None
    return f"{' '.join(cmd['argv'])[:200]}: printed {lines}, reference {word}"


def cli_command(cmd: dict, trace: bool, workdir: Path, into: Pass) -> tuple[float, float, str | None, str | None]:
    """Run one CLI command and check its output; return (wall seconds, peak
    RSS in MB, error, mismatch).  Traced, its spans go into ``into``."""
    out, err, trace_file = workdir / "cli.out", workdir / "cli.err", workdir / "cli.trace"
    if trace:
        argv = [sys.executable, str(HERE / "cli_shim.py"), str(trace_file), *cmd["argv"]]
    else:
        argv = [sys.executable, "-m", "sdegree", *cmd["argv"]]
    wall, code, rss = run_child(argv, out, err)
    mismatch = error = None
    if code != 0:
        error = _error_name(err.read_text(), code)
    else:
        mismatch = check_cli(cmd, out.read_text())
    if mismatch:
        into.mismatches.append(mismatch)
    if trace:
        part = json.loads(trace_file.read_text())
        tracing.merge(into.trace, part)
        into.cli_import_s += part["import_s"]
        into.cli_overhead_s += wall - part["import_s"] - part["top_busy"]
        trace_file.unlink()
    into.cli_commands += 1
    return wall, rss, error, mismatch


def cli_round(seed: int, index: int, trace: bool, workdir: Path, into: Pass) -> None:
    for cmd in workloads.cli_round(seed, index, workdir):
        wall, rss, error, mismatch = cli_command(cmd, trace, workdir, into)
        if error:
            into.errors[error] += 1
        into.latency.append(wall)
        into.ok.append(error is None and mismatch is None)
        into.peak_rss_mb = max(into.peak_rss_mb, rss)
        kind = {"realize": "realize", "degree-set": "degree-set", "enumerate": "enumerate"}.get(cmd["check"])
        if kind is None:
            kind = "oracle" if "oracle" in cmd["argv"] else "small"
        into.bands[kind] += 1
        into.cases[cmd["argv"][0]] += 1
        into.edges += cmd.get("edges", 0)
        if cmd["check"] == "verdict":
            into.decided += 1
            into.true += cmd["expect"]
        if cmd["argv"][0] == "check-seq":
            into.general += 1
            into.beyond += cmd["size"] >= workloads.RECURSION_N
    for leftover in [*workdir.glob("*.sbg"), *workdir.glob("*.dot")]:
        leftover.unlink()


def limit_probe(workload: str, trace: bool, workdir: Path, into: Pass) -> dict | None:
    """Run the workload's limit probe once, outside the timed ops: inputs
    beyond today's recursion limit (ROADMAP item 2).  Its errors are reported,
    not counted as failed ops; a wrong verdict makes the run incorrect."""
    raised: Counter[str] = Counter()
    if workload == "decide-mixed":
        sizes = [item["size"] for item in workloads.decide_probe()]
        part = Pass()
        in_process_round("decide-probe", 0, 0, trace, workdir, part)
        calls = len(part.ok)
        raised.update(part.errors)
        into.mismatches += part.mismatches
        if trace:
            tracing.merge(into.trace, part.trace)
    elif workload == "cli-session":
        cmds = workloads.cli_probe()
        sizes = [cmd["size"] for cmd in cmds]
        calls = len(cmds)
        for cmd in cmds:
            error = cli_command(cmd, trace, workdir, into)[2]
            if error:
                raised[error] += 1
    else:
        return None
    return {"input_sizes": sizes, "calls": calls, "raised": sum(raised.values()), "errors": dict(raised)}


def run_pass(workload: str, seed: int, rounds: int | None, seconds: float, trace: bool, workdir: Path) -> Pass:
    """Rounds 0, 1, ... until ``rounds`` ran, or, with rounds None, until
    ``seconds`` of wall time have passed; either way until MIN_SAMPLES ops
    ran.  Rounds have a fixed size, so a fixed ``rounds`` runs the same ops
    however fast the program is."""
    result = Pass()
    t0 = perf_counter()
    while True:
        first = len(result.ok)
        if workload == "cli-session":
            cli_round(seed, result.rounds, trace, workdir, result)
        else:
            in_process_round(workload, seed, result.rounds, trace, workdir, result)
        result.round_rates.append(sum(result.ok[first:]) / sum(result.latency[first:]))
        result.rounds += 1
        if rounds is None:
            if perf_counter() - t0 >= seconds and len(result.ok) >= MIN_SAMPLES:
                return result
        elif result.rounds >= rounds and len(result.ok) >= MIN_SAMPLES:
            return result


def machine() -> dict:
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "sdegree" / "__init__.py").is_file():
        print(f"error: no sdegree package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, workdir: Path) -> int:
    checked = reference.validate()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "reference_inputs_validated": checked, "machine": machine()}
    if args.trace:
        rounds = max(1, round(args.seconds / 2 / SECONDS_PER_ROUND[args.workload]))
        plain = run_pass(args.workload, args.seed, rounds, args.seconds, False, workdir)
        measured = run_pass(args.workload, args.seed, rounds, args.seconds, True, workdir)
        probe = limit_probe(args.workload, True, workdir, measured)
        plain_metrics = plain.metrics()
        traced_metrics = measured.metrics()
        metrics = tracing.layer_values(measured.trace)
        metrics["cli.commands"] = (measured.cli_commands, "count")
        metrics["cli.import_s"] = (measured.cli_import_s, "s")
        metrics["cli.overhead_s"] = (measured.cli_overhead_s, "s")
        for name, unit in END_TO_END[:4]:
            metrics[f"trace.overhead.{name}"] = (traced_metrics[name] - plain_metrics[name], unit)
    else:
        setup_s = setup_seconds(workdir)
        measured = run_pass(args.workload, args.seed, None, args.seconds, False, workdir)
        probe = limit_probe(args.workload, False, workdir, measured)
        values = measured.metrics()
        values["setup_s"] = setup_s
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    attempted = len(measured.ok)
    failed = attempted - sum(measured.ok)
    beyond_p90 = attempted - math.ceil(0.9 * attempted)
    info.update({"rounds": measured.rounds, "samples": attempted, "beyond_p90": beyond_p90,
                 "failed_share": failed / attempted, "errors": dict(measured.errors),
                 "mismatches": len(measured.mismatches), "inputs": measured.inputs(), "limit_probe": probe})

    for line in measured.mismatches[:SHOWN_MISMATCHES]:
        print(f"MISMATCH {line}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={measured.rounds} "
          f"samples={attempted} beyond_p90={beyond_p90}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"{'failed_share':34s} {failed / attempted:>16.6g} share")
    if probe is not None:
        errors = ", ".join(f"{name} {count}" for name, count in sorted(probe["errors"].items())) or "none"
        print(f"{'limit_probe':34s} {probe['raised']} of {probe['calls']} calls raised ({errors})")
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": not measured.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
