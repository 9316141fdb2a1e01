"""Seeded inputs for the three workloads, with their reference answers.

Every input is a pure function of (workload, seed, round): a round draws
from ``random.Random(f"{workload}:{seed}:{round}")``.  Rounds have a fixed
composition (strata by case and size band), so each round asks for about
the same work and run-to-run spread comes from the program, not the mix.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
CATALOGUE = HERE / "data" / "realize_catalogue.json"

# Shortest true sequence seen to make is_s_graphical_branching raise
# RecursionError at the commit that added the benchmark (default recursion
# limit); from about n = 250 on, every true sequence does.  The branching
# search holds about five frames per reduction step, so n = 200 needs a limit
# of about 1000 and n = 180 about 900.
RECURSION_N = 210

CASES = (
    "positive",
    "negative",
    "nonneg_with_zero",
    "nonpos_with_zero",
    "mixed_nonzero",
    "mixed_with_zero",
)
# Element counts of the realize-blocks sets, about evenly spaced in log k.
# Each round takes one set of each case and each count, plus {0} for the
# seventh case, zero_only: 55 ops.  Work grows about as k**3, so the top count
# bounds how many ops a run holds.  Every round holds the same counts, and
# the sets of one (case, count) differ little in size, so every seed asks for
# the same spread of op costs; the run's p50 and p90 fall in the middle of the
# ops of one (case, count), not on the edge between two of different cost.
REALIZE_K = (8, 10, 12, 14, 17, 20, 24, 28, 33)


def realize_top(k: int) -> int:
    """Largest magnitude of a catalogue set with k elements."""
    return k + 5


def rng_for(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def log_uniform(rng: random.Random, lo: int, hi: int, stratum: int = 0, strata: int = 1) -> int:
    """An integer in [lo, hi], log-uniform within the given equal-width
    stratum of the log range.  Drawing stratum i of N for i = 0..N-1 covers
    the range evenly, so every round holds the same spread of sizes."""
    width = (math.log(hi + 1) - math.log(lo)) / strata
    return min(hi, int(math.exp(math.log(lo) + width * (stratum + rng.random()))))


def case_of(elems) -> str:
    pos = any(x > 0 for x in elems)
    neg = any(x < 0 for x in elems)
    zero = 0 in elems
    if pos and neg:
        return "mixed_with_zero" if zero else "mixed_nonzero"
    if pos:
        return "nonneg_with_zero" if zero else "positive"
    if neg:
        return "nonpos_with_zero" if zero else "negative"
    return "zero_only"


def degree_set_for(rng: random.Random, case: str, k: int, top: int, rest: int | None = None) -> list[int]:
    """A k-element set of the given case whose largest magnitude on each sign
    side present is ``top``; the other magnitudes are below ``rest`` (default
    ``top``).  Mixed sets split their nonzero elements evenly between the
    signs.  Graph size, and so the work, then depends mostly on k and top,
    not on the draw."""
    zero = case.endswith("with_zero")
    m = k - 1 if zero else k

    def side(count: int) -> list[int]:
        return [top] + rng.sample(range(1, rest or top), count - 1)

    if case in ("positive", "nonneg_with_zero"):
        elems = side(m)
    elif case in ("negative", "nonpos_with_zero"):
        elems = [-x for x in side(m)]
    else:
        npos = (m + 1) // 2
        elems = side(npos) + [-x for x in side(m - npos)]
    return sorted(elems + [0] if zero else elems)


# ---------------------------------------------------------------- realize


def load_catalogue() -> dict[tuple[str, int], list[dict]]:
    """Catalogue entries grouped by (case, element count)."""
    entries = json.loads(CATALOGUE.read_text())["sets"]
    strata: dict[tuple[str, int], list[dict]] = {}
    for entry in entries:
        strata.setdefault((entry["case"], len(entry["set"])), []).append(entry)
    return strata


def realize_round(strata, seed: int, rnd: int) -> list[dict]:
    rng = rng_for("realize-blocks", seed, rnd)
    picks = [rng.choice(strata[(case, k)]) for case in CASES for k in REALIZE_K]
    picks.append(strata[("zero_only", 1)][0])
    rng.shuffle(picks)
    return picks


# ---------------------------------------------------------------- decide


def _edge_values(rng: random.Random, count: int, values: int) -> bytearray:
    """``count`` random slots, each 0 (absent), 1 (first value) or 2 (second
    value), with the two probabilities themselves drawn at random."""
    first = rng.uniform(0.0, 0.8)
    second = rng.uniform(0.0, 1.0 - first) if values == 2 else 0.0
    t1, t2 = round(first * 256), round((first + second) * 256)
    table = bytes(1 if x < t1 else 2 if x < t2 else 0 for x in range(256))
    return bytearray(rng.randbytes(count).translate(table))


def _value(cells) -> int:
    return cells.count(1) - cells.count(2)


def random_signed_graph_degrees(rng: random.Random, n: int, forced: int = 0) -> list[int]:
    """Signed degrees of a random signed graph on n vertices; the first
    ``forced`` vertices take a positive edge to every other vertex.  Slot
    (i, j), i < j, is cell i*n + j of an n x n byte matrix."""
    cells = _edge_values(rng, n * n, 2)
    cells[: forced * n] = b"\x01" * (forced * n)
    return [_value(cells[i * n + i + 1 : (i + 1) * n]) + _value(cells[i : i * n : n]) for i in range(n)]


def planted_false_sequence(rng: random.Random, n: int) -> list[int]:
    """An even-sum sequence with every magnitude below n that no signed
    graph realizes.  j >= 2 entries equal n - 1, so those vertices are joined
    positively to all others, and every other vertex has signed degree at
    least 2j - n + 1; one entry is set below that.  The reductions peel the
    j forced vertices one at a time before the violation shows."""
    j = rng.randint(2, max(2, n // 2))
    deg = random_signed_graph_degrees(rng, n, forced=j)
    v = rng.randrange(j, n)
    low = 2 * j - n - 1
    deg[v] = low if (deg[v] - low) % 2 == 0 else low - 1
    return [-x for x in deg] if rng.random() < 0.5 else deg


def random_signed_pair_degrees(rng: random.Random, p: int, q: int, forced: int = 0, values: int = 2):
    """Part-wise degrees of a random p x q bipartite graph whose edges carry
    +1, or with ``values`` = 2 also -1; the first ``forced`` U vertices take
    +1 to every V vertex.  Slot (u, v) is cell u*q + v."""
    cells = _edge_values(rng, p * q, values)
    cells[: forced * q] = b"\x01" * (forced * q)
    return [_value(cells[u * q : (u + 1) * q]) for u in range(p)], [_value(cells[v::q]) for v in range(q)]


def _planted_false_pair(rng: random.Random, p: int, q: int, values: int, low_of, lo_a, hi_b):
    """j >= 1 U vertices carry the top value to all of V, which puts a floor
    under every V degree; one V degree goes below that floor and the sums are
    re-balanced by raising other V degrees (never past hi_b) or lowering
    free U degrees (never past lo_a)."""
    while True:
        j = rng.randint(1, max(1, p // 2))
        a, b = random_signed_pair_degrees(rng, p, q, forced=j, values=values)
        v = rng.randrange(q)
        new = low_of(j, p)
        deficit = b[v] - new
        b[v] = new
        others = [w for w in range(q) if w != v]
        rng.shuffle(others)
        for w in others:
            step = min(deficit, hi_b - b[w])
            b[w] += step
            deficit -= step
        for u in range(j, p):
            step = min(deficit, a[u] - lo_a)
            a[u] -= step
            deficit -= step
        if deficit == 0:
            return a, b


def planted_false_signed_pair(rng, p, q):
    # Every V vertex gets +1 from each of the j forced U vertices: floor 2j - p.
    # With p <= q the forced side leads every reduction step, one shift each.
    p, q = min(p, q), max(p, q)
    a, b = _planted_false_pair(rng, p, q, 2, lambda j, p: 2 * j - p - 1, -q, p)
    if rng.random() < 0.5:
        a, b = [-x for x in a], [-y for y in b]
    return a, b


def planted_false_unsigned_pair(rng, p, q):
    # every V vertex has degree at least j
    return _planted_false_pair(rng, p, q, 1, lambda j, p: j - 1, 0, p)


def sequence(rng: random.Random, n: int, true: bool) -> list[int]:
    seq = random_signed_graph_degrees(rng, n) if true else planted_false_sequence(rng, n)
    rng.shuffle(seq)
    return seq


def signed_pair(rng: random.Random, p: int, q: int, true: bool):
    return random_signed_pair_degrees(rng, p, q) if true else planted_false_signed_pair(rng, p, q)


def unsigned_pair(rng: random.Random, p: int, q: int, true: bool):
    d, e = random_signed_pair_degrees(rng, p, q, values=1) if true else planted_false_unsigned_pair(rng, p, q)
    d.sort(reverse=True)  # gale_ryser requires a non-increasing first side
    return d, e


GENERAL_PER_ROUND = 96  # half true, half planted false; each goes to both deciders
PAIRS_PER_ROUND = 48
UNSIGNED_PER_ROUND = 48
# Timed inputs stay below RECURSION_N with a margin, so no timed op raises;
# longer sequences go to the limit probe below.
GENERAL_N = (8, 180)
PAIR_SIDES = (5, 200)


def decide_round(seed: int, rnd: int) -> list[dict]:
    """Inputs for one decide-mixed round.  Each entry is one input with the
    reference verdict; general sequences are decided by both deciders."""
    rng = rng_for("decide-mixed", seed, rnd)
    items = []
    for i in range(GENERAL_PER_ROUND):
        n = log_uniform(rng, *GENERAL_N, i // 2, GENERAL_PER_ROUND // 2)
        seq = sequence(rng, n, i % 2 == 0)
        items.append({"kind": "sequence", "args": [seq], "size": n, "expect": reference.s_graphical(seq)})
    for kind, count, make, expect in (("pair", PAIRS_PER_ROUND, signed_pair, reference.signed_pair),
                                      ("unsigned", UNSIGNED_PER_ROUND, unsigned_pair, reference.gale_ryser)):
        for i in range(count):
            p = log_uniform(rng, *PAIR_SIDES, i // 2, count // 2)
            q = log_uniform(rng, *PAIR_SIDES, rng.randrange(count // 2), count // 2)
            a, b = make(rng, p, q, i % 2 == 0)
            items.append({"kind": kind, "args": [a, b], "size": max(p, q), "expect": expect(a, b)})
    rng.shuffle(items)
    return items


# The limit probe: general sequences beyond RECURSION_N, run once per run
# outside the timed ops.  At the commit that added the benchmark some end in
# RecursionError (ROADMAP item 2).  The probe does not depend on the seed, so
# its outcome is the same in every run of the same code.
PROBE_N = (300, 400)


def decide_probe() -> list[dict]:
    """A true and a planted-false sequence of each length of PROBE_N, with
    the reference verdicts; each goes to both general deciders."""
    rng = random.Random("decide-mixed:probe")
    items = []
    for n in PROBE_N:
        for true in (True, False):
            seq = sequence(rng, n, true)
            items.append({"kind": "sequence", "args": [seq], "size": n, "expect": reference.s_graphical(seq)})
    return items


# ---------------------------------------------------------------- cli

# Every round realizes each of four cases once, with three elements and its
# largest magnitude fixed (about 5.8*10^4 edges each), so every run builds the
# same sizes and its peak RSS does not depend on the seed.  These four are the
# slowest commands, 17 % of a round, and cost about the same, so p90 falls
# inside that group, not on the edge between two groups of different cost.
REALIZE_CLI = (("positive", 240), ("negative", 240), ("nonneg_with_zero", 240), ("mixed_with_zero", 170))
REALIZE_CLI_K = 3
LONG_N = 300


def cli_probe() -> list[dict]:
    """The cli-session limit probe: one default check-seq of a true sequence
    of length LONG_N, run once per run outside the timed commands."""
    seq = sequence(random.Random("cli-session:probe"), LONG_N, True)
    return [_verdict(["check-seq", "--seq", _ints(seq)], reference.s_graphical(seq), LONG_N)]


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


def _verdict(argv: list[str], expect: bool, size: int) -> dict:
    return {"argv": argv, "check": "verdict", "expect": expect, "size": size}


def cli_round(seed: int, rnd: int, workdir: Path) -> list[dict]:
    """Commands for one cli-session round, in a seeded order: four wide
    realize commands, each followed later by degree-set on its file; oracle
    checks of a sequence and a pair at the guard's top size; two small
    enumerate commands; and twelve small default checks."""
    rng = rng_for("cli-session", seed, rnd)
    cmds = []
    for case, top in REALIZE_CLI:
        # small other elements keep the edge count near top**2 per sign side
        elems = degree_set_for(rng, case, REALIZE_CLI_K, top, rest=top // 8)
        out, dot = workdir / f"{case}.sbg", workdir / f"{case}.dot"
        cmds.append({"argv": ["realize", "--set", _ints(elems), "--out", str(out), "--dot", str(dot)],
                     "check": "realize", "set": elems, "case": case, "size": top})
        cmds.append({"argv": ["degree-set", "--in", str(out)], "check": "degree-set", "set": elems, "size": top})

    seq = sequence(rng, 5, rng.random() < 0.5)
    cmds.append(_verdict(["check-seq", "--seq", _ints(seq), "--method", "oracle"], reference.s_graphical(seq), 5))
    p, q = rng.choice(((2, 5), (5, 2)))
    a, b = signed_pair(rng, p, q, rng.random() < 0.5)
    cmds.append(_verdict(["check-pair", "--alpha", _ints(a), "--beta", _ints(b), "--method", "oracle"],
                         reference.signed_pair(a, b), p * q))
    for p, q in rng.sample(((1, 4), (2, 2), (2, 3), (3, 2)), 2):
        cmds.append({"argv": ["enumerate", "--p", str(p), "--q", str(q), "--sets"],
                     "check": "enumerate", "expect": reference.connected_degree_sets(p, q), "size": p * q})
    for i in range(12):
        true = rng.random() < 0.5
        if i % 3 == 0:
            seq = sequence(rng, rng.randint(4, 12), true)
            cmds.append(_verdict(["check-seq", "--seq", _ints(seq)], reference.s_graphical(seq), len(seq)))
            continue
        p, q = rng.randint(2, 8), rng.randint(2, 8)
        if i % 3 == 1:
            a, b = signed_pair(rng, p, q, true)
            cmds.append(_verdict(["check-pair", "--alpha", _ints(a), "--beta", _ints(b)],
                                 reference.signed_pair(a, b), max(p, q)))
        else:
            d, e = unsigned_pair(rng, p, q, true)
            cmds.append(_verdict(["gale-ryser", "--d", _ints(d), "--e", _ints(e)],
                                 reference.gale_ryser(d, e), max(p, q)))
    rng.shuffle(cmds)
    # degree-set reads what realize wrote, so it must run after it
    cmds.sort(key=lambda c: c["check"] == "degree-set")
    return cmds
