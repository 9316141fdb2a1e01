"""Write data/realize_catalogue.json: the realize-blocks input pool and the
byte-identity digests of its graphs.

For each of the six multi-element cases and each element count k in
workloads.REALIZE_K, 4 seeded degree sets with largest magnitude
workloads.realize_top(k), plus {0}.  Each stratum keeps the 4 of 12 seeded
candidates whose predicted edge count is nearest the candidates' median, so
that every draw from a stratum asks for about the same work and memory.  Each entry stores the set, its case, the edge count of
realize_set's graph and the SHA-256 of emit_graph's text.  The digests were made at the commit that added
the benchmark; a later commit that changes any graph fails the gate.

    python3 perfbench/make_catalogue.py      # from the repository root
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from sdegree import emit_graph, realize_set  # noqa: E402

PER_STRATUM = 4
CANDIDATES = 12


def predicted_edges(elems: list[int]) -> int:
    """Edges of the block construction summed over the sign sides: for
    magnitudes t_1 < ... < t_m, sum (t_i - t_(i-1)) t_i + sum t_(i-1) t_i."""
    total = 0
    for side in ([x for x in elems if x > 0], sorted(-x for x in elems if x < 0)):
        prev = 0
        for t in side:
            total += (t - prev) * t + prev * t
            prev = t
    return total


def entry(elems: list[int]) -> dict:
    graph = realize_set(elems).graph
    return {
        "set": elems,
        "case": workloads.case_of(elems),
        "edges": len(graph.edges),
        "sha256": hashlib.sha256(emit_graph(graph).encode()).hexdigest(),
    }


def main() -> None:
    rng = random.Random("realize-catalogue")
    entries = [entry([0])]
    for case in workloads.CASES:
        for k in workloads.REALIZE_K:
            seen: set[tuple[int, ...]] = set()
            while len(seen) < CANDIDATES:
                seen.add(tuple(workloads.degree_set_for(rng, case, k, workloads.realize_top(k))))
            candidates = sorted(seen, key=predicted_edges)
            middle = candidates[len(candidates) // 2]
            candidates.sort(key=lambda c: (abs(predicted_edges(c) - predicted_edges(middle)), c))
            entries += [entry(list(c)) for c in sorted(candidates[:PER_STRATUM])]
    workloads.CATALOGUE.parent.mkdir(exist_ok=True)
    text = json.dumps({"sets": entries}, separators=(",", ":"))
    workloads.CATALOGUE.write_text(text.replace('},{"set"', '},\n{"set"') + "\n")
    print(f"wrote {len(entries)} sets to {workloads.CATALOGUE}")


if __name__ == "__main__":
    main()
