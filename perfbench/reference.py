"""Reference verdicts that share no code with the sdegree package.

- ``s_graphical``: a sequence d of length n is the signed degree sequence of a
  signed graph iff d_i + n - 1 is the degree sequence of a loopless multigraph
  with edge multiplicity at most 2 (slot value y in {-1, 0, 1} becomes y + 1).
  That is Chungphaisan's theorem (1974), the b = 2 case of Erdos-Gallai.
- ``signed_pair``: (alpha, beta) with |alpha| = p, |beta| = q is realizable iff
  the margins (alpha + q, beta + p) fill a p x q matrix with entries in
  {0, 1, 2}: the capacity-2 Gale-Ryser test.
- ``gale_ryser``: the classical test for unsigned bipartite degree pairs.
- ``connected_degree_sets``: brute force over every small signed bipartite
  graph, for the CLI's ``enumerate`` command.

``validate`` checks the first three against the package's exhaustive oracles
(and the unsigned test against a 0/1 brute force) at every small size, so a
wrong reference fails the benchmark's set-up instead of marking good verdicts
as wrong.
"""

from __future__ import annotations

import itertools
from collections import deque


def _capacity_test(rows: list[int], cols: list[int], cap: int) -> bool:
    """Can a len(rows) x len(cols) matrix with entries in 0..cap have these
    row and column sums?  Gale-Ryser with capacity ``cap`` (max-flow min-cut):
    equal sums and sum_{i<=k} r_i <= sum_j min(cap*k, c_j) for every k."""
    p, q = len(rows), len(cols)
    if any(not 0 <= r <= cap * q for r in rows) or any(not 0 <= c <= cap * p for c in cols):
        return False
    if sum(rows) != sum(cols):
        return False
    rows = sorted(rows, reverse=True)
    cols = sorted(cols, reverse=True)
    col_prefix = list(itertools.accumulate(cols, initial=0))
    big = q  # number of columns with c_j > cap*k; shrinks as k grows
    lhs = 0
    for k in range(1, p + 1):
        lhs += rows[k - 1]
        while big and cols[big - 1] <= cap * k:
            big -= 1
        if lhs > cap * k * big + col_prefix[q] - col_prefix[big]:
            return False
    return True


def s_graphical(seq) -> bool:
    """Chungphaisan (b = 2) on the shifted sequence d_i + n - 1."""
    n = len(seq)
    f = sorted((d + n - 1 for d in seq), reverse=True)
    if n == 0:
        return True
    if f[-1] < 0 or f[0] > 2 * (n - 1) or sum(f) % 2:
        return False
    prefix = list(itertools.accumulate(f, initial=0))
    big = n  # number of entries with f_i > 2k
    for k in range(1, n + 1):
        while big and f[big - 1] <= 2 * k:
            big -= 1
        # entries after position k: those still above 2k count 2k each
        capped = max(0, big - k)
        rest = prefix[n] - prefix[max(k, big)]
        if prefix[k] > 2 * k * (k - 1) + 2 * k * capped + rest:
            return False
    return True


def signed_pair(alpha, beta) -> bool:
    """Capacity-2 Gale-Ryser on the margins (alpha + q, beta + p)."""
    p, q = len(alpha), len(beta)
    return _capacity_test([a + q for a in alpha], [b + p for b in beta], 2)


def gale_ryser(d, e) -> bool:
    """Classical Gale-Ryser for an unsigned bipartite degree pair."""
    return _capacity_test(list(d), list(e), 1)


def _connected(p: int, q: int, edges: list[tuple[int, int]]) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(p + q)]
    for u, v in edges:
        adjacency[u].append(p + v)
        adjacency[p + v].append(u)
    seen = {0}
    todo = deque([0])
    while todo:
        for nxt in adjacency[todo.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == p + q


def connected_degree_sets(p: int, q: int) -> list[tuple[int, ...]]:
    """Every signed degree set of a connected p x q signed bipartite graph,
    sorted, by enumerating all 3**(p*q) labelled graphs."""
    slots = [(u, v) for u in range(p) for v in range(q)]
    found = set()
    for choice in itertools.product((0, 1, -1), repeat=len(slots)):
        edges = [slot for slot, y in zip(slots, choice) if y]
        if not _connected(p, q, edges):
            continue
        deg = [0] * (p + q)
        for (u, v), y in zip(slots, choice):
            deg[u] += y
            deg[p + v] += y
        found.add(tuple(sorted(set(deg))))
    return sorted(found)


def _unsigned_pairs(p: int, q: int) -> frozenset:
    slots = [(u, v) for u in range(p) for v in range(q)]
    seen = set()
    for choice in itertools.product((0, 1), repeat=len(slots)):
        du, dv = [0] * p, [0] * q
        for (u, v), bit in zip(slots, choice):
            du[u] += bit
            dv[v] += bit
        seen.add((tuple(sorted(du, reverse=True)), tuple(sorted(dv, reverse=True))))
    return frozenset(seen)


def _multisets(values, size):
    return itertools.combinations_with_replacement(values, size)


def validate(max_n: int = 5, max_slots: int = 8) -> int:
    """Compare every reference with exhaustive enumeration at small sizes.

    Sequences: every multiset of length n <= max_n with entries in [-n, n].
    Pairs: every p x q with p*q <= max_slots, entries one beyond their range.
    Raises AssertionError naming the first disagreement; returns the number
    of inputs checked.
    """
    from sdegree import oracle_bipartite, oracle_s_graphical

    checked = 0
    for n in range(max_n + 1):
        for seq in _multisets(range(-n, n + 1), n):
            if s_graphical(seq) != oracle_s_graphical(seq):
                raise AssertionError(f"s_graphical disagrees with the oracle on {seq}")
            checked += 1
    for p in range(1, max_slots + 1):
        for q in range(1, max_slots // p + 1):
            unsigned = _unsigned_pairs(p, q)
            for a in _multisets(range(q + 1, -q - 2, -1), p):
                for b in _multisets(range(p + 1, -p - 2, -1), q):
                    if signed_pair(a, b) != oracle_bipartite(a, b):
                        raise AssertionError(f"signed_pair disagrees with the oracle on {a}, {b}")
                    checked += 1
            for d in _multisets(range(q + 1, -1, -1), p):
                for e in _multisets(range(p + 1, -1, -1), q):
                    if gale_ryser(d, e) != ((d, e) in unsigned):
                        raise AssertionError(f"gale_ryser disagrees with brute force on {d}, {e}")
                    checked += 1
    return checked
