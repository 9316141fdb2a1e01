"""Exhaustive enumeration of small signed graphs as ground truth.

Every vertex pair (or U x V pair) is a slot holding one of absent, positive,
negative, so a size has exactly 3**slots labelled graphs.  Degree membership
queries are answered from a memoised census of the whole space; the census
is cheap at the guarded sizes and makes bulk cross-checks practical.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .core import Sign, SignedBipartiteGraph, is_connected, signed_degree_set

__all__ = [
    "OracleLimitError",
    "MAX_ORACLE_VERTICES",
    "MAX_ORACLE_SLOTS",
    "enumerate_signed_bipartite",
    "oracle_s_graphical",
    "oracle_bipartite",
    "connected_degree_sets",
]

MAX_ORACLE_VERTICES = 6  # 3**15 graphs; anything larger is not a desk run
MAX_ORACLE_SLOTS = 14  # 3**14 bipartite graphs


class OracleLimitError(ValueError):
    """Requested size exceeds the exhaustive-enumeration guard."""


_CHOICES = (None, Sign.POSITIVE, Sign.NEGATIVE)


def _pair_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _cross_slots(p: int, q: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(p) for v in range(q)]


def enumerate_signed_bipartite(p: int, q: int) -> Iterator[SignedBipartiteGraph]:
    """Yield every simple signed bipartite graph on parts of size p and q."""
    if p < 0 or q < 0:
        raise ValueError(f"part sizes must be non-negative, got p={p}, q={q}")
    if p * q > MAX_ORACLE_SLOTS:
        raise OracleLimitError(
            f"p*q={p * q} exceeds the exhaustive guard p*q <= {MAX_ORACLE_SLOTS}"
        )
    slots = _cross_slots(p, q)
    for choice in itertools.product(_CHOICES, repeat=len(slots)):
        edges = {pair: sign for pair, sign in zip(slots, choice) if sign is not None}
        yield SignedBipartiteGraph(p, q, edges)


@lru_cache(maxsize=None)
def _sequence_census(n: int) -> frozenset[tuple[int, ...]]:
    # Degree vectors only; building graph objects here would dominate the cost.
    slots = _pair_slots(n)
    seen: set[tuple[int, ...]] = set()
    for choice in itertools.product((0, 1, -1), repeat=len(slots)):
        deg = [0] * n
        for (i, j), value in zip(slots, choice):
            deg[i] += value
            deg[j] += value
        seen.add(tuple(sorted(deg, reverse=True)))
    return frozenset(seen)


@lru_cache(maxsize=None)
def _pair_census(p: int, q: int) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
    slots = _cross_slots(p, q)
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for choice in itertools.product((0, 1, -1), repeat=len(slots)):
        du = [0] * p
        dv = [0] * q
        for (u, v), value in zip(slots, choice):
            du[u] += value
            dv[v] += value
        seen.add((tuple(sorted(du, reverse=True)), tuple(sorted(dv, reverse=True))))
    return frozenset(seen)


def oracle_s_graphical(seq: Iterable[int]) -> bool:
    """Ground truth: does any signed graph on len(seq) labelled vertices have
    exactly this signed degree sequence (as a multiset)?"""
    vals = tuple(sorted(seq, reverse=True))
    if len(vals) > MAX_ORACLE_VERTICES:
        raise OracleLimitError(
            f"length {len(vals)} exceeds the exhaustive guard n <= {MAX_ORACLE_VERTICES}"
        )
    return vals in _sequence_census(len(vals))


def oracle_bipartite(alpha: Iterable[int], beta: Iterable[int]) -> bool:
    """Ground truth for part sizes (len(alpha), len(beta)): does any signed
    bipartite graph realize this pair of signed degree sequences?"""
    a = tuple(sorted(alpha, reverse=True))
    b = tuple(sorted(beta, reverse=True))
    if len(a) * len(b) > MAX_ORACLE_SLOTS:
        raise OracleLimitError(
            f"p*q={len(a) * len(b)} exceeds the exhaustive guard p*q <= {MAX_ORACLE_SLOTS}"
        )
    return (a, b) in _pair_census(len(a), len(b))


def connected_degree_sets(p: int, q: int) -> list[tuple[int, ...]]:
    """Every signed degree set of a connected p x q signed bipartite graph,
    each sorted ascending, listed in sorted order."""
    if p < 1 or q < 1:
        raise ValueError("both parts must be nonempty")
    found: set[tuple[int, ...]] = set()
    for g in enumerate_signed_bipartite(p, q):
        if is_connected(g):
            found.add(tuple(sorted(signed_degree_set(g))))
    return sorted(found)
