"""Ground truth for small signed graphs, from a census of each size.

Every vertex pair (or U x V pair) is a slot holding one of absent, positive,
negative, so a size has 3**slots labelled graphs.  The census of a size is
the set of sorted signed degree sequences those graphs have.  It is not found
by listing them.  A graph grows one vertex at a time, and all the later
vertices can see of it is the multiset of degrees so far.  Vertices of equal
degree are interchangeable, so the new vertex only picks, for each run of
equal degrees, how many members it joins positively and how many
negatively.  The census is memoised per size, so bulk cross-checks pay for it
once.  ``connected_degree_sets`` grows U x V graphs the same way and also
tracks which U vertices share a component.

The exhaustive enumeration of every labelled graph, which defines what the
censuses must hold, lives in the test suite and checks them at small sizes.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import groupby, product

from . import _SizeLimit, _integers

__all__ = [
    "OracleLimitError",
    "MAX_ORACLE_VERTICES",
    "MAX_ORACLE_SLOTS",
    "oracle_s_graphical",
    "oracle_bipartite",
    "connected_degree_sets",
]

MAX_ORACLE_VERTICES = 7  # the n = 7 census takes under a second
MAX_ORACLE_SLOTS = 20  # p*q; the squarest shape, 4 x 5, takes about a second


class OracleLimitError(_SizeLimit):
    """Requested size exceeds the oracle's size guard."""


def _joins(degrees: tuple[int, ...]) -> set[tuple[int, tuple[int, ...]]]:
    """Every (degree of a new vertex, the old degrees after) over all ways to
    join a new vertex to vertices of these non-increasing degrees, each
    outcome once and the old degrees sorted non-increasing."""
    partial = {(0, ())}
    for d, run in groupby(degrees):
        c = len(tuple(run))
        # a of the c members gain a positive edge, b a negative one
        options = [
            (a - b, (d + 1,) * a + (d,) * (c - a - b) + (d - 1,) * b)
            for a in range(c + 1)
            for b in range(c + 1 - a)
        ]
        partial = {(s + x, t + after) for s, t in partial for x, after in options}
    return {(s, tuple(sorted(t, reverse=True))) for s, t in partial}


@lru_cache(maxsize=None)
def _sequence_census(n: int) -> frozenset[tuple[int, ...]]:
    """Every non-increasing signed degree sequence of a graph on n vertices."""
    states = {()}
    for _ in range(n):
        states = {
            tuple(sorted(after + (new,), reverse=True))
            for degrees in states
            for new, after in _joins(degrees)
        }
    return frozenset(states)


@lru_cache(maxsize=None)
def _pair_census(p: int, q: int) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (U, V) pair of non-increasing signed degree sequences of a p x q
    bipartite graph, grown one V vertex at a time."""
    states = {((0,) * p, ())}
    for _ in range(q):
        joins = {u: _joins(u) for u in {u for u, _ in states}}
        states = {
            (u_after, tuple(sorted(v + (new,), reverse=True)))
            for u, v in states
            for new, u_after in joins[u]
        }
    return frozenset(states)


def oracle_s_graphical(seq: Iterable[int]) -> bool:
    """Ground truth: does any signed graph on len(seq) labelled vertices have
    exactly this signed degree sequence (as a multiset)?"""
    vals = tuple(sorted(_integers(seq), reverse=True))
    if len(vals) > MAX_ORACLE_VERTICES:
        raise OracleLimitError(
            f"length {len(vals)} exceeds the oracle guard n <= {MAX_ORACLE_VERTICES}"
        )
    return vals in _sequence_census(len(vals))


def _check_slots(p: int, q: int) -> None:
    if p * q > MAX_ORACLE_SLOTS:
        raise OracleLimitError(
            f"p*q={p * q} exceeds the oracle guard p*q <= {MAX_ORACLE_SLOTS}"
        )


def oracle_bipartite(alpha: Iterable[int], beta: Iterable[int]) -> bool:
    """Ground truth for part sizes (len(alpha), len(beta)): does any signed
    bipartite graph realize this pair of signed degree sequences?"""
    a = tuple(sorted(_integers(alpha), reverse=True))
    b = tuple(sorted(_integers(beta), reverse=True))
    _check_slots(len(a), len(b))
    return (a, b) in _pair_census(len(a), len(b))


def _touches(degrees: tuple[int, ...]) -> set[tuple[int, tuple[int, ...], bool]]:
    """``_joins(degrees)``, each outcome flagged by whether the new vertex joins
    the component: a changed outcome always does; the unchanged one comes both
    ways when two degrees differ by one (d + 1 joined negatively, d positively)."""
    options = {(x, after, after != degrees) for x, after in _joins(degrees)}
    if any(d - e == 1 for d, e in zip(degrees, degrees[1:])):
        options.add((0, degrees, True))
    return options


def _component_joins(
    components: tuple[tuple[int, ...], ...],
) -> set[tuple[tuple[tuple[int, ...], ...], int]]:
    """Every (components after, degree of the new vertex) over all ways to
    join a new V vertex to at least one U vertex.  ``components`` holds the
    non-increasing degrees of the U vertices of each component, sorted."""
    outcomes = set()
    for picks in product(*map(_touches, components)):
        joined = [c for _, c, hit in picks if hit]
        if joined:  # else the new vertex would stay isolated
            after = [c for _, c, hit in picks if not hit]
            after.append(tuple(sorted((d for c in joined for d in c), reverse=True)))
            outcomes.add((tuple(sorted(after)), sum(x for x, _, _ in picks)))
    return outcomes


def connected_degree_sets(p: int, q: int) -> list[tuple[int, ...]]:
    """Every signed degree set of a connected p x q signed bipartite graph,
    each sorted ascending, listed in sorted order."""
    if p < 1 or q < 1:
        raise ValueError("both parts must be nonempty")
    _check_slots(p, q)
    # A graph and its transpose share degree set and connectivity, so the
    # smaller part is U.  A state is (components, bit d + p set for each V
    # degree d so far); an isolated V vertex would disconnect the graph.
    p, q = min(p, q), max(p, q)
    states = {(((0,),) * p, 0)}
    for _ in range(q):
        joins = {c: _component_joins(c) for c in {c for c, _ in states}}
        states = {
            (after, seen | 1 << (new + p))
            for components, seen in states
            for after, new in joins[components]
        }
    found = set()
    for components, seen in states:
        if len(components) == 1:
            v_degrees = {d - p for d in range(2 * p + 1) if seen >> d & 1}
            found.add(tuple(sorted(v_degrees.union(components[0]))))
    return sorted(found)
