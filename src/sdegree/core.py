"""Signed bipartite graphs with +/- edge labels.

The signed degree of a vertex is the number of positive incident edges minus
the number of negative ones.  Graphs are simple: a vertex pair carries at
most one edge, and that edge has exactly one sign.  Graph values are treated
as immutable; every operation that "changes" a graph returns a new one.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat

__all__ = [
    "Sign",
    "SignedBipartiteGraph",
    "signed_degree_set",
    "signed_degree_sequences",
    "degree_vectors",
    "is_connected",
    "join_all_positive",
]


class Sign(enum.Enum):
    """Edge label: positive or negative."""

    POSITIVE = 1
    NEGATIVE = -1

    def __str__(self) -> str:
        return "+" if self is Sign.POSITIVE else "-"


@dataclass(eq=False)
class SignedBipartiteGraph:
    """Simple bipartite graph with parts U (size p) and V (size q).

    Edges join U to V only and are keyed by (u_index, v_index), 0-based.
    ``block_labels`` optionally tags vertices (keys ("u", i) or ("v", j))
    with the name of the construction block that produced them; labels are
    metadata and never participate in equality.
    """

    p: int
    q: int
    edges: dict[tuple[int, int], Sign] = field(default_factory=dict)
    block_labels: dict[tuple[str, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p < 0 or q < 0:
            raise ValueError(f"part sizes must be non-negative, got p={p}, q={q}")
        self.edges = edges = dict(self.edges)
        for u, v in edges:
            if not (0 <= u < p and 0 <= v < q):
                raise ValueError(f"edge ({u}, {v}) out of range for p={p}, q={q}")
        if not all(map(isinstance, edges.values(), repeat(Sign))):
            (u, v), sign = next(item for item in edges.items() if not isinstance(item[1], Sign))
            raise ValueError(f"edge ({u}, {v}) carries a non-sign value {sign!r}")
        self.block_labels = labels = dict(self.block_labels)
        for part, idx in labels:
            size = p if part == "u" else q if part == "v" else -1
            if not 0 <= idx < size:
                raise ValueError(f"label key ({part!r}, {idx}) does not name a vertex")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedBipartiteGraph):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.edges == other.edges


def degree_vectors(g: SignedBipartiteGraph) -> tuple[list[int], list[int]]:
    """Signed degree of every U vertex and every V vertex, by index."""
    du = [0] * g.p
    dv = [0] * g.q
    pos = Sign.POSITIVE
    for (u, v), sign in g.edges.items():
        if sign is pos:
            du[u] += 1
            dv[v] += 1
        else:
            du[u] -= 1
            dv[v] -= 1
    return du, dv


def signed_degree_set(g: SignedBipartiteGraph) -> frozenset[int]:
    """Set of distinct signed degrees over all vertices (both parts).

    As in ``is_connected``, a graph with fewer edges than vertices minus one
    gets no per-vertex allocation: only touched vertices are counted, and an
    untouched one adds degree 0.
    """
    if not isinstance(g, SignedBipartiteGraph):
        raise TypeError(f"not a signed bipartite graph: {g!r}")
    total = g.p + g.q
    if total == 0:
        raise ValueError("degree set of an empty graph is undefined")
    if len(g.edges) >= total - 1:
        du, dv = degree_vectors(g)
        return frozenset(du) | frozenset(dv)
    degree: dict[int, int] = {}  # U vertex u at key u, V vertex v at key p + v
    for (u, v), sign in g.edges.items():
        step = 1 if sign is Sign.POSITIVE else -1
        degree[u] = degree.get(u, 0) + step
        degree[g.p + v] = degree.get(g.p + v, 0) + step
    touched = frozenset(degree.values())
    return touched | {0} if len(degree) < total else touched


def signed_degree_sequences(
    g: SignedBipartiteGraph,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Part-wise signed degree sequences, each sorted non-increasing."""
    if g.p == 0 or g.q == 0:
        raise ValueError("both parts must be nonempty")
    du, dv = degree_vectors(g)
    return tuple(sorted(du, reverse=True)), tuple(sorted(dv, reverse=True))


def is_connected(g: SignedBipartiteGraph) -> bool:
    """True when the underlying unsigned graph has a single component.

    Signs are ignored; a one-vertex graph counts as connected.  Fewer edges
    than vertices minus one cannot connect the graph, so that answer comes
    before any per-vertex allocation.
    """
    if not isinstance(g, SignedBipartiteGraph):
        raise TypeError(f"not a signed bipartite graph: {g!r}")
    total = g.p + g.q
    if total == 0:
        raise ValueError("connectivity of an empty graph is undefined")
    if len(g.edges) < total - 1:
        return False
    adjacency: list[list[int]] = [[] for _ in range(total)]
    for u, v in g.edges:
        adjacency[u].append(g.p + v)
        adjacency[g.p + v].append(u)
    reached = [False] * total
    reached[0] = True
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if not reached[nxt]:
                reached[nxt] = True
                stack.append(nxt)
    return all(reached)


def join_all_positive(
    g: SignedBipartiteGraph, xs: Iterable[int], ys: Iterable[int]
) -> SignedBipartiteGraph:
    """Copy of ``g`` with a positive edge from every x in xs to every y in ys.

    Raises if any such pair already carries an edge.  Each x gains len(ys)
    signed degree and each y gains len(xs).
    """
    xs = sorted(set(xs))
    ys = sorted(set(ys))
    if any(not 0 <= x < g.p for x in xs) or any(not 0 <= y < g.q for y in ys):
        raise ValueError("join endpoints must be existing vertices")
    edges = dict(g.edges)
    for x in xs:
        for y in ys:
            if (x, y) in edges:
                raise ValueError(f"pair ({x}, {y}) already has an edge")
            edges[(x, y)] = Sign.POSITIVE
    return SignedBipartiteGraph(g.p, g.q, edges, dict(g.block_labels))
