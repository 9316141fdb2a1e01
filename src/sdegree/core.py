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

__all__ = [
    "Sign",
    "SignedBipartiteGraph",
    "signed_degree_set",
    "signed_degree_sequences",
    "degree_vectors",
    "is_connected",
    "join_all_positive",
    "flip_signs",
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
        if self.p < 0 or self.q < 0:
            raise ValueError(f"part sizes must be non-negative, got p={self.p}, q={self.q}")
        checked: dict[tuple[int, int], Sign] = {}
        for (u, v), sign in self.edges.items():
            if not (0 <= u < self.p and 0 <= v < self.q):
                raise ValueError(f"edge ({u}, {v}) out of range for p={self.p}, q={self.q}")
            if not isinstance(sign, Sign):
                raise ValueError(f"edge ({u}, {v}) carries a non-sign value {sign!r}")
            checked[(u, v)] = sign
        self.edges = checked
        labels: dict[tuple[str, int], str] = {}
        for (part, idx), tag in self.block_labels.items():
            size = self.p if part == "u" else self.q if part == "v" else -1
            if not 0 <= idx < size:
                raise ValueError(f"label key ({part!r}, {idx}) does not name a vertex")
            labels[(part, idx)] = tag
        self.block_labels = labels

    @classmethod
    def _trusted(
        cls,
        p: int,
        q: int,
        edges: dict[tuple[int, int], Sign],
        block_labels: dict[tuple[str, int], str],
    ) -> "SignedBipartiteGraph":
        """Wrap parts and dicts that are valid by construction, skipping
        ``__post_init__``; the dicts are taken over, not copied."""
        g = object.__new__(cls)
        g.p, g.q, g.edges, g.block_labels = p, q, edges, block_labels
        return g

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
    """Set of distinct signed degrees over all vertices (both parts)."""
    if not isinstance(g, SignedBipartiteGraph):
        raise TypeError(f"not a signed bipartite graph: {g!r}")
    if g.p + g.q == 0:
        raise ValueError("degree set of an empty graph is undefined")
    du, dv = degree_vectors(g)
    return frozenset(du) | frozenset(dv)


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


def flip_signs(g: SignedBipartiteGraph) -> SignedBipartiteGraph:
    """Same graph with every edge sign inverted; every signed degree negates.

    Flipping keeps a valid graph valid, so the result skips validation.
    """
    if not isinstance(g, SignedBipartiteGraph):
        raise TypeError(f"not a signed bipartite graph: {g!r}")
    pos, neg = Sign.POSITIVE, Sign.NEGATIVE
    flipped = {pair: neg if sign is pos else pos for pair, sign in g.edges.items()}
    return SignedBipartiteGraph._trusted(g.p, g.q, flipped, dict(g.block_labels))
