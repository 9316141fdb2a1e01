"""Signed bipartite graphs with +/- edge labels.

The signed degree of a vertex is the number of positive incident edges minus
the number of negative ones.  Graphs are simple: a vertex pair carries at
most one edge, and that edge has exactly one sign.  Graph values are treated
as immutable; every operation that "changes" a graph returns a new one.
"""

from __future__ import annotations

import enum
from collections.abc import Collection, Iterable, Mapping
from itertools import repeat

# signed_degree_sequences and join_all_positive are not listed: only the
# tests call them, and perfbench wraps them where sdegree.realize binds them.
__all__ = [
    "Sign",
    "SignedBipartiteGraph",
    "signed_degree_set",
    "degree_vectors",
    "is_connected",
]


class Sign(enum.Enum):
    """Edge label: positive or negative."""

    POSITIVE = 1
    NEGATIVE = -1

    def __str__(self) -> str:
        return "+" if self is Sign.POSITIVE else "-"


class SignedBipartiteGraph:
    """Simple bipartite graph with parts U (size p) and V (size q).

    Edges join U to V only and are keyed by (u_index, v_index), 0-based: a
    key must be a 2-tuple of ints.
    ``block_labels`` optionally tags vertices (keys ("u", i) or ("v", j))
    with the name of the construction block that produced them, a nonempty
    string without whitespace; labels are metadata and never participate in
    equality.
    """

    def __init__(
        self,
        p: int,
        q: int,
        edges: Mapping[tuple[int, int], Sign] = {},  # copied, never mutated
        block_labels: Mapping[tuple[str, int], str] = {},
    ) -> None:
        self.p = p
        self.q = q
        self.edges = edges
        self.block_labels = block_labels
        # perfbench/tracing.py times this step as core.verify by its name
        self.__post_init__()

    def __post_init__(self) -> None:
        """Copy both dicts and validate them; nothing is re-inserted."""
        p, q = self.p, self.q
        if not (isinstance(p, int) and isinstance(q, int)):
            raise ValueError(f"part sizes must be ints, got p={p!r}, q={q!r}")
        if p < 0 or q < 0:
            raise ValueError(f"part sizes must be non-negative, got p={p}, q={q}")
        self.edges = edges = dict(self.edges)
        if not _vertex_pairs(edges, p, q):
            raise ValueError(_first_bad_key(edges, p, q))
        if not all(map(isinstance, edges.values(), repeat(Sign))):
            (u, v), sign = next(item for item in edges.items() if not isinstance(item[1], Sign))
            raise ValueError(f"edge ({u}, {v}) carries a non-sign value {sign!r}")
        self.block_labels = labels = dict(self.block_labels)
        for (part, idx), tag in labels.items():
            size = p if part == "u" else q if part == "v" else -1
            if not 0 <= idx < size:
                raise ValueError(f"label key ({part!r}, {idx}) does not name a vertex")
            # the edge-list format writes a tag as one whitespace-free word
            if not (isinstance(tag, str) and tag.split() == [tag]):
                raise ValueError(f"label tag {tag!r} of ({part!r}, {idx}) is not one word")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedBipartiteGraph):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.edges == other.edges

    def __repr__(self) -> str:
        return (
            f"SignedBipartiteGraph(p={self.p!r}, q={self.q!r}, "
            f"edges={self.edges!r}, block_labels={self.block_labels!r})"
        )


def _vertex_pairs(keys: Iterable, p: int, q: int) -> bool:
    """True when every key is a 2-tuple (u, v) of ints with 0 <= u < p and
    0 <= v < q: one C-level pass over the key types, then the one loop that
    unpacks and range-checks."""
    if not all(map(isinstance, keys, repeat(tuple))):
        return False
    try:
        for u, v in keys:
            # u | v is negative when u or v is, and raises TypeError unless
            # both are integers
            if not (u < p and v < q and (u | v) >= 0):
                return False
    except (TypeError, ValueError):  # not integers, or not a pair
        return False
    return True


def _first_bad_key(keys: Iterable, p: int, q: int) -> str:
    """The error message for the first key ``_vertex_pairs`` refuses."""
    for key in keys:
        if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(i, int) for i in key)):
            return f"edge key {key!r} is not a pair of ints"
        u, v = key
        if not (0 <= u < p and 0 <= v < q):
            return f"edge ({u}, {v}) out of range for p={p}, q={q}"
    return "edge keys must be pairs of ints"


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

    Signs are ignored; a one-vertex graph counts as connected.
    """
    if not isinstance(g, SignedBipartiteGraph):
        raise TypeError(f"not a signed bipartite graph: {g!r}")
    if g.p + g.q == 0:
        raise ValueError("connectivity of an empty graph is undefined")
    return _connected(g.p, g.q, g.edges)


def _connected(p: int, q: int, pairs: Collection[tuple[int, int]]) -> bool:
    """Whether joining U vertex u to V vertex v for each (u, v) in pairs
    leaves the p + q vertices in one component; a vertex in no pair stays
    apart.  Fewer pairs than vertices minus one cannot connect them, so that
    answer comes before any per-vertex allocation."""
    if len(pairs) < p + q - 1:
        return False
    if not pairs:
        return True  # the one vertex of a 1 x 0 or 0 x 1 graph
    # One adjacency list per vertex of each part, holding the pairs' own
    # ints, so no vertex number is computed (and allocated) per pair end.
    # The search reaches V vertices from U vertex 0 and U vertices through
    # each V vertex the first time it is reached.
    u_nbrs: list[list[int]] = [[] for _ in range(p)]
    v_nbrs: list[list[int]] = [[] for _ in range(q)]
    for u, v in pairs:
        u_nbrs[u].append(v)
        v_nbrs[v].append(u)
    u_reached = [False] * p
    v_reached = [False] * q
    u_reached[0] = True
    stack = [0]
    while stack:
        for v in u_nbrs[stack.pop()]:
            if not v_reached[v]:
                v_reached[v] = True
                for u in v_nbrs[v]:
                    if not u_reached[u]:
                        u_reached[u] = True
                        stack.append(u)
    return all(u_reached) and all(v_reached)


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
