"""Constructions that realize a prescribed signed degree set as a connected
signed bipartite graph.

Positive sets use an all-positive block construction; sets with no positive
element but a negative one are the sign mirror of the non-negative case, with
every edge sign flipped; {0} is a 2x2 square with alternating signs.  Every
other mixture is glued from those pieces with degree-neutral edges: each
touched vertex gains one positive and one negative edge, so existing signed
degrees never move.

``realize_set`` builds its graph in one pass, in time linear in the edge
count: every block join goes straight into one edge dict, and the internal
pieces skip validation.  The result is validated once, and its degree set and
connectivity are checked once, at the public boundary.
``core.join_all_positive`` stays bound here: it is the tests' blockwise
reference for the positive construction, and perfbench wraps it on this
module.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, product

from .core import (  # noqa: F401 -- perfbench/tracing.py wraps the unused names here
    Sign,
    SignedBipartiteGraph,
    flip_signs,
    is_connected,
    join_all_positive,
    signed_degree_sequences,
    signed_degree_set,
)

__all__ = [
    "RealizationReport",
    "realize_positive_set",
    "realize_negative_set",
    "realize_zero_set",
    "realize_set",
]


@dataclass
class RealizationReport:
    """A constructed graph plus the construction case that produced it and
    the sizes of its building blocks."""

    graph: SignedBipartiteGraph
    case_used: str
    block_sizes: list[tuple[str, int]]


_GADGET_BLOCKS = [("x_1", 1), ("x_2", 1), ("y_1", 1), ("y_2", 1)]

# case of a non-negative set -> case of its sign mirror
_MIRRORED_CASES = {"positive": "negative", "nonneg_with_zero": "nonpos_with_zero"}


def _validated_set(
    s: Iterable[int], *, lo: int | None = None, hi: int | None = None, kind: str = "degree"
) -> frozenset[int]:
    elems = frozenset(int(x) for x in s)
    if not elems:
        raise ValueError(f"{kind} set must be nonempty")
    if lo is not None and min(elems) < lo:
        raise ValueError(f"{kind} set requires elements >= {lo}, got {sorted(elems)}")
    if hi is not None and max(elems) > hi:
        raise ValueError(f"{kind} set requires elements <= {hi}, got {sorted(elems)}")
    return elems


def _tagged(tag: str, sizes: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(f"{tag}.{name}", size) for name, size in sizes]


def _positive_blocks(
    targets: list[int],
) -> tuple[SignedBipartiteGraph, list[tuple[str, int]]]:
    """The block graph of ``realize_positive_set`` for ascending targets,
    unvalidated, with its block sizes.  Both parts share one layout (X_1,
    X_2, X_2', X_3, ... and Y_1, Y_2, Y_2', Y_3, ...), so Y_i' directly
    follows Y_i and X_i' joins one contiguous range."""
    labels: dict[tuple[str, int], str] = {}
    block_sizes: list[tuple[str, int]] = []
    joins = []
    y_blocks: list[range] = []  # Y_1 .. Y_i
    start = prev = 0
    for i, target in enumerate(targets, start=1):
        block = range(start, start + target - prev)
        primed = range(block.stop, start + target)
        named = [(f"_{i}", block)] + ([(f"_{i}'", primed)] if i > 1 else [])
        for part, letter in (("u", "X"), ("v", "Y")):
            for suffix, members in named:
                name = letter + suffix
                block_sizes.append((name, len(members)))
                labels.update(dict.fromkeys(((part, j) for j in members), name))
        y_blocks.append(block)
        joins.extend(product(block, ys) for ys in y_blocks)
        joins.append(product(primed, range(start, start + target)))  # Y_i and Y_i'
        start += target
        prev = target
    edges = dict.fromkeys(chain.from_iterable(joins), Sign.POSITIVE)
    return SignedBipartiteGraph._trusted(start, start, edges, labels), block_sizes


def _zero_square() -> SignedBipartiteGraph:
    edges = {
        (0, 0): Sign.POSITIVE,
        (1, 1): Sign.POSITIVE,
        (0, 1): Sign.NEGATIVE,
        (1, 0): Sign.NEGATIVE,
    }
    return SignedBipartiteGraph._trusted(2, 2, edges, {})


def realize_positive_set(s: Iterable[int]) -> RealizationReport:
    """Connected all-positive graph whose distinct signed degrees are exactly s.

    For targets s1 < ... < sn, block X_i/Y_i has size s_i - s_(i-1) and block
    X_i'/Y_i' has size s_(i-1); complete positive joins run X_i to Y_j for
    i >= j, X_i' to Y_i, and X_i' to Y_i'.  Every x in X_i or X_i' lands on
    degree s_i, every y in Y_i on s_n, every y in Y_i' on s_(i-1), and each
    part ends up with sum(s) vertices.
    """
    return realize_set(_validated_set(s, lo=1, kind="positive"))


def realize_negative_set(s: Iterable[int]) -> RealizationReport:
    """Mirror construction: realize the negated set all-positive, then flip
    every edge sign, which negates every signed degree."""
    return realize_set(_validated_set(s, hi=-1, kind="negative"))


def realize_zero_set() -> RealizationReport:
    """The 2x2 square whose four vertices all have signed degree zero: one
    positive and one negative edge at every vertex."""
    return realize_set({0})


def _attach_zero_gadget(g: SignedBipartiteGraph, u1: int, v1: int) -> SignedBipartiteGraph:
    """Extend a connected graph with vertices x1, x2 (U side) and y1, y2
    (V side), all four at signed degree zero, moving no existing degree.

    New edges: positive u1-y1, x1-v1, x2-y2 and negative u1-y2, x1-y1,
    x2-v1; each touched vertex gains one edge of each sign.  The new
    vertices take the next indices after the existing ones.
    """
    x1, x2 = g.p, g.p + 1
    y1, y2 = g.q, g.q + 1
    edges = dict(g.edges)
    edges[(u1, y1)] = Sign.POSITIVE
    edges[(x1, v1)] = Sign.POSITIVE
    edges[(x2, y2)] = Sign.POSITIVE
    edges[(u1, y2)] = Sign.NEGATIVE
    edges[(x1, y1)] = Sign.NEGATIVE
    edges[(x2, v1)] = Sign.NEGATIVE
    labels = dict(g.block_labels)
    labels[("u", x1)] = "x_1"
    labels[("u", x2)] = "x_2"
    labels[("v", y1)] = "y_1"
    labels[("v", y2)] = "y_2"
    return SignedBipartiteGraph._trusted(g.p + 2, g.q + 2, edges, labels)


def _concat(
    *graphs: SignedBipartiteGraph,
) -> tuple[SignedBipartiteGraph, list[int], list[int]]:
    """Disjoint union; parts are concatenated in argument order.  Returns the
    union plus the U and V index offsets of every piece.  The union is a
    fresh graph, so callers may extend its dicts in place."""
    edges: dict[tuple[int, int], Sign] = {}
    labels: dict[tuple[str, int], str] = {}
    u_offsets: list[int] = []
    v_offsets: list[int] = []
    p = q = 0
    for g in graphs:
        u_offsets.append(p)
        v_offsets.append(q)
        for (u, v), sign in g.edges.items():
            edges[(u + p, v + q)] = sign
        for (part, idx), tag in g.block_labels.items():
            labels[(part, idx + (p if part == "u" else q))] = tag
        p += g.p
        q += g.q
    return SignedBipartiteGraph._trusted(p, q, edges, labels), u_offsets, v_offsets


def _bridge_mixed(
    g1: SignedBipartiteGraph,
    g1_copy: SignedBipartiteGraph,
    g2: SignedBipartiteGraph,
    g2_copy: SignedBipartiteGraph,
) -> SignedBipartiteGraph:
    """Disjoint union of four connected graphs (concatenated in argument
    order) plus four degree-neutral bridge edges that connect the result.

    The bridge runs between the first u-vertex of g1 and of g1_copy and the
    first v-vertex of g2 and of g2_copy: positive u1-v2', u1'-v2 and negative
    u1-v2, u1'-v2'.  Every bridge endpoint gains one edge of each sign.
    Each copy must mirror its original (part sizes and degree sequences);
    graphs are values, so a piece may be passed as its own copy.
    """
    merged, u_off, v_off = _concat(g1, g1_copy, g2, g2_copy)
    u1, u1c = u_off[0], u_off[1]
    v2, v2c = v_off[2], v_off[3]
    edges = merged.edges
    edges[(u1, v2c)] = Sign.POSITIVE
    edges[(u1c, v2)] = Sign.POSITIVE
    edges[(u1, v2)] = Sign.NEGATIVE
    edges[(u1c, v2c)] = Sign.NEGATIVE
    return merged


def _bridge_with_zero(g1: SignedBipartiteGraph, g2: SignedBipartiteGraph) -> SignedBipartiteGraph:
    """Disjoint union of two connected graphs plus fresh vertices x (U side)
    and y (V side), joined degree-neutrally; x and y sit at signed degree
    zero and the whole graph comes out connected.

    New edges: positive u1-v2, u2-y, x-v1 and negative u1-y, u2-v1, x-v2,
    where u_i, v_i are the first vertices of each part of g_i.
    """
    merged, u_off, v_off = _concat(g1, g2)
    x, y = merged.p, merged.q
    u1, v1 = u_off[0], v_off[0]
    u2, v2 = u_off[1], v_off[1]
    edges = merged.edges
    edges[(u1, v2)] = Sign.POSITIVE
    edges[(u2, y)] = Sign.POSITIVE
    edges[(x, v1)] = Sign.POSITIVE
    edges[(u1, y)] = Sign.NEGATIVE
    edges[(u2, v1)] = Sign.NEGATIVE
    edges[(x, v2)] = Sign.NEGATIVE
    merged.block_labels[("u", x)] = "x"
    merged.block_labels[("v", y)] = "y"
    return SignedBipartiteGraph._trusted(x + 1, y + 1, edges, merged.block_labels)


def _build(
    elems: frozenset[int],
) -> tuple[SignedBipartiteGraph, str, list[tuple[str, int]]]:
    """Unvalidated construction for a nonempty set: graph, case, blocks."""
    positives = sorted(x for x in elems if x > 0)
    negatives = frozenset(x for x in elems if x < 0)
    if not positives and negatives:
        # sign mirror of the non-negative construction, gadget included
        graph, case, block_sizes = _build(frozenset(-x for x in elems))
        return flip_signs(graph), _MIRRORED_CASES[case], block_sizes
    if not positives:
        return _zero_square(), "zero_only", [("U", 2), ("V", 2)]
    g1, blocks1 = _positive_blocks(positives)
    if not negatives:
        if 0 not in elems:
            return g1, "positive", blocks1
        return _attach_zero_gadget(g1, 0, 0), "nonneg_with_zero", blocks1 + _GADGET_BLOCKS
    g2, _, blocks2 = _build(negatives)
    if 0 not in elems:
        block_sizes = (
            _tagged("G1", blocks1)
            + _tagged("G1'", blocks1)
            + _tagged("G2", blocks2)
            + _tagged("G2'", blocks2)
        )
        return _bridge_mixed(g1, g1, g2, g2), "mixed_nonzero", block_sizes
    block_sizes = _tagged("G1", blocks1) + _tagged("G2", blocks2) + [("x", 1), ("y", 1)]
    return _bridge_with_zero(g1, g2), "mixed_with_zero", block_sizes


def realize_set(s: Iterable[int]) -> RealizationReport:
    """Build a connected signed bipartite graph whose set of distinct signed
    degrees is exactly s, dispatching on the sign pattern of s.

    The graph is validated once and its degree set and connectivity are
    checked once; a miss raises AssertionError, also under ``python -O``.
    """
    elems = _validated_set(s)
    piece, case, block_sizes = _build(elems)
    graph = SignedBipartiteGraph(piece.p, piece.q, piece.edges, piece.block_labels)
    if signed_degree_set(graph) != elems or not is_connected(graph):
        raise AssertionError(f"construction for {sorted(elems)} missed its target")
    return RealizationReport(graph, case, block_sizes)
