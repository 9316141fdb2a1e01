"""Constructions that realize a prescribed signed degree set as a connected
signed bipartite graph.

Positive sets use an all-positive block construction; sets with no positive
element but a negative one are the sign mirror of the non-negative case, with
every edge sign flipped; {0} is a 2x2 square with alternating signs.  Every
other mixture is glued from those pieces with degree-neutral edges: each
touched vertex gains one positive and one negative edge, so existing signed
degrees never move.

Until its last step a construction is a ``_Layout``: part sizes, a list of
signed rectangles (a complete join of two vertex ranges, all of one sign), a
few single signed edges (the zero square, the gadget and the bridges) and
label runs.  A disjoint union only offsets ranges and the sign mirror only
flips signs, so ``realize_set`` creates every edge once, in time linear in
the edge count, and validates the graph once; its degree set and
connectivity are checked once, at the public boundary.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, product, repeat
from typing import NamedTuple

from .core import (  # noqa: F401 -- perfbench/tracing.py wraps the unused names here
    Sign,
    SignedBipartiteGraph,
    is_connected,
    join_all_positive,
    signed_degree_sequences,
    signed_degree_set,
)

__all__ = ["RealizationReport", "realize_set"]

_POS, _NEG = Sign.POSITIVE, Sign.NEGATIVE
_FLIPPED = {_POS: _NEG, _NEG: _POS}


class RealizationReport(NamedTuple):
    """A constructed graph plus the construction case that produced it and
    the sizes of its building blocks."""

    graph: SignedBipartiteGraph
    case_used: str
    block_sizes: list[tuple[str, int]]


class _Layout(NamedTuple):
    """A construction before its edges exist.  Layouts are values: every
    step returns a new one and never changes its arguments' lists."""

    p: int
    q: int
    rects: list[tuple[range, range, Sign]]  # every pair in xs x ys, one sign
    singles: list[tuple[tuple[int, int], Sign]]
    labels: list[tuple[str, range, str]]  # (part, members, block name)


_GADGET_BLOCKS = [("x_1", 1), ("x_2", 1), ("y_1", 1), ("y_2", 1)]

# case of a non-negative set -> case of its sign mirror
_MIRRORED_CASES = {"positive": "negative", "nonneg_with_zero": "nonpos_with_zero"}


def _tagged(tag: str, sizes: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(f"{tag}.{name}", size) for name, size in sizes]


def _shifted(r: range, by: int) -> range:
    return range(r.start + by, r.stop + by)


def _signed(positive: list[tuple[int, int]], negative: list[tuple[int, int]]) -> list:
    return [(pair, _POS) for pair in positive] + [(pair, _NEG) for pair in negative]


def _single_vertices(*named: tuple[str, int, str]) -> list[tuple[str, range, str]]:
    return [(part, range(i, i + 1), name) for part, i, name in named]


def _positive_blocks(targets: list[int]) -> tuple[_Layout, list[tuple[str, int]]]:
    """The all-positive block layout for ascending positive targets, with
    its block sizes.

    For targets s1 < ... < sn, block X_i/Y_i has size s_i - s_(i-1) and block
    X_i'/Y_i' has size s_(i-1); complete positive joins run X_i to Y_j for
    i >= j, X_i' to Y_i, and X_i' to Y_i'.  Every x in X_i or X_i' lands on
    degree s_i, every y in Y_i on s_n, every y in Y_i' on s_(i-1), and each
    part ends up with sum(s) vertices.  Both parts share one layout (X_1,
    X_2, X_2', X_3, ... and Y_1, Y_2, Y_2', Y_3, ...), so Y_i' directly
    follows Y_i and X_i' joins one contiguous range."""
    rects: list[tuple[range, range, Sign]] = []
    labels: list[tuple[str, range, str]] = []
    block_sizes: list[tuple[str, int]] = []
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
                labels.append((part, members, name))
        y_blocks.append(block)
        rects.extend((block, ys, _POS) for ys in y_blocks)
        rects.append((primed, range(start, start + target), _POS))  # Y_i and Y_i'
        start += target
        prev = target
    return _Layout(start, start, rects, [], labels), block_sizes


def _mirrored(g: _Layout) -> _Layout:
    """Every sign flipped, which negates every signed degree."""
    return g._replace(
        rects=[(xs, ys, _FLIPPED[sign]) for xs, ys, sign in g.rects],
        singles=[(pair, _FLIPPED[sign]) for pair, sign in g.singles],
    )


def _attach_zero_gadget(g: _Layout, u1: int, v1: int) -> _Layout:
    """Extend a connected construction with vertices x1, x2 (U side) and y1,
    y2 (V side), all four at signed degree zero, moving no existing degree.

    New edges: positive u1-y1, x1-v1, x2-y2 and negative u1-y2, x1-y1,
    x2-v1; each touched vertex gains one edge of each sign.  The new
    vertices take the next indices after the existing ones.
    """
    x1, x2 = g.p, g.p + 1
    y1, y2 = g.q, g.q + 1
    singles = g.singles + _signed([(u1, y1), (x1, v1), (x2, y2)], [(u1, y2), (x1, y1), (x2, v1)])
    labels = g.labels + _single_vertices(("u", x1, "x_1"), ("u", x2, "x_2"), ("v", y1, "y_1"), ("v", y2, "y_2"))
    return _Layout(g.p + 2, g.q + 2, g.rects, singles, labels)


def _concat(*pieces: _Layout) -> tuple[_Layout, list[int], list[int]]:
    """Disjoint union; parts are concatenated in argument order.  Returns the
    union plus the U and V index offsets of every piece.  The union's lists
    are fresh, so callers may extend them in place."""
    rects: list[tuple[range, range, Sign]] = []
    singles: list[tuple[tuple[int, int], Sign]] = []
    labels: list[tuple[str, range, str]] = []
    u_offsets: list[int] = []
    v_offsets: list[int] = []
    p = q = 0
    for g in pieces:
        u_offsets.append(p)
        v_offsets.append(q)
        rects.extend((_shifted(xs, p), _shifted(ys, q), sign) for xs, ys, sign in g.rects)
        singles.extend(((u + p, v + q), sign) for (u, v), sign in g.singles)
        labels.extend(
            (part, _shifted(members, p if part == "u" else q), name) for part, members, name in g.labels
        )
        p += g.p
        q += g.q
    return _Layout(p, q, rects, singles, labels), u_offsets, v_offsets


def _bridge_mixed(g1: _Layout, g1_copy: _Layout, g2: _Layout, g2_copy: _Layout) -> _Layout:
    """Disjoint union of four connected constructions (concatenated in
    argument order) plus four degree-neutral bridge edges that connect the
    result.

    The bridge runs between the first u-vertex of g1 and of g1_copy and the
    first v-vertex of g2 and of g2_copy: positive u1-v2', u1'-v2 and negative
    u1-v2, u1'-v2'.  Every bridge endpoint gains one edge of each sign.
    Each copy must mirror its original (part sizes and degree sequences);
    layouts are values, so a piece may be passed as its own copy.
    """
    merged, u_off, v_off = _concat(g1, g1_copy, g2, g2_copy)
    u1, u1c = u_off[0], u_off[1]
    v2, v2c = v_off[2], v_off[3]
    merged.singles.extend(_signed([(u1, v2c), (u1c, v2)], [(u1, v2), (u1c, v2c)]))
    return merged


def _bridge_with_zero(g1: _Layout, g2: _Layout) -> _Layout:
    """Disjoint union of two connected constructions plus fresh vertices x
    (U side) and y (V side), joined degree-neutrally; x and y sit at signed
    degree zero and the whole graph comes out connected.

    New edges: positive u1-v2, u2-y, x-v1 and negative u1-y, u2-v1, x-v2,
    where u_i, v_i are the first vertices of each part of g_i.
    """
    merged, u_off, v_off = _concat(g1, g2)
    x, y = merged.p, merged.q
    u1, v1 = u_off[0], v_off[0]
    u2, v2 = u_off[1], v_off[1]
    merged.singles.extend(_signed([(u1, v2), (u2, y), (x, v1)], [(u1, y), (u2, v1), (x, v2)]))
    merged.labels.extend(_single_vertices(("u", x, "x"), ("v", y, "y")))
    return merged._replace(p=x + 1, q=y + 1)


def _build(elems: frozenset[int]) -> tuple[_Layout, str, list[tuple[str, int]]]:
    """Layout of the construction for a nonempty set: layout, case, blocks."""
    positives = sorted(x for x in elems if x > 0)
    negatives = frozenset(x for x in elems if x < 0)
    if not positives and negatives:
        # sign mirror of the non-negative construction, gadget included
        layout, case, block_sizes = _build(frozenset(-x for x in elems))
        return _mirrored(layout), _MIRRORED_CASES[case], block_sizes
    if not positives:
        square = _signed([(0, 0), (1, 1)], [(0, 1), (1, 0)])
        return _Layout(2, 2, [], square, []), "zero_only", [("U", 2), ("V", 2)]
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


def _graph(g: _Layout) -> SignedBipartiteGraph:
    """Create every edge and label of a layout once, then validate once."""
    edges: dict[tuple[int, int], Sign] = {}
    for sign in (_POS, _NEG):
        pairs = chain.from_iterable(product(xs, ys) for xs, ys, s in g.rects if s is sign)
        edges.update(dict.fromkeys(pairs, sign))
    edges.update(g.singles)
    labels: dict[tuple[str, int], str] = {}
    for part, members, name in g.labels:
        labels.update(dict.fromkeys(zip(repeat(part), members), name))
    return SignedBipartiteGraph(g.p, g.q, edges, labels)


def realize_set(s: Iterable[int]) -> RealizationReport:
    """Build a connected signed bipartite graph whose set of distinct signed
    degrees is exactly s, dispatching on the sign pattern of s.

    An empty s, or an entry that is not an integer, raises ValueError;
    integral floats such as 2.0 count as integers.  The graph is validated
    once and its degree set and connectivity are checked once; a miss
    raises AssertionError, also under ``python -O``.
    """
    s = list(s)
    for x in s:
        try:
            integral = int(x) == x
        except (ValueError, OverflowError):  # nan, infinities, other strings
            integral = False
        if not integral:
            raise ValueError(f"degree set entries must be integers, got {x!r}")
    elems = frozenset(map(int, s))
    if not elems:
        raise ValueError("degree set must be nonempty")
    layout, case, block_sizes = _build(elems)
    graph = _graph(layout)
    if signed_degree_set(graph) != elems or not is_connected(graph):
        raise AssertionError(f"construction for {sorted(elems)} missed its target")
    return RealizationReport(graph, case, block_sizes)
