"""Constructions that realize a prescribed signed degree set as a connected
signed bipartite graph.

Positive sets use an all-positive block construction; sets with no positive
element but a negative one are the sign mirror of the non-negative case, with
every edge sign flipped; {0} is a 2x2 square with alternating signs.  Every
other mixture is glued from those pieces with degree-neutral edges: each
touched vertex gains one positive and one negative edge, so existing signed
degrees never move.

A construction is a ``_Layout``: part sizes, a list of signed rectangles (a
complete join of two vertex ranges, all of one sign; an edge of the zero
square, the gadget or a bridge is 1 x 1) and label runs.  A disjoint union
only offsets ranges and the sign mirror only flips signs.

The construction is checked once, on its layout, by ``_survey``: each part
is cut into intervals at the rectangles' bounds, so the vertices of an
interval share every neighbour, and the graph is its quotient blown up: a U
interval and a V interval are joined completely, with one sign, or not at
all.  The survey builds that quotient once, one cell per joined pair of
intervals, and reads everything from it: no two rectangles may fill one
cell; an interval's degree is the signed sizes of the intervals across its
cells; the graph is connected when the quotient is, by ``sdegree.core``'s
search with the cells as edges; and the rows are the cells in order.  All
of it takes time polynomial in the number of rectangles, O(|S|^2), whatever
their sizes.  ``realize_set`` then creates every edge once and validates the
graph once, by its constructor.  ``write_realization`` builds no graph: it
hands each U interval's sorted V spans and the layout's label runs to the
one writer of each format in ``sdegree.textio``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, groupby, product, repeat
from operator import attrgetter, itemgetter
from os import PathLike
from typing import NamedTuple

from . import _integers
from .core import (  # noqa: F401 -- perfbench/tracing.py wraps the unused names here
    Sign,
    SignedBipartiteGraph,
    _connected,
    is_connected,
    join_all_positive,
    signed_degree_sequences,
    signed_degree_set,
)
from .textio import write_dot_rows, write_rows

__all__ = ["RealizationReport", "realize_set", "write_realization"]

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
    labels: list[tuple[str, range, str]]  # (part, members, block name)


# case of a non-negative set -> case of its sign mirror
_MIRRORED_CASES = {"positive": "negative", "nonneg_with_zero": "nonpos_with_zero"}


def _blocks(g: _Layout, tag: str = "") -> list[tuple[str, int]]:
    """The name, after ``tag``, and the size of every labelled block."""
    return [(tag + name, len(members)) for _, members, name in g.labels]


def _shifted(r: range, by: int) -> range:
    return range(r.start + by, r.stop + by)


def _signed(positive: list[tuple[int, int]], negative: list[tuple[int, int]]) -> list:
    """Single edges as 1 x 1 rectangles, the positive ones first."""
    signed = [(pair, _POS) for pair in positive] + [(pair, _NEG) for pair in negative]
    return [(range(u, u + 1), range(v, v + 1), sign) for (u, v), sign in signed]


def _single_vertices(*named: tuple[str, int, str]) -> list[tuple[str, range, str]]:
    return [(part, range(i, i + 1), name) for part, i, name in named]


def _positive_blocks(targets: list[int]) -> _Layout:
    """The all-positive block layout for ascending positive targets.

    For targets s1 < ... < sn, block X_i/Y_i has size s_i - s_(i-1) and block
    X_i'/Y_i' has size s_(i-1); complete positive joins run X_i to Y_j for
    i >= j, X_i' to Y_i, and X_i' to Y_i'.  Every x in X_i or X_i' lands on
    degree s_i, every y in Y_i on s_n, every y in Y_i' on s_(i-1), and each
    part ends up with sum(s) vertices.  Both parts share one layout (X_1,
    X_2, X_2', X_3, ... and Y_1, Y_2, Y_2', Y_3, ...), so Y_i' directly
    follows Y_i and X_i' joins one contiguous range."""
    rects: list[tuple[range, range, Sign]] = []
    labels: list[tuple[str, range, str]] = []
    y_blocks: list[range] = []  # Y_1 .. Y_i
    start = prev = 0
    for i, target in enumerate(targets, start=1):
        block = range(start, start + target - prev)
        primed = range(block.stop, start + target)
        named = [(f"_{i}", block)] + ([(f"_{i}'", primed)] if i > 1 else [])
        for part, letter in (("u", "X"), ("v", "Y")):
            for suffix, members in named:
                labels.append((part, members, letter + suffix))
        y_blocks.append(block)
        rects.extend((block, ys, _POS) for ys in y_blocks)
        rects.append((primed, range(start, start + target), _POS))  # Y_i and Y_i'
        start += target
        prev = target
    return _Layout(start, start, rects, labels)


def _mirrored(g: _Layout) -> _Layout:
    """Every sign flipped, which negates every signed degree."""
    return g._replace(rects=[(xs, ys, _FLIPPED[sign]) for xs, ys, sign in g.rects])


def _attach_zero_gadget(g: _Layout) -> _Layout:
    """Extend a connected construction with vertices x1, x2 (U side) and y1,
    y2 (V side), all four at signed degree zero, moving no existing degree.

    New edges, with u1 and v1 the first vertices of U and V: positive u1-y1,
    x1-v1, x2-y2 and negative u1-y2, x1-y1, x2-v1; each touched vertex gains
    one edge of each sign.  The new vertices take the next indices after the
    existing ones.
    """
    x1, x2 = g.p, g.p + 1
    y1, y2 = g.q, g.q + 1
    rects = g.rects + _signed([(0, y1), (x1, 0), (x2, y2)], [(0, y2), (x1, y1), (x2, 0)])
    labels = g.labels + _single_vertices(("u", x1, "x_1"), ("u", x2, "x_2"), ("v", y1, "y_1"), ("v", y2, "y_2"))
    return _Layout(g.p + 2, g.q + 2, rects, labels)


def _concat(*pieces: _Layout) -> tuple[_Layout, list[int], list[int]]:
    """Disjoint union; parts are concatenated in argument order.  Returns the
    union plus the U and V index offsets of every piece.  The union's lists
    are fresh, so callers may extend them in place."""
    rects: list[tuple[range, range, Sign]] = []
    labels: list[tuple[str, range, str]] = []
    u_offsets: list[int] = []
    v_offsets: list[int] = []
    p = q = 0
    for g in pieces:
        u_offsets.append(p)
        v_offsets.append(q)
        rects.extend((_shifted(xs, p), _shifted(ys, q), sign) for xs, ys, sign in g.rects)
        labels.extend(
            (part, _shifted(members, p if part == "u" else q), name) for part, members, name in g.labels
        )
        p += g.p
        q += g.q
    return _Layout(p, q, rects, labels), u_offsets, v_offsets


def _bridge_mixed(g1: _Layout, g2: _Layout) -> _Layout:
    """Disjoint union of two copies of each of two connected constructions
    (g1, g1', g2, g2', concatenated in that order) plus four degree-neutral
    bridge edges that connect the result.

    The bridge runs between the first u-vertex of g1 and of g1' and the
    first v-vertex of g2 and of g2': positive u1-v2', u1'-v2 and negative
    u1-v2, u1'-v2'.  Every bridge endpoint gains one edge of each sign.
    """
    merged, u_off, v_off = _concat(g1, g1, g2, g2)
    u1, u1c = u_off[0], u_off[1]
    v2, v2c = v_off[2], v_off[3]
    merged.rects.extend(_signed([(u1, v2c), (u1c, v2)], [(u1, v2), (u1c, v2c)]))
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
    merged.rects.extend(_signed([(u1, v2), (u2, y), (x, v1)], [(u1, y), (u2, v1), (x, v2)]))
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
        return _Layout(2, 2, square, []), "zero_only", [("U", 2), ("V", 2)]
    g1 = _positive_blocks(positives)
    if not negatives:
        if 0 not in elems:
            return g1, "positive", _blocks(g1)
        grown = _attach_zero_gadget(g1)
        return grown, "nonneg_with_zero", _blocks(grown)
    g2 = _build(negatives)[0]
    if 0 not in elems:
        block_sizes = _blocks(g1, "G1.") + _blocks(g1, "G1'.") + _blocks(g2, "G2.") + _blocks(g2, "G2'.")
        return _bridge_mixed(g1, g2), "mixed_nonzero", block_sizes
    bridged = _bridge_with_zero(g1, g2)  # its last two labels are the fresh x and y
    return bridged, "mixed_with_zero", _blocks(g1, "G1.") + _blocks(g2, "G2.") + _blocks(bridged)[-2:]


def _graph(g: _Layout) -> SignedBipartiteGraph:
    """Create every edge and label of a layout once, then validate once."""
    edges: dict[tuple[int, int], Sign] = {}
    for sign in (_POS, _NEG):
        pairs = chain.from_iterable(product(xs, ys) for xs, ys, s in g.rects if s is sign)
        edges.update(dict.fromkeys(pairs, sign))
    labels: dict[tuple[str, int], str] = {}
    for part, members, name in g.labels:
        labels.update(dict.fromkeys(zip(repeat(part), members), name))
    return SignedBipartiteGraph(g.p, g.q, edges, labels)


def _cut(ranges: list[range], size: int) -> tuple[list[range], dict[int, int]]:
    """range(size) cut at both ends of every range: the intervals in order
    and the index of the interval starting at each cut (size maps to the
    number of intervals).  The vertices of one interval share every
    neighbour.  A range outside range(size) raises AssertionError."""
    cuts = sorted({0, size}.union(map(attrgetter("start"), ranges), map(attrgetter("stop"), ranges)))
    if cuts[0] < 0 or cuts[-1] > size:
        raise AssertionError("a piece of the layout lies outside its part")
    return list(map(range, cuts, cuts[1:])), {cut: i for i, cut in enumerate(cuts)}


class _Survey(NamedTuple):
    """What a layout's graph is, found from its pieces alone."""

    rows: list[tuple[range, list[tuple[range, Sign]]]]  # each covered U interval, its V spans ascending
    u_degrees: list[tuple[range, int]]  # each U interval and the signed degree of its vertices
    v_degrees: list[tuple[range, int]]
    connected: bool


def _survey(g: _Layout) -> _Survey:
    """The rows, degrees and connectivity of a layout's graph, read from its
    quotient, in time polynomial in the number of pieces and independent of
    their sizes; no edge is made.  An interval no piece covers is a quotient
    vertex with no edge.  Raises AssertionError when a piece lies outside
    its part or two pieces share an edge."""
    pieces = [rect for rect in g.rects if rect[0] and rect[1]]
    us, u_at = _cut([xs for xs, _, _ in pieces], g.p)
    vs, v_at = _cut([ys for _, ys, _ in pieces], g.q)
    # the quotient: U interval i and V interval j are joined completely, with one sign, or not at all
    cells: dict[tuple[int, int], Sign] = {}
    for xs, ys, sign in pieces:
        for cell in product(range(u_at[xs.start], u_at[xs.stop]), range(v_at[ys.start], v_at[ys.stop])):
            if cell in cells:
                raise AssertionError(f"two pieces of the layout share an edge at u{us[cell[0]].start + 1}")
            cells[cell] = sign
    du = [0] * len(us)
    dv = [0] * len(vs)
    for (i, j), sign in cells.items():
        unit = 1 if sign is _POS else -1  # not sign.value, a slow enum property
        du[i] += unit * (vs[j].stop - vs[j].start)
        dv[j] += unit * (us[i].stop - us[i].start)
    rows = [(us[i], [(vs[j], cells[i, j]) for _, j in row]) for i, row in groupby(sorted(cells), itemgetter(0))]
    return _Survey(rows, list(zip(us, du)), list(zip(vs, dv)), _connected(len(us), len(vs), cells))


def _checked(elems: frozenset[int]) -> tuple[_Layout, str, list[tuple[str, int]], _Survey]:
    """The construction for elems, with its survey, checked on the layout:
    its degree set must be elems and it must be connected and simple.  A miss
    raises AssertionError, also under ``python -O``."""
    layout, case, block_sizes = _build(elems)
    survey = _survey(layout)
    degrees = {d for _, d in survey.u_degrees} | {d for _, d in survey.v_degrees}
    if degrees != elems or not survey.connected:
        raise AssertionError(f"construction for {sorted(elems)} missed its target")
    return layout, case, block_sizes, survey


def _elements(s: Iterable[int]) -> frozenset[int]:
    """The distinct entries of s; ValueError when s is empty or an entry is
    not an integer."""
    elems = frozenset(_integers(s))
    if not elems:
        raise ValueError("degree set must be nonempty")
    return elems


def realize_set(s: Iterable[int]) -> RealizationReport:
    """Build a connected signed bipartite graph whose set of distinct signed
    degrees is exactly s, dispatching on the sign pattern of s.

    An empty s, or an entry that is not an integer, raises ValueError;
    integral floats such as 2.0 count as integers.  The construction's
    degree set, connectivity and simplicity are checked once, on its layout,
    and a miss raises AssertionError, also under ``python -O``; the graph is
    then built and validated once.
    """
    layout, case, block_sizes, _ = _checked(_elements(s))
    return RealizationReport(_graph(layout), case, block_sizes)


def _per_vertex(degrees: list[tuple[range, int]]) -> Iterator[int]:
    """The degree of each vertex in order, from (interval, degree) pairs."""
    return chain.from_iterable(repeat(d, r.stop - r.start) for r, d in degrees)


def write_realization(
    s: Iterable[int], out: str | PathLike | None = None, dot: str | PathLike | None = None
) -> tuple[str, int, int]:
    """Realize s as ``realize_set`` does, without building the graph, and
    return the construction case and the part sizes |U| and |V|.

    The construction is checked on its layout, as in ``realize_set``.  With
    ``out``, the file at that path receives ``emit_graph``'s document of the
    graph, and with ``dot``, ``emit_dot``'s; each is written one U vertex at
    a time, straight from the layout's signed rectangles.  Without them the
    call takes time and memory polynomial in len(s), whatever the size of
    its entries; with them, memory grows with the longest row, not with the
    edge count.  Entries are refused as by ``realize_set``.
    """
    layout, case, _, survey = _checked(_elements(s))
    p, q, rows = layout.p, layout.q, survey.rows
    if out is not None:
        with open(out, "w") as text:
            write_rows(text, p, q, rows, layout.labels)
    if dot is not None:
        with open(dot, "w") as text:
            write_dot_rows(text, p, q, _per_vertex(survey.u_degrees), _per_vertex(survey.v_degrees), rows)
    return case, p, q
