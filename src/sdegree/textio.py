"""Plain-text serialization and DOT export for signed bipartite graphs.

Edge-list format, newline-terminated:

    sbg <p> <q>
    u<i> v<j> <+|->     one line per edge, 1-based, sorted by (i, j)
    # u<i> <tag>        optional trailing block-label comments

Emitting, parsing, and emitting again reproduces the text byte for byte.

Each format is written by one implementation, fed either by a graph
(``emit_graph``, ``emit_dot``) or by rows of signed spans, a U range joined
to V ranges (``write_rows``, ``write_dot_rows``, which ``sdegree.realize``
feeds from a construction's layout without building its graph).  Every U
vertex's edge lines are one join of its head before the V ends of its row,
and each V end is formatted once per row, not once per edge.

``parse_graph`` reads a canonical document, exactly what ``emit_graph``
writes, in bulk: one regular-expression match checks the whole text, then
the edge lines are split into tokens in chunks of bounded size, each
distinct vertex token is converted to an index once, and the edge dict is
filled from the tokens by ``zip`` and ``map``.  Any other text (other
spacing, CRLF line ends, comments or labels between edges, a missing final
newline) and any canonical text the graph refuses (an index out of range,
a duplicate edge) goes to the line-by-line parser, the one source of
``ParseError`` messages.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import TextIO

from .core import Sign, SignedBipartiteGraph, degree_vectors

__all__ = ["ParseError", "emit_graph", "parse_graph", "emit_dot"]


class ParseError(ValueError):
    """Malformed graph document; carries the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_HEADER_RE = re.compile(r"sbg\s+(\d+)\s+(\d+)")
_EDGE_RE = re.compile(r"u(\d+)\s+v(\d+)\s+([+-])")
_LABEL_RE = re.compile(r"#\s+([uv])(\d+)\s+(\S+)")
# What emit_graph writes.  Possessive repeats keep no backtracking state
# per line, so checking a long document takes no memory per edge.
_CANONICAL_RE = re.compile(
    r"sbg (\d++) (\d++)\n"
    r"((?:u\d++ v\d++ [+-]\n)*+)"
    r"((?:# [uv]\d++ \S++\n)*+)"
)
_CANONICAL_LABEL_RE = re.compile(r"# ([uv])(\d++) (\S++)\n")
_SIGN_OF = {"+": Sign.POSITIVE, "-": Sign.NEGATIVE}
# Characters of canonical edge lines split at once (rounded up to whole
# lines): enough to amortise each step, few enough that the tokens stay small
# next to the edge dict.  Must be at least 1.
_CHUNK = 1 << 15


def _numbered(template: str, indices: Iterable[int]) -> dict[int, str]:
    """``template`` filled with i + 1, for each distinct index i."""
    return {i: template.format(i + 1) for i in set(indices)}


# Each format's edge line: the U end's head, then the V end, which carries the
# sign.  The edge-list document and the DOT edge lines are written only from
# these, for a graph and for a layout's rows alike.
_LIST_HEAD, _LIST_ENDS = "u{} v", ("{} +", "{} -")
_DOT_HEAD, _DOT_ENDS = "  u{} -- v", ("{} [style=solid];", "{} [style=dashed];")


def _graph_rows(g: SignedBipartiteGraph, plus: str, minus: str) -> Iterator[tuple[range, list[str]]]:
    """A graph's rows for ``_edge_text``: each touched U vertex u, in order,
    with the V ends of its edges.  A V end is formatted once per touched
    vertex, and no Sign is hashed per edge."""
    edges = g.edges
    keys = sorted(edges)
    vs = set(map(itemgetter(1), keys))
    pos, neg = _numbered(plus, vs), _numbered(minus, vs)
    positive = Sign.POSITIVE
    for u, row in groupby(keys, itemgetter(0)):
        yield range(u, u + 1), [(pos if edges[key] is positive else neg)[key[1]] for key in row]


def _span_rows(rows: Iterable, plus: str, minus: str) -> Iterator[tuple[range, list[str]]]:
    """A layout's rows for ``_edge_text``: ``rows`` yields (us, spans), where
    every U vertex in the range us is joined to every V vertex of each
    (vs, sign) span, spans ascending and disjoint.  The V ends are formatted
    once per row, for all of its U vertices."""
    positive = Sign.POSITIVE
    for us, spans in rows:
        ends: list[str] = []
        for vs, sign in spans:
            ends += map((plus if sign is positive else minus).format, range(vs.start + 1, vs.stop + 1))
        yield us, ends


def _edge_text(head: str, rows: Iterable[tuple[range, list[str]]]) -> Iterator[str]:
    """The edge lines of each U vertex as one string, made by one join: the
    vertex's ``head`` before each V end of its row."""
    for us, ends in rows:
        if ends:
            for u in us:
                first = head.format(u + 1)
                yield first + ("\n" + first).join(ends) + "\n"


def _edge_list(p: int, q: int, rows, labels: Iterable[tuple[str, range, str]]) -> Iterator[str]:
    """The edge-list document in pieces.  ``rows(plus, minus)`` gives the
    rows, with those V-end templates; ``labels`` gives label runs (part,
    members, tag), disjoint and in any order: every vertex of the part
    whose index is in the range members carries tag.  The label comments
    list U vertices first, each part by index."""
    yield f"sbg {p} {q}\n"
    yield from _edge_text(_LIST_HEAD, rows(*_LIST_ENDS))
    for part, members, tag in sorted(labels, key=lambda run: (run[0] != "u", run[1].start)):
        for i in members:
            yield f"# {part}{i + 1} {tag}\n"


def _dot(p: int, q: int, du: Iterable[int], dv: Iterable[int], rows) -> Iterator[str]:
    """The DOT document in pieces: ``du`` and ``dv`` give the signed degree of
    each vertex of a part, in order; ``rows`` as for ``_edge_list``."""
    yield 'graph sbg {\n  rankdir=LR;\n  subgraph cluster_U {\n    label="U";\n    rank=same;\n'
    for i, d in enumerate(du, 1):
        yield f'    u{i} [label="u{i} [sdeg={d}]"];\n'
    yield '  }\n  subgraph cluster_V {\n    label="V";\n    rank=same;\n'
    for j, d in enumerate(dv, 1):
        yield f'    v{j} [label="v{j} [sdeg={d}]"];\n'
    yield "  }\n"
    yield from _edge_text(_DOT_HEAD, rows(*_DOT_ENDS))
    yield "}\n"


def emit_graph(g: SignedBipartiteGraph) -> str:
    """Serialize to the edge-list format; deterministic for equal graphs."""
    labels = [(part, range(i, i + 1), tag) for (part, i), tag in g.block_labels.items()]
    return "".join(_edge_list(g.p, g.q, partial(_graph_rows, g), labels))


def emit_dot(g: SignedBipartiteGraph) -> str:
    """DOT rendering: the two parts on distinct ranks, positive edges solid,
    negative edges dashed, node labels carrying the signed degree."""
    du, dv = degree_vectors(g)
    return "".join(_dot(g.p, g.q, du, dv, partial(_graph_rows, g)))


def write_rows(out: TextIO, p: int, q: int, rows: Iterable, labels: Iterable[tuple[str, range, str]]) -> None:
    """Write to ``out`` the edge-list document of the graph whose edges are
    ``rows``, as ``_span_rows`` reads them, and whose labels are the runs
    ``labels``, in any order, as for ``_edge_list``: the bytes ``emit_graph``
    writes for that graph, one U vertex at a time."""
    out.writelines(_edge_list(p, q, partial(_span_rows, rows), labels))


def write_dot_rows(
    out: TextIO, p: int, q: int, du: Iterable[int], dv: Iterable[int], rows: Iterable
) -> None:
    """Write to ``out`` the DOT document of the graph whose edges are
    ``rows`` and whose signed degrees are ``du`` and ``dv``: the bytes
    ``emit_dot`` writes for that graph, one U vertex at a time."""
    out.writelines(_dot(p, q, du, dv, partial(_span_rows, rows)))


def parse_graph(text: str) -> SignedBipartiteGraph:
    """Parse the edge-list format back into a graph.

    Raises ParseError (with the offending line number) on a bad header, an
    out-of-range index, a duplicated edge, or an unrecognised edge line.
    Comment lines carrying block labels are restored; other comments and
    blank lines are ignored.
    """
    doc = _CANONICAL_RE.fullmatch(text)
    if doc is not None:
        edge_span, label_span = doc.span(3), doc.span(4)
        try:
            edges = _canonical_edges(text, *edge_span)
            if edges is not None:
                labels = {
                    (part, int(idx) - 1): tag
                    for part, idx, tag in map(re.Match.groups, _CANONICAL_LABEL_RE.finditer(text, *label_span))
                }
                return SignedBipartiteGraph(int(doc[1]), int(doc[2]), edges, labels)
        except ValueError:  # the graph refused an index; the line parser says which line
            pass
    return _parse_lines(text)


def _canonical_edges(text: str, pos: int, end: int) -> dict[tuple[int, int], Sign] | None:
    """The edges of the canonical edge lines in text[pos:end], or None when
    a line repeats an edge.  The lines are split into tokens a chunk of whole
    lines at a time, so the tokens held at once stay bounded however long
    the document is, and each distinct u<i> or v<j> token becomes an index
    once."""
    edges: dict[tuple[int, int], Sign] = {}
    index: dict[str, int] = {}  # "u3" -> 2 and "v3" -> 2
    lines = 0
    while pos < end:
        stop = text.find("\n", min(pos + _CHUNK, end) - 1) + 1  # the end of a line
        tokens = text[pos:stop].split()
        us, vs, signs = tokens[0::3], tokens[1::3], tokens[2::3]
        index.update({token: int(token[1:]) - 1 for token in set(us).union(vs).difference(index)})
        keys = zip(map(index.__getitem__, us), map(index.__getitem__, vs))
        edges.update(zip(keys, map(_SIGN_OF.__getitem__, signs)))
        lines += len(signs)
        pos = stop
    return edges if len(edges) == lines else None


def _parse_lines(text: str) -> SignedBipartiteGraph:
    p = q = None
    edges: dict[tuple[int, int], Sign] = {}
    label_lines: list[tuple[int, str, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _LABEL_RE.fullmatch(line)
            if m:
                label_lines.append((lineno, m[1], int(m[2]), m[3]))
            continue
        if p is None:
            m = _HEADER_RE.fullmatch(line)
            if m is None:
                raise ParseError(lineno, f"expected header 'sbg <p> <q>', got {raw!r}")
            p, q = int(m[1]), int(m[2])
            continue
        m = _EDGE_RE.fullmatch(line)
        if m is None:
            raise ParseError(lineno, f"expected edge 'u<i> v<j> <+|->', got {raw!r}")
        u, v = int(m[1]) - 1, int(m[2]) - 1
        if not 0 <= u < p:
            raise ParseError(lineno, f"u{u + 1} out of range 1..{p}")
        if not 0 <= v < q:
            raise ParseError(lineno, f"v{v + 1} out of range 1..{q}")
        if (u, v) in edges:
            raise ParseError(lineno, f"duplicate edge u{u + 1} v{v + 1}")
        edges[(u, v)] = Sign.POSITIVE if m[3] == "+" else Sign.NEGATIVE
    if p is None:
        raise ParseError(1, "missing header 'sbg <p> <q>'")
    labels: dict[tuple[str, int], str] = {}
    for lineno, part, idx, tag in label_lines:
        size = p if part == "u" else q
        if not 1 <= idx <= size:
            raise ParseError(lineno, f"{part}{idx} out of range 1..{size}")
        labels[(part, idx - 1)] = tag
    return SignedBipartiteGraph(p, q, edges, labels)
