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

A *canonical* document is exactly what ``emit_graph`` writes: the header
``sbg <p> <q>`` with each size ``0`` or ASCII digits without a leading zero,
then edge lines ``u<i> v<j> <+|->`` and then label lines ``# u<i> <tag>``,
each index a positive number in ASCII digits without a leading zero, single
spaces, and a newline after every line.  So two index tokens are equal
exactly when their numbers are: ``v01``, or ``v`` and an Arabic-Indic digit
one, which ``int`` reads as 1, are not canonical.  Canonical edge lines
are split into tokens in one place, a chunk of whole lines of about
``_CHUNK`` characters at a time.

``parse_graph`` is the line parser, the one function that turns text into a
graph and the one source of ``ParseError`` messages: it reads any document,
canonical or not, one line at a time, and holds every line and edge at once.

``read_degree_set`` answers what the ``degree-set`` command asks, the signed
degree set and connectivity of a document's graph, from a file in one pass,
without building the graph.  It checks each chunk as it reads it; each run
of a U vertex's edge lines gives that vertex's degree, counts keyed by V
token give the V degrees, and a union-find over V tokens, merged once per
run, gives connectivity.  It holds the current chunk's tokens and a few
entries per vertex seen, never per declared vertex: O(p + q + chunk)
memory.  A source that cannot seek back, such as stdin from a pipe, is
read whole first.

Any other text (other spacing, CRLF line ends, comments or labels between
edges, a missing final newline, a U vertex whose lines are not adjacent)
and any canonical text the graph refuses (an index or label out of range, a
duplicate edge) goes to ``parse_graph``, and the reader answers from its
graph.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, compress, count, groupby, islice
from operator import itemgetter, ne
from typing import TextIO

from . import _sizable
from .core import Sign, SignedBipartiteGraph, degree_vectors, is_connected, signed_degree_set

__all__ = ["ParseError", "emit_graph", "parse_graph", "emit_dot", "read_degree_set"]


class ParseError(ValueError):
    """Malformed graph document; carries the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_HEADER_RE = re.compile(r"sbg\s+(\d+)\s+(\d+)")
_EDGE_RE = re.compile(r"u(\d+)\s+v(\d+)\s+([+-])")
_LABEL_RE = re.compile(r"#\s+([uv])(\d+)\s+(\S+)")
# What emit_graph writes, and nothing else: ASCII indices without leading
# zeros, so that two tokens are equal exactly when their numbers are.
# Possessive repeats keep no backtracking state per line, so checking a long
# document takes no memory per edge.
_SIZE, _INDEX = r"(0|[1-9][0-9]*+)", r"[1-9][0-9]*+"
_CANONICAL_EDGES = rf"(?:u{_INDEX} v{_INDEX} [+-]\n)*+"
_CANONICAL_RE = re.compile(rf"sbg {_SIZE} {_SIZE}\n({_CANONICAL_EDGES})((?:# [uv]{_INDEX} \S++\n)*+)")
_CANONICAL_EDGES_RE = re.compile(_CANONICAL_EDGES)
_CANONICAL_LABEL_RE = re.compile(rf"# ([uv])({_INDEX}) (\S++)\n")
_DIGITS = itemgetter(slice(1, None))  # of a u<i> or v<j> token
_IS_PLUS = bytes.maketrans(b"+-", b"\1\0")  # a string of signs, encoded, to compress's selectors
# Characters of canonical edge lines split at once (rounded up to whole
# lines): enough to amortise each step, few enough that the tokens stay small
# next to the reader's per-vertex tables.  Must be at least 1.
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


def _text_chunks(text: str) -> Iterator[str]:
    """text in pieces of whole lines, each about ``_CHUNK`` characters or one
    line, whichever is longer."""
    pos, end = 0, len(text)
    while pos < end:
        stop = text.find("\n", min(pos + _CHUNK, end) - 1, end) + 1 or end
        yield text[pos:stop]
        pos = stop


def _file_chunks(source: TextIO) -> Iterator[str]:
    """The rest of source in pieces of whole lines, as ``_text_chunks``."""
    while chunk := source.read(_CHUNK):
        yield chunk if chunk[-1] == "\n" else chunk + source.readline()


def _split_edge_lines(chunk: str) -> tuple[list[str], list[str], list[str], str]:
    """The u<i>, v<j> and sign tokens of the canonical edge lines that begin
    chunk, and the text of chunk from the first other line on: the one place
    where canonical edge lines are split."""
    end = _CANONICAL_EDGES_RE.match(chunk).end()
    tokens = (chunk if end == len(chunk) else chunk[:end]).split()
    return tokens[0::3], tokens[1::3], tokens[2::3], chunk[end:]


def read_degree_set(source: TextIO) -> tuple[frozenset[int], bool]:
    """The signed degree set of the graph in the edge-list document read from
    ``source``, and whether that graph is connected.

    The answer, and every error, is that of ``signed_degree_set(g)`` and
    ``is_connected(g)`` for ``g = parse_graph(source.read())``, except that
    a declared part size above sys.maxsize raises the package's size-limit
    error once the document is known to be well formed.  A canonical
    document is answered in one pass over its lines, a chunk at a time,
    without building the graph; any other document, or one the graph would
    refuse, is parsed whole by ``parse_graph``.  A source that cannot seek
    back (a pipe) is read whole first.
    """
    text = None
    if source.seekable():
        start = source.tell()
        chunks = _file_chunks(source)
    else:
        text = source.read()
        chunks = _text_chunks(text)
    try:
        answer = _stream_degree_set(chunks)
    except ValueError:  # undecodable bytes, or a number too long for int():
        answer = None  # the whole read, or parse_graph, raises it as it always did
    if answer is None:
        if text is None:
            source.seek(start)
            text = source.read()
        g = parse_graph(text)
        for size in (g.p, g.q):
            _sizable(size, "part size")
        return signed_degree_set(g), is_connected(g)
    p, q, degrees, connected = answer
    for size in (p, q):
        _sizable(size, "part size")
    return degrees, connected


def _stream_degree_set(chunks: Iterator[str]) -> tuple[int, int, frozenset[int], bool] | None:
    """(p, q, degree set, connected) of the canonical document made of the
    whole-line ``chunks``, or None when the document is not canonical, when
    the graph would refuse it (an index or label out of range, a repeated
    edge, no vertex at all), or when a U vertex's edge lines are not all
    adjacent.

    A U vertex's degree comes from its run of edge lines; a V vertex's from
    counts keyed by its token.  Connectivity is a union-find over V tokens
    in which each run joins the components of its V ends: a row's tokens
    are looked up in C and only their distinct parents are walked in Python.
    Nothing is held per declared vertex, only per vertex seen."""
    head = next(chunks, "")
    header = _CANONICAL_RE.match(head)  # its groups 3 and 4 stop at the chunk's end
    if header is None:
        return None
    p, q = int(header[1]), int(header[2])
    if p + q == 0:
        return None
    parent: dict[str, str] = {}  # V token -> a V token of its component; roots map to themselves
    ends, positive = Counter(), Counter()  # V token -> its edges, its positive edges
    runs: set[str] = set()  # the U tokens whose run of lines has begun
    degrees: set[int] = set()
    components = 0  # of the V tokens seen
    u = root = None  # the current run's U token, and the root of its V ends
    chunks = chain([head[header.start(3) :]], chunks)
    for chunk in chunks:
        us, vs, signs, rest = _split_edge_lines(chunk)
        ends.update(vs)
        positive.update(compress(vs, "".join(signs).encode().translate(_IS_PLUS)))
        starts = list(compress(count(), map(ne, us, chain([None], us))))  # of runs
        for a, b in zip(starts, [*islice(starts, 1, None), len(us)]):
            token, row = us[a], vs[a:b]
            seen = set(row)
            if len(seen) < len(row):  # a repeated edge
                return None
            if token == u:  # the run goes on from the last chunk
                if not seen.isdisjoint(run):
                    return None
                run |= seen
                plus += signs[a:b].count("+")
                edges += b - a
            else:
                if u is not None:
                    degrees.add(2 * plus - edges)
                if token in runs:
                    return None
                runs.add(token)
                u, run, root = token, seen, None
                plus, edges = signs[a:b].count("+"), b - a
            tops = set(map(parent.get, row))
            if None in tops:  # V tokens seen for the first time
                tops.discard(None)
                new = seen.difference(parent)
                parent.update(zip(new, new))
                tops |= new
                components += len(new)
            if root is not None:
                tops.add(root)
            roots = set()
            for top in tops:
                while (up := parent[top]) != top:
                    top = up
                roots.add(top)
            root = roots.pop()
            if roots or len(tops) > 1 or root not in tops:
                components -= len(roots)
                parent.update(dict.fromkeys(chain(roots, tops, row), root))
        if rest:
            break
    else:
        rest = ""
    # every index in range, checked once per distinct token
    if max(map(int, map(_DIGITS, runs)), default=0) > p or max(map(int, map(_DIGITS, ends)), default=0) > q:
        return None
    for chunk in chain([rest], chunks):  # the label lines
        pos = 0
        while pos < len(chunk):
            label = _CANONICAL_LABEL_RE.match(chunk, pos)
            if label is None or int(label[2]) > (p if label[1] == "u" else q):
                return None
            pos = label.end()
    if u is not None:
        degrees.add(2 * plus - edges)
    degrees.update(2 * positive[v] - n for v, n in ends.items())
    if len(runs) < p or len(ends) < q:  # a vertex without edges
        degrees.add(0)
        connected = p + q == 1
    else:
        connected = components == 1
    return p, q, frozenset(degrees), connected
