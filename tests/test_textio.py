import io
import re
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdegree import (
    ParseError,
    Sign,
    SignedBipartiteGraph,
    emit_dot,
    emit_graph,
    is_connected,
    parse_graph,
    read_degree_set,
    realize_set,
    signed_degree_set,
)
from sdegree import textio

from .conftest import bipartite_graphs

SQUARE_DOC = """sbg 2 2
u1 v1 +
u1 v2 -
u2 v1 -
u2 v2 +
"""


def _square():
    return SignedBipartiteGraph(
        2,
        2,
        {
            (0, 0): Sign.POSITIVE,
            (1, 1): Sign.POSITIVE,
            (0, 1): Sign.NEGATIVE,
            (1, 0): Sign.NEGATIVE,
        },
    )


def test_emit_graph_pinned_document():
    assert emit_graph(_square()) == SQUARE_DOC


def test_emit_graph_appends_label_comments_u_side_first():
    g = SignedBipartiteGraph(
        1, 2, {(0, 0): Sign.POSITIVE}, {("v", 1): "Y_1", ("u", 0): "X_1", ("v", 0): "Y_0"}
    )
    assert emit_graph(g) == "sbg 1 2\nu1 v1 +\n# u1 X_1\n# v1 Y_0\n# v2 Y_1\n"


def test_parse_graph_pinned_document():
    assert parse_graph(SQUARE_DOC) == _square()


def test_parse_skips_blanks_and_plain_comments():
    text = "\n# a note\nsbg 1 1\n\nu1 v1 +\n# another note\n"
    assert parse_graph(text) == SignedBipartiteGraph(1, 1, {(0, 0): Sign.POSITIVE})


def test_parse_restores_labels():
    g = parse_graph("sbg 2 1\nu2 v1 -\n# u2 X_1\n# v1 Y_1\n")
    assert g.block_labels == {("u", 1): "X_1", ("v", 0): "Y_1"}


def test_parse_allows_edgeless_graphs():
    g = parse_graph("sbg 3 2\n")
    assert (g.p, g.q, g.edges) == (3, 2, {})


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("", 1, "missing header"),
        ("sbg two 2\n", 1, "expected header"),
        ("sbg 2 2\nu1 w1 +\n", 2, "expected edge"),
        ("sbg 2 2\nu3 v1 +\n", 2, "u3 out of range"),
        ("sbg 2 2\nu1 v3 +\n", 2, "v3 out of range"),
        ("sbg 2 2\nu1 v1 +\nu1 v1 -\n", 3, "duplicate edge"),
        ("sbg 1 1\n# u2 X_1\n", 2, "u2 out of range"),
        ("sbg 2 2\nu1 v1 +\nu1 v2 -\nu2 v1 +\nu1 v1 -\n", 5, "duplicate edge u1 v1"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_graph(text)
    assert excinfo.value.lineno == lineno
    assert fragment in str(excinfo.value)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


def test_parse_tolerates_extra_spaces():
    assert parse_graph("sbg  2   2\nu1   v2   +\n") == SignedBipartiteGraph(
        2, 2, {(0, 1): Sign.POSITIVE}
    )


def test_round_trip_on_a_constructed_graph():
    g = realize_set({2, 0, -1}).graph
    again = parse_graph(emit_graph(g))
    assert again == g
    assert again.block_labels == g.block_labels


@given(bipartite_graphs(with_labels=True))
def test_round_trip_is_identity(g):
    again = parse_graph(emit_graph(g))
    assert again == g
    assert again.block_labels == g.block_labels


@given(bipartite_graphs(with_labels=True))
def test_emit_parse_emit_reproduces_the_document(g):
    doc = emit_graph(g)
    assert emit_graph(parse_graph(doc)) == doc


def test_emit_dot_structure():
    dot = emit_dot(_square())
    assert dot.startswith("graph sbg {")
    assert dot.endswith("}\n")
    assert "subgraph cluster_U" in dot
    assert "subgraph cluster_V" in dot
    assert 'u1 [label="u1 [sdeg=0]"]' in dot
    assert "u1 -- v1 [style=solid];" in dot
    assert "u1 -- v2 [style=dashed];" in dot


def test_emit_dot_reports_signed_degrees():
    g = SignedBipartiteGraph(1, 2, {(0, 0): Sign.POSITIVE, (0, 1): Sign.POSITIVE})
    dot = emit_dot(g)
    assert 'u1 [label="u1 [sdeg=2]"]' in dot
    assert 'v1 [label="v1 [sdeg=1]"]' in dot


def test_emit_dot_is_deterministic():
    g = realize_set({1, -2}).graph
    assert emit_dot(g) == emit_dot(g)


def test_emit_allocates_nothing_per_untouched_vertex():
    g = SignedBipartiteGraph(4_000_000, 1, {(0, 0): Sign.POSITIVE})
    tracemalloc.start()
    try:
        doc = emit_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc == "sbg 4000000 1\nu1 v1 +\n"
    assert peak < 2**20


def test_parse_allocates_nothing_per_declared_vertex():
    tracemalloc.start()
    try:
        g = parse_graph("sbg 4000000 1\nu1 v1 +\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.p, g.q, g.edges) == (4_000_000, 1, {(0, 0): Sign.POSITIVE})
    assert peak < 2**20


# A frozen copy of the line parser: the reference that parse_graph, and the
# degree-set reader, must agree with on every input, result or error.
_HEADER = re.compile(r"sbg\s+(\d+)\s+(\d+)")
_EDGE = re.compile(r"u(\d+)\s+v(\d+)\s+([+-])")
_LABEL = re.compile(r"#\s+([uv])(\d+)\s+(\S+)")


def _reference_parse(text):
    p = q = None
    edges = {}
    label_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _LABEL.fullmatch(line)
            if m:
                label_lines.append((lineno, m[1], int(m[2]), m[3]))
            continue
        if p is None:
            m = _HEADER.fullmatch(line)
            if m is None:
                raise ParseError(lineno, f"expected header 'sbg <p> <q>', got {raw!r}")
            p, q = int(m[1]), int(m[2])
            continue
        m = _EDGE.fullmatch(line)
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
    labels = {}
    for lineno, part, idx, tag in label_lines:
        size = p if part == "u" else q
        if not 1 <= idx <= size:
            raise ParseError(lineno, f"{part}{idx} out of range 1..{size}")
        labels[(part, idx - 1)] = tag
    return SignedBipartiteGraph(p, q, edges, labels)


def _outcome(parse, text):
    try:
        g = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.lineno
    return "graph", g.p, g.q, g.edges, g.block_labels


_MUTATIONS = ["spaces", "label", "zeros", "u0", "duplicate", "range", "no_header", "crlf", "no_newline"]


def _mutate(draw, text, kind):
    """``text`` with one mutation of the given kind, where it applies."""
    lines = text.splitlines()
    edge_lines = [i for i, line in enumerate(lines) if line.startswith("u")]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no_newline":
        return text[:-1]
    if kind == "spaces" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([" ", "  ", "\t"])) + lines[i].replace(" ", "  ", 1) + " "
    elif kind == "label":
        part, idx = draw(st.sampled_from("uv")), draw(st.integers(0, 7))
        lines.insert(draw(st.integers(0, len(lines))), f"# {part}{idx} Z_{idx}")
    elif kind == "zeros" and edge_lines:
        i = draw(st.sampled_from(edge_lines))
        lines[i] = lines[i].replace("u", "u0", 1).replace(" v", " v00", 1)
    elif kind == "u0" and edge_lines:
        i = draw(st.sampled_from(edge_lines))
        lines[i] = re.sub(r"^u\d+", "u0", lines[i])
    elif kind == "duplicate" and edge_lines:
        i = draw(st.sampled_from(edge_lines))
        twin = lines[i] if draw(st.booleans()) else lines[i][:-1] + ("-" if lines[i][-1] == "+" else "+")
        lines.insert(draw(st.integers(i + 1, len(lines))), twin)
    elif kind == "range" and edge_lines:
        i = draw(st.sampled_from(edge_lines))
        lines[i] = re.sub(r"v\d+", "v9", lines[i])
    elif kind == "no_header" and lines and lines[0].startswith("sbg"):
        del lines[0]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("kind", [None, *_MUTATIONS])
@settings(max_examples=60)
@given(g=bipartite_graphs(with_labels=True), data=st.data())
def test_parse_graph_matches_the_frozen_reference(kind, g, data):
    """An emitted document, mutated by ``kind`` and then by up to two more
    mutations: parse_graph and ``_reference_parse`` return equal graphs and
    labels, or the same ParseError."""
    kinds = ([kind] if kind else []) + data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2))
    text = emit_graph(g)
    for each in kinds:
        text = _mutate(data.draw, text, each)
    assert _outcome(parse_graph, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("text", ["sbg 1 1\nu1 v1 +\nu1 v01 -\n", "sbg 1 1\nu1 v1 +\nu1 v\u0661 -\n"])
def test_other_spellings_of_an_index_are_not_canonical(text):
    # int() reads "01" and the Arabic-Indic "\u0661" as 1, so a reader keyed
    # by tokens would count two edges here; both readers take the line parser
    assert textio._CANONICAL_RE.fullmatch(text) is None
    for read in (parse_graph, lambda text: read_degree_set(io.StringIO(text))):
        with pytest.raises(ParseError, match="^line 3: duplicate edge u1 v1$"):
            read(text)


class _Pipe(io.StringIO):
    """A source that cannot seek back, as stdin from a pipe."""

    def seekable(self):
        return False


def _reference_degree_set(text):
    g = _reference_parse(text)
    return signed_degree_set(g), is_connected(g)


def _answer(read, text):
    try:
        return "answer", read(text)
    except ValueError as exc:  # ParseError, or the graph's own refusal
        return "error", type(exc).__name__, str(exc)


@pytest.mark.parametrize("chunk", [1, 8, 29])
@settings(max_examples=40)
@given(g=bipartite_graphs(with_labels=True))
def test_read_degree_set_answers_emitted_documents_without_a_graph(chunk, g):
    text = emit_graph(g)
    expected = signed_degree_set(g), is_connected(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textio, "_CHUNK", chunk)
        patch.setattr(textio, "parse_graph", None)  # calling it would raise
        assert read_degree_set(io.StringIO(text)) == expected
        assert read_degree_set(_Pipe(text)) == expected


def _scramble(draw, text, kind):
    """``text`` with its edge lines reordered: whole U runs (``"rows"``), or
    any lines, so that a U vertex's lines may come apart (``"lines"``)."""
    lines = text.splitlines(keepends=True)
    edges = [i for i, line in enumerate(lines) if line.startswith("u")]
    if kind == "rows":
        runs = [list(run) for _, run in groupby((lines[i] for i in edges), key=lambda line: line.split()[0])]
        order = draw(st.permutations(runs))
        moved = [line for run in order for line in draw(st.permutations(run))]
    else:
        moved = draw(st.permutations([lines[i] for i in edges]))
    for i, line in zip(edges, moved):
        lines[i] = line
    return "".join(lines)


@pytest.mark.parametrize("kind", [None, "rows", "lines", *_MUTATIONS])
@settings(max_examples=60)
@given(g=bipartite_graphs(with_labels=True), chunk=st.sampled_from([1, 8, 29, 1 << 15]), data=st.data())
def test_read_degree_set_matches_the_graph_on_any_document(kind, g, chunk, data):
    """An emitted document, reordered or mutated by ``kind`` and then by up
    to two more mutations: the reader gives the degree set and connectivity
    of the line parser's graph, or the same error, from either source."""
    kinds = ([kind] if kind else []) + data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2))
    text = emit_graph(g)
    for each in kinds:
        text = _scramble(data.draw, text, each) if each in ("rows", "lines") else _mutate(data.draw, text, each)
    expected = _answer(_reference_degree_set, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textio, "_CHUNK", chunk)
        assert _answer(lambda text: read_degree_set(io.StringIO(text)), text) == expected
        assert _answer(lambda text: read_degree_set(_Pipe(text)), text) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("sbg 2 1\nu3 v1 +\n", "line 2: u3 out of range 1..2"),
        ("sbg 1 2\nu1 v3 +\n", "line 2: v3 out of range 1..2"),
        ("sbg 1 1\nu1 v1 +\n# u2 X_1\n", "line 3: u2 out of range 1..1"),
        ("sbg 1 1\nu1 v1 +\n# v2 Y_1\n", "line 3: v2 out of range 1..1"),
        ("sbg 1 2\nu1 v2 +\nu1 v1 -\nu1 v2 -\n", "line 4: duplicate edge u1 v2"),
    ],
)
def test_read_degree_set_refuses_what_the_graph_refuses(text, message):
    # canonical in form, but not a graph: the line parser names the line
    assert textio._CANONICAL_RE.fullmatch(text) is not None
    with pytest.raises(ParseError) as excinfo:
        read_degree_set(io.StringIO(text))
    assert str(excinfo.value) == message


def test_read_degree_set_of_no_vertex_is_the_graph_error():
    with pytest.raises(ValueError, match="^degree set of an empty graph is undefined$"):
        read_degree_set(io.StringIO("sbg 0 0\n"))


def test_read_degree_set_reads_from_where_the_source_stands():
    source = io.StringIO("preamble\nsbg 1 2\nu1 v1 +\nu1 v1 -\n")
    source.readline()
    with pytest.raises(ParseError, match="^line 3: duplicate edge u1 v1$"):
        read_degree_set(source)  # the streaming pass falls back to a whole read


def test_read_degree_set_reports_undecodable_bytes_as_a_whole_read_does(tmp_path, monkeypatch):
    monkeypatch.setattr(textio, "_CHUNK", 64)
    doc = tmp_path / "g.sbg"
    doc.write_bytes(emit_graph(realize_set({3, 40}).graph).encode() + b"# u1 \xff\n")
    with open(doc, encoding="utf-8") as source, pytest.raises(UnicodeDecodeError) as whole:
        source.read()
    with open(doc, encoding="utf-8") as source, pytest.raises(UnicodeDecodeError) as streamed:
        read_degree_set(source)
    assert str(streamed.value) == str(whole.value)


def test_read_degree_set_allocates_nothing_per_declared_vertex():
    source = io.StringIO("sbg 4000000 1\nu1 v1 +\n")
    tracemalloc.start()
    try:
        answer = read_degree_set(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert answer == (frozenset({0, 1}), False)
    assert peak < 2**20
