import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdegree
from sdegree import (
    Sign,
    SignedBipartiteGraph,
    degree_vectors,
    is_connected,
    realize_set,
    signed_degree_set,
    write_realization,
)
from sdegree import realize as realize_module
from sdegree import textio
from sdegree.core import join_all_positive
from sdegree.textio import emit_dot, emit_graph

from .conftest import acceptance_targets, flipped


class TestRealizePositiveSet:
    def test_singleton_becomes_complete_join(self):
        g = realize_set({3}).graph
        assert (g.p, g.q) == (3, 3)
        assert len(g.edges) == 9
        assert all(sign is Sign.POSITIVE for sign in g.edges.values())
        assert signed_degree_set(g) == {3}

    def test_two_element_set_pinned_layout(self):
        report = realize_set({1, 2})
        du, dv = degree_vectors(report.graph)
        assert du == [1, 2, 2]
        assert dv == [2, 2, 1]
        assert report.block_sizes == [
            ("X_1", 1),
            ("Y_1", 1),
            ("X_2", 1),
            ("X_2'", 1),
            ("Y_2", 1),
            ("Y_2'", 1),
        ]
        assert report.graph.block_labels == {
            ("u", 0): "X_1",
            ("u", 1): "X_2",
            ("u", 2): "X_2'",
            ("v", 0): "Y_1",
            ("v", 1): "Y_2",
            ("v", 2): "Y_2'",
        }

    def test_part_sizes_equal_target_sum(self):
        for s in ({1}, {2, 3}, {1, 4, 6}, {1, 2, 3, 4, 5, 6}):
            g = realize_set(s).graph
            assert g.p == g.q == sum(s)
            assert all(sign is Sign.POSITIVE for sign in g.edges.values())
            assert signed_degree_set(g) == s
            assert is_connected(g)


class TestRealizeNegativeSet:
    def test_is_the_flipped_mirror(self):
        report = realize_set({-2, -5})
        mirrored = realize_set({2, 5})
        assert report.graph == flipped(mirrored.graph)
        assert report.block_sizes == mirrored.block_sizes
        assert signed_degree_set(report.graph) == {-2, -5}


def test_realize_zero_set_is_the_alternating_square():
    report = realize_set({0})
    assert report.graph == SignedBipartiteGraph(
        2,
        2,
        {
            (0, 0): Sign.POSITIVE,
            (1, 1): Sign.POSITIVE,
            (0, 1): Sign.NEGATIVE,
            (1, 0): Sign.NEGATIVE,
        },
    )
    assert signed_degree_set(report.graph) == {0}
    assert is_connected(report.graph)


def _piece(target):
    """The layout realize_set builds for ``target``, and its graph."""
    layout = realize_module._build(frozenset(target))[0]
    return layout, realize_module._graph(layout)


def _single_edges(rects):
    """How many of rects are 1 x 1, that is, single edges; fails when any
    other rectangle is among them."""
    assert all(len(xs) == len(ys) == 1 for xs, ys, _ in rects)
    return len(rects)


def _shifted(rect, du, dv):
    xs, ys, sign = rect
    return range(xs.start + du, xs.stop + du), range(ys.start + dv, ys.stop + dv), sign


class TestAttachZeroGadget:
    def test_adds_four_zero_vertices_and_moves_nothing(self):
        base, base_graph = _piece({2, 3})
        grown = realize_module._attach_zero_gadget(base)
        # the gadget keeps every rectangle and adds six single edges
        assert grown.rects[: len(base.rects)] == base.rects
        assert _single_edges(grown.rects[len(base.rects) :]) == 6
        grown_graph = realize_module._graph(grown)
        du, dv = degree_vectors(base_graph)
        gu, gv = degree_vectors(grown_graph)
        assert (grown.p, grown.q) == (base.p + 2, base.q + 2)
        assert gu[: base.p] == du and gv[: base.q] == dv
        assert gu[base.p :] == [0, 0] and gv[base.q :] == [0, 0]
        assert is_connected(grown_graph)

    def test_labels_the_new_vertices(self):
        base, _ = _piece({1})
        grown = realize_module._attach_zero_gadget(base)
        assert grown.labels[len(base.labels) :] == [
            ("u", range(1, 2), "x_1"),
            ("u", range(2, 3), "x_2"),
            ("v", range(1, 2), "y_1"),
            ("v", range(2, 3), "y_2"),
        ]
        labels = realize_module._graph(grown).block_labels
        assert labels[("u", 1)] == "x_1"
        assert labels[("u", 2)] == "x_2"
        assert labels[("v", 1)] == "y_1"
        assert labels[("v", 2)] == "y_2"


class TestBridges:
    def test_bridge_mixed_preserves_piece_degrees(self):
        g1, graph1 = _piece({1, 3})
        g2, graph2 = _piece({-2})
        merged = realize_module._bridge_mixed(g1, g2)
        # each piece's rectangles, offset by the part sizes before it
        n1 = len(g1.rects)
        assert merged.rects[:n1] == g1.rects
        assert merged.rects[n1 : 2 * n1] == [_shifted(r, g1.p, g1.q) for r in g1.rects]
        n2 = len(g2.rects)
        assert merged.rects[2 * n1 : 2 * n1 + 2 * n2] == [
            _shifted(r, 2 * g1.p + k * g2.p, 2 * g1.q + k * g2.q) for k in (0, 1) for r in g2.rects
        ]
        # then the four bridge edges
        assert _single_edges(merged.rects[2 * n1 + 2 * n2 :]) == 4
        graph = realize_module._graph(merged)
        du, dv = degree_vectors(graph)
        d1u, d1v = degree_vectors(graph1)
        d2u, d2v = degree_vectors(graph2)
        assert du == d1u + d1u + d2u + d2u
        assert dv == d1v + d1v + d2v + d2v
        assert is_connected(graph)
        assert signed_degree_set(graph) == {1, 3, -2}

    def test_bridge_mixed_zero_adds_two_zero_vertices(self):
        g1, graph1 = _piece({2})
        g2, graph2 = _piece({-1, -3})
        merged = realize_module._bridge_with_zero(g1, g2)
        pieces = g1.rects + [_shifted(r, g1.p, g1.q) for r in g2.rects]
        assert merged.rects[: len(pieces)] == pieces
        assert all(sign is Sign.NEGATIVE for _, _, sign in merged.rects[len(g1.rects) : len(pieces)])
        # then six single edges that join the pieces and the fresh vertices
        assert _single_edges(merged.rects[len(pieces) :]) == 6
        graph = realize_module._graph(merged)
        du, dv = degree_vectors(graph)
        d1u, d1v = degree_vectors(graph1)
        d2u, d2v = degree_vectors(graph2)
        assert du == d1u + d2u + [0]
        assert dv == d1v + d2v + [0]
        assert graph.block_labels[("u", graph.p - 1)] == "x"
        assert graph.block_labels[("v", graph.q - 1)] == "y"
        assert is_connected(graph)
        assert signed_degree_set(graph) == {2, -1, -3, 0}


CASES = [
    ({2, 4}, "positive"),
    ({-1}, "negative"),
    ({0}, "zero_only"),
    ({0, 2}, "nonneg_with_zero"),
    ({-3, 0}, "nonpos_with_zero"),
    ({1, -1}, "mixed_nonzero"),
    ({2, 0, -1}, "mixed_with_zero"),
]


@pytest.mark.parametrize("target, case", CASES)
def test_realize_set_dispatch(target, case):
    report = realize_set(target)
    assert report.case_used == case
    assert signed_degree_set(report.graph) == target
    assert is_connected(report.graph)


def test_realize_set_rejects_empty_set():
    with pytest.raises(ValueError):
        realize_set([])


@pytest.mark.parametrize("bad", [[2.7], "12", [1, 0.5, 3], [-1.5], [float("inf")], [float("nan")], ["a"]])
def test_realize_set_refuses_non_integral_entries(bad):
    # int() would truncate them, and the postcondition checks against the
    # truncated set, so the refusal must come first
    with pytest.raises(ValueError, match="must be integers"):
        realize_set(bad)


def test_realize_set_accepts_integral_floats():
    assert realize_set([2.0, -1.0]) == realize_set({2, -1})


def test_realize_set_reads_a_one_shot_iterator_once():
    # the entries are checked and then collected, so a generator must be
    # read into a list first
    assert signed_degree_set(realize_set(x for x in (2, -1, 2)).graph) == {2, -1}


def test_realize_set_accepts_any_iterable_with_duplicates():
    report = realize_set([1, 1, -2, 1])
    assert signed_degree_set(report.graph) == {1, -2}


def test_mixed_case_reports_piece_blocks():
    report = realize_set({1, -1})
    names = [name for name, _ in report.block_sizes]
    assert names == [
        "G1.X_1",
        "G1.Y_1",
        "G1'.X_1",
        "G1'.Y_1",
        "G2.X_1",
        "G2.Y_1",
        "G2'.X_1",
        "G2'.Y_1",
    ]
    assert all(size == 1 for _, size in report.block_sizes)


def test_block_sizes_are_the_runs_of_the_block_labels():
    cases = set()
    for target in acceptance_targets():
        report = realize_set(target)
        if report.case_used in ("positive", "negative", "nonneg_with_zero", "nonpos_with_zero"):
            runs = [(name, len(list(run))) for name, run in itertools.groupby(report.graph.block_labels.values())]
            assert report.block_sizes == runs
            cases.add(report.case_used)
    assert len(cases) == 4
    assert realize_set({0}).block_sizes == [("U", 2), ("V", 2)]


def test_mixed_with_zero_reports_gadget_vertices():
    report = realize_set({2, 0, -1})
    assert report.block_sizes[-2:] == [("x", 1), ("y", 1)]
    assert report.block_sizes[0][0].startswith("G1.")


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(-9, 9), min_size=1, max_size=4))
def test_realize_set_hits_any_target(target):
    report = realize_set(target)
    assert signed_degree_set(report.graph) == target
    assert is_connected(report.graph)


def test_realize_set_exhaustive_small_targets():
    for k in range(1, 5):
        for combo in itertools.combinations(range(-6, 7), k):
            report = realize_set(combo)
            assert signed_degree_set(report.graph) == frozenset(combo)
            assert is_connected(report.graph)


def _paper_block_graph(s):
    """Reference for the positive construction: the paper's blocks, placed
    part by part and joined one complete join at a time."""
    t = [0] + sorted(s)
    u_blocks: dict[str, range] = {}
    v_blocks: dict[str, range] = {}

    def place(blocks, name, size):
        start = max((r.stop for r in blocks.values()), default=0)
        blocks[name] = range(start, start + size)

    for i in range(1, len(t)):
        place(u_blocks, f"X_{i}", t[i] - t[i - 1])
        place(v_blocks, f"Y_{i}", t[i] - t[i - 1])
        if i > 1:
            place(u_blocks, f"X_{i}'", t[i - 1])
            place(v_blocks, f"Y_{i}'", t[i - 1])
    g = SignedBipartiteGraph(sum(s), sum(s))
    for i in range(1, len(t)):
        for j in range(1, i + 1):
            g = join_all_positive(g, u_blocks[f"X_{i}"], v_blocks[f"Y_{j}"])
        if i > 1:
            g = join_all_positive(g, u_blocks[f"X_{i}'"], v_blocks[f"Y_{i}"])
            g = join_all_positive(g, u_blocks[f"X_{i}'"], v_blocks[f"Y_{i}'"])
    return g


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 15), min_size=1, max_size=8))
def test_positive_construction_matches_blockwise_joins(target):
    assert realize_set(target).graph == _paper_block_graph(target)


WIDE_TARGETS = [range(1, 41), range(-30, 31), (1, 200), (-120, 0, 90)]


def _emit_digest(targets, emit=emit_graph) -> str:
    h = hashlib.sha256()
    for target in targets:
        h.update(emit(realize_set(target).graph).encode())
    return h.hexdigest()


def test_emitted_graphs_match_recorded_digests():
    """SHA-256 of the concatenated emit_graph text, recorded from the
    block-by-block construction, so every graph stays identical byte for
    byte."""
    assert _emit_digest(acceptance_targets()) == (
        "060a43c56de3fd4fe9f3b359dc788af567611d7e3fc357c77b52c02749229576"
    )
    assert _emit_digest(WIDE_TARGETS) == (
        "98db285011574906bc8e90a6567b50ff061a52d67afaac677df0bb13a920bd7b"
    )


def test_dot_output_matches_recorded_digests():
    """SHA-256 of the concatenated emit_dot text, recorded from the emitter
    that formatted every edge line on its own, so DOT output stays identical
    byte for byte too."""
    assert _emit_digest(acceptance_targets(), emit_dot) == (
        "e9a1d9bca9538b8c5421c1ed674796e5c5a9d61ce9e62db155a8f836472c228c"
    )
    assert _emit_digest(WIDE_TARGETS, emit_dot) == (
        "a3f2d3a6f11829975963a4dfd7ce09152d3dd4c7edab107a449e8c5490fef29a"
    )


def test_layout_knows_its_edge_count_before_any_edge_exists():
    for target in acceptance_targets() + WIDE_TARGETS:
        layout = realize_module._build(frozenset(target))[0]
        planned = sum(len(xs) * len(ys) for xs, ys, _ in layout.rects)
        assert planned == len(realize_set(target).graph.edges), sorted(target)


@pytest.mark.parametrize("target, case", CASES)
def test_realize_set_validates_its_graph_once(monkeypatch, target, case):
    calls = []
    validate = SignedBipartiteGraph.__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(SignedBipartiteGraph, "__post_init__", counting)
    assert realize_set(target).graph is calls[-1]
    assert len(calls) == 1


def test_realize_module_keeps_the_core_names_perfbench_wraps():
    # perfbench/tracing.py wraps these names by attribute on sdegree.realize
    for name in ("join_all_positive", "signed_degree_set", "is_connected", "signed_degree_sequences"):
        assert callable(getattr(realize_module, name))


def test_perfbench_tracing_installs_on_the_package():
    # perfbench's traced runs call this install before any command; it
    # wraps names on the sdegree modules by attribute, so a deleted or
    # renamed name fails here
    root = Path(__file__).resolve().parent.parent
    src = str(Path(sdegree.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {src!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Tracer(), cli=True)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _optimized(script):
    """The stdout of script run under ``python -O``, with this checkout's
    sdegree on the path."""
    src = str(Path(sdegree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_postcondition_survives_python_optimize():
    # break the layout check's connectivity helper: realize_set must still
    # refuse the construction with AssertionError when asserts are stripped
    script = (
        "import sys\n"
        "import sdegree.realize as realize\n"
        "realize._connected = lambda p, q, pairs: False\n"
        "try:\n"
        "    realize.realize_set({1})\n"
        "except AssertionError:\n"
        "    print('raised', sys.flags.optimize)\n"
        "else:\n"
        "    print('returned', sys.flags.optimize)\n"
    )
    assert _optimized(script).split() == ["raised", "1"]


def test_layout_refusals_survive_python_optimize():
    # a repeated 1 x 1 piece and a piece outside its part: the survey must
    # refuse both with AssertionError when asserts are stripped
    script = (
        "import sys\n"
        "import sdegree.realize as realize\n"
        "square = realize._build(frozenset({0}))[0]\n"
        "layout = realize._build(frozenset({2}))[0]\n"
        "xs, ys, sign = layout.rects[0]\n"
        "print(sys.flags.optimize)\n"
        "for broken in (\n"
        "    square._replace(rects=square.rects + square.rects[:1]),\n"
        "    layout._replace(rects=[(range(xs.start, layout.p + 1), ys, sign)]),\n"
        "):\n"
        "    try:\n"
        "        realize._survey(broken)\n"
        "    except AssertionError as refusal:\n"
        "        print('raised:', refusal)\n"
        "    else:\n"
        "        print('returned')\n"
    )
    assert _optimized(script).splitlines() == [
        "1",
        "raised: two pieces of the layout share an edge at u1",
        "raised: a piece of the layout lies outside its part",
    ]


# ---------------------------------------------------------------- layout check


def _small_layouts():
    """The layout of every set of at most 3 elements in [-5, 5]."""
    for k in (1, 2, 3):
        for combo in itertools.combinations(range(-5, 6), k):
            yield frozenset(combo), realize_module._build(frozenset(combo))[0]


def _degree_set(survey):
    return {d for _, d in survey.u_degrees} | {d for _, d in survey.v_degrees}


def test_layout_survey_agrees_with_the_built_graph_when_pieces_are_dropped():
    """Drop random rectangles, single edges among them, from small layouts:
    the survey's degrees, connectivity and rows must be those of the graph
    the layout builds."""
    rng = random.Random(15)
    checked = disconnected = 0
    for _, layout in _small_layouts():
        for _ in range(5):
            dropped = layout._replace(rects=[r for r in layout.rects if rng.random() < 0.8])
            survey = realize_module._survey(dropped)
            graph = realize_module._graph(dropped)
            du, dv = degree_vectors(graph)
            assert list(realize_module._per_vertex(survey.u_degrees)) == du
            assert list(realize_module._per_vertex(survey.v_degrees)) == dv
            assert _degree_set(survey) == signed_degree_set(graph)
            assert survey.connected == is_connected(graph)
            text = io.StringIO()
            textio.write_rows(text, dropped.p, dropped.q, survey.rows, [])
            assert text.getvalue() == emit_graph(SignedBipartiteGraph(graph.p, graph.q, graph.edges))
            checked += 1
            disconnected += not survey.connected
    assert checked == 5 * 231 and disconnected > 100


def test_the_survey_asks_core_for_connectivity():
    assert realize_module._connected is sdegree.core._connected


# a positive set, one with 0, both kinds of mixed set and a nonpositive one
_LABELLED_SETS = [{1, 4, 6}, {0, 2, 5}, {-3, 1, 2}, {-2, 0, 3}, {-4, -1, 0}]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_LABELLED_SETS), st.randoms(use_true_random=False))
def test_write_rows_orders_label_runs_given_in_any_order(s, rng):
    layout, _, _, survey = realize_module._checked(frozenset(s))
    runs = list(layout.labels)
    rng.shuffle(runs)
    text = io.StringIO()
    textio.write_rows(text, layout.p, layout.q, survey.rows, runs)
    assert text.getvalue() == emit_graph(realize_set(s).graph)


def test_layout_survey_refuses_a_repeated_rectangle():
    rng = random.Random(16)
    refused = 0
    for _, layout in _small_layouts():
        filled = [r for r in layout.rects if r[0] and r[1]]
        if filled:
            twin = rng.choice(filled)
            with pytest.raises(AssertionError, match="share an edge"):
                realize_module._survey(layout._replace(rects=layout.rects + [twin]))
            refused += 1
    assert refused == 231  # {0}'s square is four 1 x 1 rectangles


def test_layout_survey_refuses_a_single_edge_inside_a_rectangle():
    rng = random.Random(17)
    for _, layout in _small_layouts():
        for xs, ys, sign in layout.rects:
            if xs and ys:
                u, v = rng.choice(xs), rng.choice(ys)
                single = (range(u, u + 1), range(v, v + 1), rng.choice([Sign.POSITIVE, Sign.NEGATIVE]))
                with pytest.raises(AssertionError, match="share an edge"):
                    realize_module._survey(layout._replace(rects=layout.rects + [single]))


def test_layout_survey_refuses_a_repeated_single_edge_and_a_piece_outside_its_part():
    square = realize_module._build(frozenset({0}))[0]
    with pytest.raises(AssertionError, match="share an edge"):
        realize_module._survey(square._replace(rects=square.rects + square.rects[:1]))
    layout = realize_module._build(frozenset({2}))[0]
    xs, ys, sign = layout.rects[0]
    for outside in ((range(xs.start, layout.p + 1), ys, sign), (xs, range(-1, ys.stop), sign)):
        with pytest.raises(AssertionError, match="outside its part"):
            realize_module._survey(layout._replace(rects=[outside]))


# ---------------------------------------------------------------- the writer


def _written(tmp_path, target):
    out, dot = tmp_path / "g.sbg", tmp_path / "g.dot"
    case, p, q = write_realization(target, out, dot)
    return case, p, q, out.read_bytes(), dot.read_bytes()


CATALOGUE = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "realize_catalogue.json"


def test_writer_matches_the_catalogue_digests(tmp_path):
    """Every set of the benchmark's catalogue, through the writer the CLI
    calls: the edge-list document must hash to the digest recorded there
    from emit_graph (the file is read, never rewritten)."""
    entries = json.loads(CATALOGUE.read_text())["sets"]
    assert len(entries) == 217
    out = tmp_path / "g.sbg"
    for entry in entries:
        case, _, _ = write_realization(entry["set"], out)
        assert case == entry["case"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["sha256"], entry["set"]


def test_writer_matches_the_emitters_on_every_acceptance_set(tmp_path):
    for target in acceptance_targets():
        report = realize_set(target)
        case, p, q, doc, dot = _written(tmp_path, target)
        assert (case, p, q) == (report.case_used, report.graph.p, report.graph.q)
        assert doc == emit_graph(report.graph).encode()
        assert dot == emit_dot(report.graph).encode(), sorted(target)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(-40, 40), min_size=1, max_size=6))
def test_writer_matches_the_emitters_on_random_sets(tmp_path_factory, target):
    report = realize_set(target)
    case, p, q, doc, dot = _written(tmp_path_factory.mktemp("w"), target)
    assert (case, p, q) == (report.case_used, report.graph.p, report.graph.q)
    assert doc == emit_graph(report.graph).encode()
    assert dot == emit_dot(report.graph).encode()


def test_writer_refuses_what_realize_set_refuses(tmp_path):
    out = tmp_path / "g.sbg"
    for bad in ([], [2.5], ["a"]):
        with pytest.raises(ValueError):
            write_realization(bad, out)
    assert not out.exists()


def test_writer_memory_grows_with_the_longest_row(tmp_path):
    # {1, 1000}: 1,000,001 edges, an 11.8 MB document and a 29.9 MB DOT file;
    # building the graph for emit_graph peaked near 190 MB
    tracemalloc.start()
    try:
        done = write_realization({1, 1000}, tmp_path / "g.sbg", tmp_path / "g.dot")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert done == ("positive", 1001, 1001)
    assert peak < 2 * 2**20
    with open(tmp_path / "g.sbg") as doc:
        assert doc.readline() == "sbg 1001 1001\n"
        assert sum(1 for line in doc if line.startswith("u")) == 1_000_001
