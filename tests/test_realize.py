import hashlib
import os
import subprocess
import sys
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
    join_all_positive,
    realize_negative_set,
    realize_positive_set,
    realize_set,
    realize_zero_set,
    signed_degree_set,
)
from sdegree import realize as realize_module
from sdegree.textio import emit_dot, emit_graph

from .conftest import acceptance_targets, flipped


class TestRealizePositiveSet:
    def test_singleton_becomes_complete_join(self):
        g = realize_positive_set({3}).graph
        assert (g.p, g.q) == (3, 3)
        assert len(g.edges) == 9
        assert all(sign is Sign.POSITIVE for sign in g.edges.values())
        assert signed_degree_set(g) == {3}

    def test_two_element_set_pinned_layout(self):
        report = realize_positive_set({1, 2})
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
            g = realize_positive_set(s).graph
            assert g.p == g.q == sum(s)
            assert all(sign is Sign.POSITIVE for sign in g.edges.values())
            assert signed_degree_set(g) == s
            assert is_connected(g)

    @pytest.mark.parametrize("bad", [set(), {0, 1}, {-1, 2}])
    def test_rejects_non_positive_targets(self, bad):
        with pytest.raises(ValueError):
            realize_positive_set(bad)


class TestRealizeNegativeSet:
    def test_is_the_flipped_mirror(self):
        report = realize_negative_set({-2, -5})
        mirrored = realize_positive_set({2, 5})
        assert report.graph == flipped(mirrored.graph)
        assert report.block_sizes == mirrored.block_sizes
        assert signed_degree_set(report.graph) == {-2, -5}

    @pytest.mark.parametrize("bad", [set(), {-1, 0}, {-1, 2}])
    def test_rejects_non_negative_targets(self, bad):
        with pytest.raises(ValueError):
            realize_negative_set(bad)


def test_realize_zero_set_is_the_alternating_square():
    report = realize_zero_set()
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


def _shifted(rect, du, dv):
    xs, ys, sign = rect
    return range(xs.start + du, xs.stop + du), range(ys.start + dv, ys.stop + dv), sign


class TestAttachZeroGadget:
    def test_adds_four_zero_vertices_and_moves_nothing(self):
        base, base_graph = _piece({2, 3})
        grown = realize_module._attach_zero_gadget(base, 0, 0)
        assert grown.rects == base.rects  # the gadget adds single edges only
        assert len(grown.singles) == len(base.singles) + 6
        grown_graph = realize_module._graph(grown)
        du, dv = degree_vectors(base_graph)
        gu, gv = degree_vectors(grown_graph)
        assert (grown.p, grown.q) == (base.p + 2, base.q + 2)
        assert gu[: base.p] == du and gv[: base.q] == dv
        assert gu[base.p :] == [0, 0] and gv[base.q :] == [0, 0]
        assert is_connected(grown_graph)

    def test_labels_the_new_vertices(self):
        base, _ = _piece({1})
        grown = realize_module._attach_zero_gadget(base, 0, 0)
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
        merged = realize_module._bridge_mixed(g1, g1, g2, g2)
        # each piece's rectangles, offset by the part sizes before it
        n1 = len(g1.rects)
        assert merged.rects[:n1] == g1.rects
        assert merged.rects[n1 : 2 * n1] == [_shifted(r, g1.p, g1.q) for r in g1.rects]
        assert merged.rects[2 * n1 :] == [
            _shifted(r, 2 * g1.p + k * g2.p, 2 * g1.q + k * g2.q) for k in (0, 1) for r in g2.rects
        ]
        assert len(merged.singles) == 4
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
        assert merged.rects == g1.rects + [_shifted(r, g1.p, g1.q) for r in g2.rects]
        assert all(sign is Sign.NEGATIVE for _, _, sign in merged.rects[len(g1.rects) :])
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
    import itertools

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
    assert realize_positive_set(target).graph == _paper_block_graph(target)


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
        planned = sum(len(xs) * len(ys) for xs, ys, _ in layout.rects) + len(layout.singles)
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


def test_postcondition_survives_python_optimize():
    script = (
        "import sys\n"
        "import sdegree.realize as realize\n"
        "realize.is_connected = lambda g: False\n"
        "try:\n"
        "    realize.realize_set({1})\n"
        "except AssertionError:\n"
        "    print('raised', sys.flags.optimize)\n"
        "else:\n"
        "    print('returned', sys.flags.optimize)\n"
    )
    src = str(Path(sdegree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "1"]
