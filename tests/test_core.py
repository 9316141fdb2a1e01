import tracemalloc

import pytest
from hypothesis import given

from sdegree import (
    Sign,
    SignedBipartiteGraph,
    degree_vectors,
    flip_signs,
    is_connected,
    join_all_positive,
    signed_degree_sequences,
    signed_degree_set,
)

from .conftest import bipartite_graphs


def test_sign_str():
    assert str(Sign.POSITIVE) == "+"
    assert str(Sign.NEGATIVE) == "-"


@pytest.mark.parametrize(
    "p, q, edges, labels",
    [
        (1, 1, {(0, 1): Sign.POSITIVE}, {}),  # v out of range
        (1, 1, {(1, 0): Sign.POSITIVE}, {}),  # u out of range
        (1, 1, {(0, 0): 1}, {}),  # not a Sign
        (1, 1, {}, {("u", 1): "X_1"}),  # label names no vertex
        (1, 1, {}, {("w", 0): "X_1"}),  # unknown part
        (-1, 2, {}, {}),
    ],
)
def test_bipartite_rejects_bad_input(p, q, edges, labels):
    with pytest.raises(ValueError):
        SignedBipartiteGraph(p, q, edges, labels)


def test_bipartite_equality_ignores_labels():
    edges = {(0, 0): Sign.POSITIVE}
    assert SignedBipartiteGraph(1, 1, edges, {("u", 0): "X_1"}) == SignedBipartiteGraph(
        1, 1, edges
    )
    assert SignedBipartiteGraph(1, 1, edges) != SignedBipartiteGraph(1, 2, edges)
    assert SignedBipartiteGraph(1, 1, edges) != SignedBipartiteGraph(
        1, 1, {(0, 0): Sign.NEGATIVE}
    )


def test_bipartite_copies_constructor_dicts():
    edges = {(0, 0): Sign.POSITIVE}
    labels = {("u", 0): "X_1"}
    g = SignedBipartiteGraph(1, 1, edges, labels)
    edges[(0, 0)] = Sign.NEGATIVE
    labels[("u", 0)] = "other"
    assert g.edges[(0, 0)] is Sign.POSITIVE
    assert g.block_labels[("u", 0)] == "X_1"


def _square():
    # 2x2 square whose four vertices all sit at signed degree zero
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


def test_degree_vectors_by_index():
    g = SignedBipartiteGraph(
        2, 2, {(0, 0): Sign.POSITIVE, (0, 1): Sign.POSITIVE, (1, 0): Sign.NEGATIVE}
    )
    assert degree_vectors(g) == ([2, -1], [0, 1])


def test_signed_degree_set_both_kinds():
    assert signed_degree_set(_square()) == {0}
    assert signed_degree_set(SignedBipartiteGraph(1, 1, {(0, 0): Sign.NEGATIVE})) == {-1}
    assert signed_degree_set(SignedBipartiteGraph(1, 2, {(0, 1): Sign.NEGATIVE})) == {-1, 0}
    with pytest.raises(ValueError):
        signed_degree_set(SignedBipartiteGraph(0, 0))
    with pytest.raises(TypeError):
        signed_degree_set("nope")


def test_signed_degree_sequences_sorted_non_increasing():
    g = SignedBipartiteGraph(
        2, 2, {(0, 0): Sign.NEGATIVE, (1, 0): Sign.POSITIVE, (1, 1): Sign.POSITIVE}
    )
    assert signed_degree_sequences(g) == ((2, -1), (1, 0))
    with pytest.raises(ValueError):
        signed_degree_sequences(SignedBipartiteGraph(0, 2))


def test_is_connected_cases():
    assert is_connected(SignedBipartiteGraph(1, 0))
    assert is_connected(SignedBipartiteGraph(0, 1))
    assert not is_connected(SignedBipartiteGraph(1, 1))
    assert is_connected(SignedBipartiteGraph(1, 1, {(0, 0): Sign.NEGATIVE}))
    assert is_connected(_square())
    # five edges could join six vertices, but a 2x2 square leaves (2, 2) apart
    square_and_edge = dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], Sign.POSITIVE)
    assert not is_connected(SignedBipartiteGraph(3, 3, square_and_edge))
    with pytest.raises(ValueError):
        is_connected(SignedBipartiteGraph(0, 0))
    with pytest.raises(TypeError):
        is_connected(42)


def test_is_connected_allocates_nothing_per_declared_vertex():
    g = SignedBipartiteGraph(10**6, 1, {(0, 0): Sign.POSITIVE})
    tracemalloc.start()
    try:
        assert not is_connected(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_join_all_positive_adds_complete_join():
    g = SignedBipartiteGraph(2, 2)
    joined = join_all_positive(g, [0, 1], [1])
    assert joined.edges == {(0, 1): Sign.POSITIVE, (1, 1): Sign.POSITIVE}
    assert g.edges == {}  # original untouched


def test_join_all_positive_rejects_occupied_pair_and_bad_endpoint():
    g = SignedBipartiteGraph(2, 2, {(0, 1): Sign.NEGATIVE})
    with pytest.raises(ValueError):
        join_all_positive(g, [0], [1])
    with pytest.raises(ValueError):
        join_all_positive(g, [2], [0])


def test_flip_signs_negates_degrees():
    g = SignedBipartiteGraph(2, 2, {(0, 0): Sign.POSITIVE, (1, 0): Sign.NEGATIVE})
    du, dv = degree_vectors(g)
    fu, fv = degree_vectors(flip_signs(g))
    assert fu == [-x for x in du]
    assert fv == [-x for x in dv]
    with pytest.raises(TypeError):
        flip_signs(object())


@given(bipartite_graphs(with_labels=True))
def test_flip_signs_is_involution(g):
    back = flip_signs(flip_signs(g))
    assert back == g
    assert back.block_labels == g.block_labels
