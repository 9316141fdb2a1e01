import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdegree import (
    Sign,
    SignedBipartiteGraph,
    degree_vectors,
    is_connected,
    realize_set,
    signed_degree_set,
)
from sdegree.core import join_all_positive, signed_degree_sequences

from .conftest import bipartite_graphs, flipped


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


def _connected_by_union_find(p, q, edges):
    # U vertex u is node u and V vertex v is node p + v
    parent = list(range(p + q))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[root(u)] = root(p + v)
    return len({root(x) for x in range(p + q)}) == 1


@st.composite
def small_graphs(draw):
    """Any p, q in 0..6 (not both 0), each vertex pair an edge or not."""
    p = draw(st.integers(0, 6))
    q = draw(st.integers(1 if p == 0 else 0, 6))
    pairs = [(u, v) for u in range(p) for v in range(q)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    signs = st.sampled_from((Sign.POSITIVE, Sign.NEGATIVE))
    edges = {pair: draw(signs) for pair, keep in zip(pairs, chosen) if keep}
    return SignedBipartiteGraph(p, q, edges)


@settings(max_examples=300)
@given(small_graphs())
def test_is_connected_matches_union_find(g):
    assert is_connected(g) == _connected_by_union_find(g.p, g.q, g.edges)


def test_is_connected_holds_no_vertex_number_per_edge_end():
    # 58,528 edges with V indices past the small-int cache: adjacency that
    # stores u and p + v as new ints peaks near 3 MB here, one that holds
    # the edge keys' own ints near 1 MB
    g = realize_set({12, 28, 240}).graph
    assert len(g.edges) == 58_528
    tracemalloc.start()
    try:
        assert is_connected(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


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
    fu, fv = degree_vectors(flipped(g))
    assert fu == [-x for x in du]
    assert fv == [-x for x in dv]


@given(bipartite_graphs(with_labels=True))
def test_flip_signs_is_involution(g):
    back = flipped(flipped(g))
    assert back == g
    assert back.block_labels == g.block_labels
    assert signed_degree_set(flipped(g)) == {-d for d in signed_degree_set(g)}


@given(bipartite_graphs(max_side=6))
def test_signed_degree_set_matches_degree_vectors(g):
    # graphs with fewer than p + q - 1 edges take the sparse path
    du, dv = degree_vectors(g)
    assert signed_degree_set(g) == frozenset(du) | frozenset(dv)


def test_signed_degree_set_allocates_nothing_per_declared_vertex():
    g = SignedBipartiteGraph(10**6, 1, {(0, 0): Sign.POSITIVE})
    tracemalloc.start()
    try:
        assert signed_degree_set(g) == {0, 1}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _validated_per_edge(p, q, edges, labels):
    """Reference validation: one loop over the edges that checks each edge
    and re-inserts it into a fresh dict, then the same for the labels."""
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError(f"part sizes must be ints, got p={p!r}, q={q!r}")
    if p < 0 or q < 0:
        raise ValueError(f"part sizes must be non-negative, got p={p}, q={q}")
    checked = {}
    for key, sign in edges.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(isinstance(i, int) for i in key)):
            raise ValueError(f"edge key {key!r} is not a pair of ints")
        u, v = key
        if not (0 <= u < p and 0 <= v < q):
            raise ValueError(f"edge ({u}, {v}) out of range for p={p}, q={q}")
        if not isinstance(sign, Sign):
            raise ValueError(f"edge ({u}, {v}) carries a non-sign value {sign!r}")
        checked[(u, v)] = sign
    checked_labels = {}
    for (part, idx), tag in labels.items():
        size = p if part == "u" else q if part == "v" else -1
        if not 0 <= idx < size:
            raise ValueError(f"label key ({part!r}, {idx}) does not name a vertex")
        if not (isinstance(tag, str) and tag and not any(c.isspace() for c in tag)):
            raise ValueError(f"label tag {tag!r} of ({part!r}, {idx}) is not one word")
        checked_labels[(part, idx)] = tag
    return checked, checked_labels


class _EqualToAnything:
    def __eq__(self, other):
        return True


_index = st.integers(-1, 4)
_keys = st.one_of(
    st.tuples(_index, _index),
    st.tuples(_index),
    st.tuples(_index, _index, _index),
    st.tuples(_index, st.booleans()),
    st.tuples(st.floats(-1, 4), _index),
    st.integers(0, 3),
    st.text(max_size=3),
    st.binary(min_size=2, max_size=2),
    st.none(),
)
_values = st.one_of(
    st.sampled_from(Sign), st.integers(-1, 1), st.none(), st.just(_EqualToAnything()), st.just("+")
)
_label_keys = st.one_of(
    st.tuples(st.sampled_from("uvw"), _index),
    st.tuples(st.just("u")),
    st.integers(0, 3),
    st.text(max_size=2),
)


def _outcome(build):
    try:
        return "accepted", build()
    except (TypeError, ValueError) as exc:
        return "rejected", (type(exc), str(exc))


@settings(max_examples=400)
@given(
    st.integers(-1, 4),
    st.integers(-1, 4),
    st.dictionaries(_keys, _values, max_size=4),
    st.dictionaries(_label_keys, st.sampled_from(("X_1", "", "a b", "X\nu1 v1 +")), max_size=3),
)
def test_validation_matches_the_per_edge_loop(p, q, edges, labels):
    want, why = _outcome(lambda: _validated_per_edge(p, q, edges, labels))
    got, what = _outcome(lambda: SignedBipartiteGraph(p, q, edges, labels))
    assert got == want
    if got == "accepted":
        assert (what.edges, what.block_labels) == why
    elif len(edges) <= 1:
        # with several bad entries the two may name different ones first
        assert what == why


@pytest.mark.parametrize(
    "key",
    [b"\x00\x01", (0.0, 1.0), "01"],
    ids=["bytes", "floats", "str"],
)
def test_edge_keys_must_be_pairs_of_ints(key):
    # each of these unpacks into two values that index or compare like ints
    with pytest.raises(ValueError, match="is not a pair of ints"):
        SignedBipartiteGraph(1, 2, {key: Sign.POSITIVE, (0, 0): Sign.NEGATIVE})


def test_edge_keys_accept_int_subclasses():
    g = SignedBipartiteGraph(2, 2, {(True, False): Sign.POSITIVE})
    assert g == SignedBipartiteGraph(2, 2, {(1, 0): Sign.POSITIVE})


@pytest.mark.parametrize("tag", ["X\nu1 v1 +", "a b", "", "\t", 7], ids=repr)
def test_label_tags_must_be_one_word(tag):
    # the edge-list format writes a tag as one word after "# u<i> ", so any
    # other tag would not read back as the same graph
    with pytest.raises(ValueError, match="is not one word"):
        SignedBipartiteGraph(1, 1, {(0, 0): Sign.POSITIVE}, {("u", 0): tag})


@pytest.mark.parametrize("p, q", [(2.5, 1), (1, 1.0), ("2", 1), (None, 1)])
def test_part_sizes_must_be_ints(p, q):
    with pytest.raises(ValueError, match="part sizes must be ints"):
        SignedBipartiteGraph(p, q, {(0, 0): Sign.POSITIVE})


def test_part_sizes_accept_int_subclasses():
    assert SignedBipartiteGraph(True, True, {(0, 0): Sign.POSITIVE}) == SignedBipartiteGraph(
        1, 1, {(0, 0): Sign.POSITIVE}
    )
