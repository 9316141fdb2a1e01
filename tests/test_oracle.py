import itertools

import pytest

from sdegree import (
    MAX_ORACLE_SLOTS,
    MAX_ORACLE_VERTICES,
    OracleLimitError,
    connected_degree_sets,
    enumerate_signed_bipartite,
    oracle_bipartite,
    oracle_s_graphical,
)


@pytest.mark.parametrize("p, q, expected", [(0, 3, 1), (1, 1, 3), (1, 2, 9), (2, 2, 81)])
def test_enumerate_signed_bipartite_count(p, q, expected):
    assert sum(1 for _ in enumerate_signed_bipartite(p, q)) == expected


def test_enumeration_yields_distinct_graphs():
    seen = {
        tuple(sorted((pair, sign.value) for pair, sign in g.edges.items()))
        for g in enumerate_signed_bipartite(2, 2)
    }
    assert len(seen) == 81


def test_size_guards():
    with pytest.raises(OracleLimitError):
        next(enumerate_signed_bipartite(3, 5))  # 15 slots
    with pytest.raises(OracleLimitError):
        oracle_s_graphical([0] * (MAX_ORACLE_VERTICES + 1))
    with pytest.raises(OracleLimitError):
        oracle_bipartite([0] * 4, [0] * 4)
    # the guard error is a ValueError, so one except clause can catch both
    assert issubclass(OracleLimitError, ValueError)
    assert 4 * 4 > MAX_ORACLE_SLOTS


def test_enumerate_rejects_negative_sizes():
    with pytest.raises(ValueError):
        next(enumerate_signed_bipartite(-1, 2))


@pytest.mark.parametrize(
    "seq, expected",
    [
        ([], True),
        ([0], True),
        ([0, 0, 0], True),
        ([1], False),
        ([1, 1], True),
        ([1, -1], False),  # the lone edge cannot carry both signs
        ([2], False),
        ([2, 2, 2], True),
        ([1, 0], False),  # odd sum
        ([2, -2], False),  # magnitude needs a third vertex
        ([1, 0, -1, -2], True),
    ],
)
def test_oracle_s_graphical_small_cases(seq, expected):
    assert oracle_s_graphical(seq) is expected


def test_oracle_s_graphical_ignores_input_order():
    assert oracle_s_graphical([-2, 1, 0, -1]) is True
    assert oracle_s_graphical([0, 1]) is False


@pytest.mark.parametrize(
    "alpha, beta, expected",
    [
        ([1], [1], True),
        ([1], [-1], False),  # part sums must agree
        ([2], [1, 1], True),
        ([1, 1], [2], True),
        ([0, 0], [1, -1], True),
        ([2, -2], [1, -1], False),
        ([1], [1, 1, -1], True),
        ([0], [0], True),
    ],
)
def test_oracle_bipartite_small_cases(alpha, beta, expected):
    assert oracle_bipartite(alpha, beta) is expected


def test_connected_degree_sets_smallest_sizes():
    assert connected_degree_sets(1, 1) == [(-1,), (1,)]
    assert connected_degree_sets(1, 2) == [(-2, -1), (-1, 0, 1), (1, 2)]
    with pytest.raises(ValueError):
        connected_degree_sets(0, 1)


def test_connected_degree_sets_closed_under_negation():
    sets = connected_degree_sets(2, 2)
    for degree_set in sets:
        assert tuple(sorted(-x for x in degree_set)) in sets


def test_census_matches_direct_enumeration():
    # membership answers must match a fresh scan of the same space
    from sdegree.core import signed_degree_sequences

    expected = set()
    for g in enumerate_signed_bipartite(2, 2):
        expected.add(signed_degree_sequences(g))
    for a in itertools.product(range(-2, 3), repeat=2):
        for b in itertools.product(range(-2, 3), repeat=2):
            key = (tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True)))
            assert oracle_bipartite(a, b) == (key in expected)
