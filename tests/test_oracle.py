import itertools
from operator import add

import pytest

from sdegree import (
    MAX_ORACLE_SLOTS,
    MAX_ORACLE_VERTICES,
    OracleLimitError,
    connected_degree_sets,
    oracle_bipartite,
    oracle_s_graphical,
)
from sdegree.oracle import _pair_census, _sequence_census, _touches

from .conftest import (
    enumerate_signed_bipartite,
    exhaustive_bipartite_census,
    exhaustive_sequence_census,
)

# The exhaustive definitions come from tests/conftest.py; the first two tests
# check that they list each labelled graph once.


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
        connected_degree_sets(3, 7)  # 21 slots
    with pytest.raises(OracleLimitError):
        oracle_s_graphical([0] * (MAX_ORACLE_VERTICES + 1))
    with pytest.raises(OracleLimitError):
        oracle_bipartite([0] * 4, [0] * 6)
    # the guard error is a ValueError, so one except clause can catch both
    assert issubclass(OracleLimitError, ValueError)
    assert (MAX_ORACLE_VERTICES, MAX_ORACLE_SLOTS) == (7, 20)


def test_enumerate_rejects_negative_sizes():
    with pytest.raises(ValueError):
        connected_degree_sets(-1, 2)


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


def test_sequence_census_matches_the_exhaustive_definition():
    for n in range(6):
        assert _sequence_census(n) == exhaustive_sequence_census(n), n


_SHAPES = [(p, q) for p in range(11) for q in range(11) if p * q <= 10]


def test_pair_census_matches_the_exhaustive_definition():
    for p, q in _SHAPES:
        assert _pair_census(p, q) == exhaustive_bipartite_census(p, q)[0], (p, q)


def test_connected_degree_sets_match_the_exhaustive_definition():
    for p, q in _SHAPES:
        if p and q:
            assert connected_degree_sets(p, q) == exhaustive_bipartite_census(p, q)[1], (p, q)


@pytest.mark.parametrize("degrees", [(0,), (1, 0), (2, 1, 1), (1, 1, 0, 0), (3, 2, 0, -1)])
def test_touches_match_every_choice_of_edges(degrees):
    # the census tests cannot see a missed swap (d up, d + 1 down) at the
    # guarded shapes, so the joins of one component are checked here
    expected = {
        (sum(choice), tuple(sorted(map(add, degrees, choice), reverse=True)), any(choice))
        for choice in itertools.product((0, 1, -1), repeat=len(degrees))
    }
    assert _touches(degrees) == expected


def _chungphaisan(seq) -> bool:
    """Chungphaisan's theorem: d is s-graphical iff the degrees d_i + n - 1
    form a loopless multigraph with edge multiplicity at most 2, iff their
    sum is even and, sorted non-increasing, every k has
    sum(first k) <= 2k(k-1) + sum over the rest of min(2k, d_i)."""
    n = len(seq)
    m = sorted((d + n - 1 for d in seq), reverse=True)
    if min(m, default=0) < 0 or sum(m) % 2:
        return False
    return all(
        sum(m[:k]) <= 2 * k * (k - 1) + sum(min(2 * k, x) for x in m[k:]) for k in range(1, n + 1)
    )


def test_seven_vertex_census_matches_chungphaisan():
    sequences = list(itertools.combinations_with_replacement(range(6, -7, -1), 7))
    assert len(sequences) == 50_388
    census = _sequence_census(7)
    assert all((seq in census) == _chungphaisan(seq) for seq in sequences)
    assert sum(map(_chungphaisan, sequences)) == len(census)
