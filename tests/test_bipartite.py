import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdegree import (
    Sign,
    SignedBipartiteGraph,
    gale_ryser,
    is_bipartite_s_graphical,
    oracle_bipartite,
    reduce_pair,
)
from sdegree.core import signed_degree_sequences

from .conftest import bipartite_graphs, desc, standard_orientation, unsigned_bipartite_census


def is_standard_pair(alpha, beta):
    # some orientation (optional joint negation, either side leading) of the
    # pair, taken as two multisets, passes the standard-pair conditions of
    # the paper's reduction
    return standard_orientation(desc(alpha), desc(beta)) is not None


class TestIsStandardPair:
    def test_accepts_as_given(self):
        assert is_standard_pair([1], [1, 1, -1])

    def test_accepts_after_swapping_sides(self):
        # the all-zero side cannot lead, the other side can
        assert is_standard_pair([0, 0], [1, -1])

    def test_accepts_after_joint_negation(self):
        assert is_standard_pair([-1], [-1, -1, 1])

    def test_rejects_unequal_sums(self):
        assert not is_standard_pair([1], [-1])

    def test_rejects_entries_beyond_part_sizes(self):
        assert not is_standard_pair([3], [1, 1])  # |3| > q = 2

    def test_rejects_all_zero_pair(self):
        assert not is_standard_pair([0], [0, 0])

    def test_standard_does_not_mean_realizable(self):
        # the conditions are necessary-side bookkeeping, not a full test
        assert is_standard_pair([2, -2], [1, -1])
        assert not is_bipartite_s_graphical([2, -2], [1, -1])

    def test_treats_inputs_as_multisets(self):
        assert is_standard_pair([1, -1, 0], [0, 0]) == is_standard_pair(
            [0, -1, 1], [0, 0]
        )


class TestReducePair:
    def test_pinned_example(self):
        assert reduce_pair([1], [1, 1, -1], 1, 0) == ((), (1, 0, -1))

    def test_shift_moves_both_ends(self):
        # r=3, s=1: the three largest drop, the smallest rises
        assert reduce_pair([2, 1], [1, 1, 0, -1], 3, 1) == ((1,), (0, 0, 0, -1))

    def test_sorts_inputs_before_reducing(self):
        assert reduce_pair([1], [-1, 1, 1], 1, 0) == ((), (1, 0, -1))

    @pytest.mark.parametrize(
        "r, s",
        [
            (2, 0),  # r - s != d1
            (0, 0),
            (-1, -2),
            (3, 2),  # s beyond (q - d1) // 2
        ],
    )
    def test_rejects_bad_shifts(self, r, s):
        with pytest.raises(ValueError):
            reduce_pair([1], [1, 1, -1], r, s)

    def test_rejects_empty_alpha(self):
        with pytest.raises(ValueError):
            reduce_pair([], [1], 1, 0)

    def test_rejects_shift_when_beta_is_too_short(self):
        with pytest.raises(ValueError):
            reduce_pair([2], [1, 1], 3, 1)


class TestBipartiteDecider:
    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [
            ([1], [1], True),
            ([1], [1, 1, -1], True),
            ([0, 0], [1, -1], True),
            ([2, -2], [1, -1], False),
            ([1], [-1], False),
            ([3], [1, 1, 1], True),
            ([2], [1, 1], True),
            ([1, 1], [2], True),
            ([-2, -2], [-2, -2], True),
            ([2, 2], [2, -2], False),
            ([0], [0], True),
            ([0, 0, 0], [0], True),
        ],
    )
    def test_small_verdicts(self, alpha, beta, expected):
        assert is_bipartite_s_graphical(alpha, beta) is expected

    def test_empty_sides(self):
        assert is_bipartite_s_graphical([], [])
        assert is_bipartite_s_graphical([0], [])
        assert not is_bipartite_s_graphical([1], [])

    def test_accepts_integral_floats(self):
        assert is_bipartite_s_graphical([1.0], [1.0]) is True
        assert is_bipartite_s_graphical([1.0, -1], [0.0]) is True

    @pytest.mark.parametrize(
        "alpha, beta, entry",
        [
            ([1.5], [1.5], "1.5"),
            (["1"], ["1"], "'1'"),
            ([1], [0.5, 0.5], "0.5"),
            ([float("nan")], [0], "nan"),
            ([None], [0], "None"),
        ],
    )
    def test_rejects_non_integral_entries(self, alpha, beta, entry):
        with pytest.raises(ValueError, match=f"integers, got {entry}$"):
            is_bipartite_s_graphical(alpha, beta)

    def test_3000_ones_each_side_in_linear_memory(self):
        tracemalloc.start()
        try:
            assert is_bipartite_s_graphical([1] * 3000, [1] * 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    )
    def test_swap_and_negation_invariance(self, alpha, beta):
        verdict = is_bipartite_s_graphical(alpha, beta)
        assert is_bipartite_s_graphical(beta, alpha) == verdict
        assert (
            is_bipartite_s_graphical([-x for x in alpha], [-y for y in beta]) == verdict
        )

    def test_matches_oracle_exhaustively_small(self):
        # parts up to 2; the 3x3 sweep lives in the acceptance suite
        for p, q in ((1, 1), (1, 2), (2, 2)):
            for alpha in itertools.product(range(-q, q + 1), repeat=p):
                for beta in itertools.product(range(-p, p + 1), repeat=q):
                    assert is_bipartite_s_graphical(alpha, beta) == oracle_bipartite(
                        alpha, beta
                    ), (alpha, beta)


class TestGaleRyser:
    @pytest.mark.parametrize(
        "d, e, expected",
        [
            ([2, 1], [2, 1], True),
            ([2, 2], [2, 2], True),
            ([4], [1, 1, 1, 1], True),
            ([4], [4], False),  # dominance fails at k = 1
            ([2, 2], [1, 1], False),  # sums differ
            ([1, 1, 1], [3], True),
            ([3, 3], [2, 2, 1], False),
            ([], [], True),
            ([0], [], True),
            ([], [1], False),
        ],
    )
    def test_small_verdicts(self, d, e, expected):
        assert gale_ryser(d, e) is expected

    def test_e_order_does_not_matter(self):
        assert gale_ryser([2, 1], [1, 2]) is True
        assert gale_ryser([3, 2, 1], [1, 3, 2]) == gale_ryser([3, 2, 1], [3, 2, 1])

    def test_rejects_unsorted_d(self):
        with pytest.raises(ValueError):
            gale_ryser([1, 2], [2, 1])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            gale_ryser([2, -1], [1])
        with pytest.raises(ValueError):
            gale_ryser([1], [-1, 2])

    def test_accepts_integral_floats(self):
        assert gale_ryser([1.0], [1.0]) is True
        assert gale_ryser([1, 1], [1.0, 1.0]) is True
        assert gale_ryser([2.0, 1], [3.0]) is False  # dominance fails at k = 1

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError, match="integers"):
            gale_ryser([1], [0.5, 0.5])
        with pytest.raises(ValueError, match="integers"):
            gale_ryser([1.5, 0.5], [2])

    @settings(max_examples=300)
    @given(
        st.lists(st.integers(0, 12), max_size=12),
        st.lists(st.integers(0, 30), max_size=12),
        st.booleans(),
    )
    def test_matches_the_prefix_definition(self, d, e, level_sums):
        # e may hold zeros and entries beyond len(d); either side may be
        # empty; sums are levelled in about half the examples
        d.sort(reverse=True)
        if level_sums and e and sum(d) > sum(e):
            e[0] += sum(d) - sum(e)
        elif level_sums and d and sum(d) < sum(e):
            d[0] += sum(e) - sum(d)  # still non-increasing
        expected = sum(d) == sum(e) and all(
            sum(d[:k]) <= sum(min(k, y) for y in e) for k in range(1, len(d) + 1)
        )
        assert gale_ryser(d, e) is expected

    def test_matches_brute_force_smoke(self):
        # parts up to 3; the 4x4 sweep lives in the acceptance suite
        for p in range(1, 4):
            for q in range(1, 4):
                census = unsigned_bipartite_census(p, q)
                for d in itertools.combinations_with_replacement(range(3, -1, -1), p):
                    for e in itertools.product(range(4), repeat=q):
                        expected = (d, tuple(sorted(e, reverse=True))) in census
                        assert gale_ryser(d, e) == expected, (d, e)


@settings(max_examples=200)
@given(bipartite_graphs(max_side=8))
def test_decider_handles_sizes_beyond_the_oracle(g):
    # no guard here: the closed form works at sizes enumeration cannot reach
    assert is_bipartite_s_graphical(*signed_degree_sequences(g))


def test_decider_accepts_a_random_300_by_300_graph():
    rng = random.Random(300)
    edges = {
        (u, v): rng.choice((Sign.POSITIVE, Sign.NEGATIVE))
        for u in range(300)
        for v in range(300)
        if rng.random() < 0.7
    }
    g = SignedBipartiteGraph(300, 300, edges)
    assert is_bipartite_s_graphical(*signed_degree_sequences(g))
