import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdegree import (
    AllZero,
    NotStandard,
    Standard,
    choose_m,
    is_s_graphical_branching,
    is_s_graphical_deterministic,
    normalize_standard,
    oracle_s_graphical,
    reduce_hakimi,
)


class TestNormalizeStandard:
    def test_empty_and_all_zero_collapse(self):
        assert normalize_standard([]) == AllZero()
        assert normalize_standard([0]) == AllZero()
        assert normalize_standard([0, 0, 0]) == AllZero()

    def test_sorts_non_increasing(self):
        assert normalize_standard([0, 2, -1, 1]) == Standard((2, 1, 0, -1), negated=False)

    def test_negates_when_head_non_positive(self):
        assert normalize_standard([-1, -1]) == Standard((1, 1), negated=True)
        assert normalize_standard([0, 0, -2]) == Standard((2, 0, 0), negated=True)

    def test_negates_when_tail_dominates_head(self):
        # head 1 is positive yet |−2| wins, so the mirror orientation is the
        # standard one; forgetting this case would misclassify the sequence
        assert normalize_standard([1, 0, -1, -2]) == Standard((2, 1, 0, -1), negated=True)

    def test_odd_sum_is_not_standard(self):
        assert normalize_standard([1, 1, 1]) == NotStandard("sum of entries is odd")

    def test_magnitude_bound(self):
        norm = normalize_standard([2, -2])
        assert isinstance(norm, NotStandard)
        assert "magnitude 2" in norm.reason
        assert isinstance(normalize_standard([3, 1]), NotStandard)

    @given(st.lists(st.integers(-1, 1), max_size=8))
    def test_bool_and_integral_float_entries_read_as_ints(self, seq):
        bools = [bool(x) if x >= 0 else x for x in seq]
        norm = normalize_standard(seq)
        assert normalize_standard(bools) == normalize_standard([float(x) for x in seq]) == norm
        if isinstance(norm, Standard):
            assert {type(x) for x in normalize_standard(bools).values} == {int}

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=8))
    def test_standard_output_is_standard(self, seq):
        norm = normalize_standard(seq)
        if isinstance(norm, Standard):
            vals = norm.values
            n = len(vals)
            assert list(vals) == sorted(vals, reverse=True)
            assert vals[0] > 0
            assert vals[0] >= -vals[-1]
            assert sum(vals) % 2 == 0
            assert all(abs(x) < n for x in vals)
            expected = sorted((-x for x in seq) if norm.negated else seq, reverse=True)
            assert list(vals) == expected


class TestReduceHakimi:
    def test_pinned_example(self):
        assert reduce_hakimi([1, 1, 0, -1, -1], 1) == [0, -1, -1, 0]

    def test_zero_shift_is_plain_head_removal(self):
        assert reduce_hakimi([2, 2, 2], 0) == [1, 1]
        assert reduce_hakimi([1, 1], 0) == [0]

    def test_spans_tile_the_survivors(self):
        # n=7, d1=1, s=2: subtract on 3 entries, keep 1, add on 2
        assert reduce_hakimi([1, 1, 1, 0, 0, -1, -2], 2) == [0, 0, -1, 0, 0, -1]

    @pytest.mark.parametrize("s", [-1, 2])
    def test_shift_outside_range(self, s):
        with pytest.raises(ValueError):
            reduce_hakimi([1, 1, 0, -1, -1], s)

    @pytest.mark.parametrize("seq", [[], [0, 1], [1, 2], [-1, -2]])
    def test_rejects_non_standard_input(self, seq):
        with pytest.raises(ValueError):
            reduce_hakimi(seq, 0)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=8))
    def test_preserves_sum_parity_and_length(self, seq):
        norm = normalize_standard(seq)
        if not isinstance(norm, Standard):
            return
        vals = list(norm.values)
        n, d1 = len(vals), vals[0]
        for s in range((n - 1 - d1) // 2 + 1):
            out = reduce_hakimi(vals, s)
            assert len(out) == n - 1
            # head d1 leaves and d1+s entries drop 1 while s entries gain 1
            assert sum(out) == sum(vals) - 2 * d1
            assert sum(out) % 2 == 0


class TestChooseM:
    def test_pinned_example(self):
        assert choose_m([1, 1, 0, -1, -1]) == 1

    def test_zero_when_no_pivot_qualifies(self):
        assert choose_m([2, 2, 2]) == 0
        assert choose_m([1, 1]) == 0
        assert choose_m([2, 2, 1, 1]) == 0

    def test_takes_the_largest_qualifying_shift(self):
        assert choose_m([1, 1, 1, -1, -1, -1]) == 1
        assert choose_m([1, 1, 1, 1, 0, -1, -1, -1, -1]) == 3

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=9))
    def test_result_is_an_admissible_shift(self, seq):
        norm = normalize_standard(seq)
        if not isinstance(norm, Standard):
            return
        vals = list(norm.values)
        m = choose_m(vals)
        assert 0 <= m <= (len(vals) - 1 - vals[0]) // 2
        reduce_hakimi(vals, m)  # must not raise

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.lists(st.integers(-12, 12), min_size=1, max_size=200),
            st.integers(1, 200).map(lambda n: [1] * n),
            # runs of equal entries, all-ones runs among them
            st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 60)), min_size=1, max_size=4).map(
                lambda runs: [x for value, count in runs for x in [value] * count]
            ),
        )
    )
    def test_matches_the_all_candidates_definition(self, seq):
        norm = normalize_standard(seq)
        if not isinstance(norm, Standard):
            return
        vals = norm.values
        n, d1 = len(vals), vals[0]
        qualifying = [m for m in range(1, (n - 1 - d1) // 2 + 1) if vals[d1 + m] > vals[n - m]]
        assert choose_m(vals) == max(qualifying, default=0)


DECIDERS = [is_s_graphical_branching, is_s_graphical_deterministic]


@pytest.mark.parametrize("decide", DECIDERS)
class TestDeciders:
    def test_all_zero_is_realizable(self, decide):
        assert decide([])
        assert decide([0, 0])

    @pytest.mark.parametrize(
        "seq, expected",
        [
            ([1], False),
            ([1, 1], True),
            ([2, 2, 2], True),
            ([1, 0, -1, -2], True),
            ([2, 2, -1, -1], False),
            ([3, 1], False),
            ([1, 1, 1], False),
            ([5, 5, 5, 5, 5, 5], True),
            ([3, 3, -3, -3], False),
        ],
    )
    def test_small_verdicts(self, decide, seq, expected):
        assert decide(seq) is expected

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8), st.randoms())
    def test_order_invariance(self, decide, seq, rng):
        shuffled = list(seq)
        rng.shuffle(shuffled)
        assert decide(shuffled) == decide(seq)

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    def test_negation_invariance(self, decide, seq):
        assert decide([-x for x in seq]) == decide(seq)

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    def test_odd_sum_never_realizable(self, decide, seq):
        if sum(seq) % 2:
            assert not decide(seq)

    def test_accepts_a_random_signed_graph_on_400_vertices(self, decide):
        # 400 reduction steps deep; runs at the default recursion limit
        rng = random.Random(400)
        deg = [0] * 400
        for a, b in itertools.combinations(range(400), 2):
            sign = rng.choice((-1, 0, 1))
            deg[a] += sign
            deg[b] += sign
        assert decide(deg)

    def test_rejects_a_planted_false_sequence_of_length_400(self, decide):
        # j vertices of degree n-1 meet every other vertex, so every other
        # signed degree is at least j - (n-1-j) = 2j-n+1; plant one below it
        n, j = 400, 300
        rng = random.Random(401)
        seq = [n - 1] * j + [0] + [rng.randint(1 - n, n - 1) for _ in range(n - j - 1)]
        if sum(seq) % 2:
            seq[j] = 1
        assert seq[j] < 2 * j - n + 1
        assert isinstance(normalize_standard(seq), Standard)
        assert not decide(seq)


def test_deciders_match_oracle_exhaustively_small():
    # n <= 4 smoke sweep; the n = 5 sweep lives in the acceptance suite
    for n in range(1, 5):
        for vals in itertools.combinations_with_replacement(range(n - 1, -n, -1), n):
            expected = oracle_s_graphical(vals)
            assert is_s_graphical_branching(vals) == expected, vals
            assert is_s_graphical_deterministic(vals) == expected, vals


@settings(max_examples=300)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
def test_branching_and_deterministic_agree_beyond_oracle_range(seq):
    assert is_s_graphical_branching(seq) == is_s_graphical_deterministic(seq)
