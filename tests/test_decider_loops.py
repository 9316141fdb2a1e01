"""The sequence deciders orient and pick pivots through private, unchecked
helpers on plain lists, and reduce through reduce_hakimi.  These tests hold
them to the public step functions: a reference that composes
normalize_standard, reduce_hakimi and choose_m step by step must reach the
same verdict, at sizes beyond the oracles' range.  The pair decider is a
closed form, held the same way to the paper's pair reduction composed from
reduce_pair (conftest.pair_reference).  The step functions are in turn held
to plain elementwise versions of themselves: same result, or same exception
type and message.  The deciders also make the very reduce_hakimi calls of
their references, in the same order, and no entry point changes a list it
is handed."""

import itertools
import sys
from itertools import chain, islice, repeat
from operator import add, ge

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sdegree import (
    AllZero,
    NotStandard,
    Standard,
    choose_m,
    is_bipartite_s_graphical,
    is_s_graphical_branching,
    is_s_graphical_deterministic,
    normalize_standard,
    reduce_hakimi,
    reduce_pair,
    sgraphical,
)

from .conftest import desc, pair_reference


def _shifts(vals):
    # Lazy, so shift s + 1 is reduced only after shift s has failed.
    for s in range((len(vals) - 1 - vals[0]) // 2 + 1):
        yield reduce_hakimi(vals, s)


def branching_reference(seq):
    seen = set()
    stack = [iter([seq])]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        norm = normalize_standard(child)
        if isinstance(norm, AllZero):
            return True
        if isinstance(norm, Standard) and norm.values not in seen:
            seen.add(norm.values)
            stack.append(_shifts(norm.values))
    return False


def deterministic_reference(seq):
    norm = normalize_standard(seq)
    while isinstance(norm, Standard):
        vals = norm.values
        norm = normalize_standard(reduce_hakimi(vals, choose_m(vals)))
    return isinstance(norm, AllZero)


@st.composite
def sequences(draw, max_n=40):
    """Uniform entries in a drawn magnitude range, or the signed degree
    sequence of a random signed graph with one entry moved by 0 or ±2 (true,
    or false without an easy parity or magnitude reason)."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        top = draw(st.integers(0, n - 1))
        return draw(st.lists(st.integers(-top, top), min_size=n, max_size=n))
    rng = draw(st.randoms(use_true_random=False))
    deg = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        sign = rng.choice((-1, 0, 1))
        deg[a] += sign
        deg[b] += sign
    deg[rng.randrange(n)] += draw(st.sampled_from((0, 2, -2)))
    return deg


@st.composite
def pairs(draw, max_side=25):
    """Random entries with the sums levelled, or the part-wise sequences of
    a random signed bipartite graph with one entry per side moved by 0 or 1."""
    p = draw(st.integers(1, max_side))
    q = draw(st.integers(1, max_side))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        alpha = [rng.randint(-q, q) for _ in range(p)]
        beta = [rng.randint(-p, p) for _ in range(q)]
        beta[rng.randrange(q)] += sum(alpha) - sum(beta)
        return alpha, beta
    alpha, beta = [0] * p, [0] * q
    for u in range(p):
        for v in range(q):
            sign = rng.choice((-1, 0, 1))
            alpha[u] += sign
            beta[v] += sign
    bump = draw(st.sampled_from((0, 1)))
    alpha[rng.randrange(p)] += bump
    beta[rng.randrange(q)] += bump
    return alpha, beta


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_sequence_deciders_match_the_step_composition(seq):
    assert is_s_graphical_branching(seq) == branching_reference(seq)
    assert is_s_graphical_deterministic(seq) == deterministic_reference(seq)


@st.composite
def even_sum_sequences(draw, max_n=14):
    """Entries drawn uniformly from two or three levels, each uniform below
    the length in magnitude, one entry moved by 1 when the sum is odd.
    Blocks of equal entries make false sequences on which the search
    backtracks and meets failed states again."""
    n = draw(st.integers(1, max_n))
    levels = draw(st.lists(st.integers(1 - n, n - 1), min_size=2, max_size=3))
    seq = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    if sum(seq) % 2:
        seq[0] += 1 if seq[0] < n - 1 else -1
    return seq


def _steps(module, decide, seq):
    # The verdict and every reduce_hakimi(seq, s) call that decide makes
    # through module's global name, as (list(seq), s)
    calls = []
    step = module.reduce_hakimi

    def recorded(vals, s):
        calls.append((list(vals), s))
        return step(vals, s)

    module.reduce_hakimi = recorded
    try:
        return decide(seq), calls
    finally:
        module.reduce_hakimi = step


@settings(max_examples=300, deadline=None)
@given(st.one_of(sequences(), even_sum_sequences()))
@example([2, 2, 2, -2, -2])
@example([7] * 6 + [-6] * 8)  # 283 steps, 109 of them to a failed state
def test_sequence_deciders_make_the_reference_steps(seq):
    here = sys.modules[__name__]
    for decide, reference in (
        (is_s_graphical_branching, branching_reference),
        (is_s_graphical_deterministic, deterministic_reference),
    ):
        assert _steps(sgraphical, decide, seq) == _steps(here, reference, seq)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sequences(max_n=20), even_sum_sequences()), st.integers(-1, 4))
def test_no_entry_point_changes_its_list_argument(seq, s):
    # the deciders sort lists of their own in place, never the caller's
    for call in (
        is_s_graphical_branching,
        is_s_graphical_deterministic,
        normalize_standard,
        choose_m,
        lambda vals: reduce_hakimi(vals, s),
    ):
        for given_seq in (seq, sorted(seq, reverse=True)):
            arg = list(given_seq)
            _outcome(call, arg)
            assert arg == given_seq, call


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_pair_decider_matches_the_step_composition(pair):
    assert is_bipartite_s_graphical(*pair) == pair_reference(*pair)


@given(st.lists(st.integers(-6, 6), max_size=40))
def test_normalize_standard_matches_its_definition(seq):
    # sort; negate and sort again when the head is not positive and
    # dominant (a head equal to the tail's magnitude stays); then check
    # parity and magnitude
    vals = sorted(seq, reverse=True)
    if not any(vals):
        assert normalize_standard(seq) == AllZero()
        return
    negated = vals[0] <= 0 or vals[0] < -vals[-1]
    if negated:
        vals = sorted((-x for x in vals), reverse=True)
    n = len(vals)
    top = max(abs(x) for x in vals)
    norm = normalize_standard(seq)
    if sum(vals) % 2:
        assert norm == NotStandard("sum of entries is odd")
    elif top >= n:
        assert norm == NotStandard(f"an entry has magnitude {top}, not below the length {n}")
    else:
        assert norm == Standard(tuple(vals), negated)


def _refuse(*args, **kwargs):
    raise AssertionError("a decider called a step function it does not use")


def test_each_reduction_step_is_one_call_of_the_public_step(monkeypatch):
    # Orientation and the pivot run as private helpers, so wrappers around
    # normalize_standard and choose_m count 0 calls; every reduction step is
    # one call of reduce_hakimi, which a wrapper counts.
    calls = 0
    step = sgraphical.reduce_hakimi

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(sgraphical, "normalize_standard", _refuse)
    monkeypatch.setattr(sgraphical, "choose_m", _refuse)
    monkeypatch.setattr(sgraphical, "reduce_hakimi", counted)
    for seq, expected in (
        ([1, 1], True),
        ([2, 2, -1, -1], False),
        ([5, 5, 5, 5, 5, 5], True),
        ([1, 1, 1, 1, 0, -1, -1, -1, -1], True),
        ([3, 3, -3, -3], False),
    ):
        assert is_s_graphical_branching(seq) is expected, seq
        assert is_s_graphical_deterministic(seq) is expected, seq
    # [5] * 6 admits only shift 0 at every step: 5 steps reach all zeros
    calls = 0
    assert is_s_graphical_deterministic([5] * 6) and calls == 5


def reduce_hakimi_elementwise(seq, s):
    # reduce_hakimi with an entry-by-entry order check and spans that map
    # add over the entries
    vals = list(seq)
    if not vals or vals[0] < 1:
        raise ValueError("expected a standard sequence with positive head")
    if not all(map(ge, vals, islice(vals, 1, None))):
        raise ValueError("expected a non-increasing sequence")
    n = len(vals)
    d1 = vals[0]
    if not 0 <= s <= (n - 1 - d1) // 2:
        raise ValueError(
            f"shift s={s} outside [0, {(n - 1 - d1) // 2}] for head {d1}, length {n}"
        )
    k = d1 + s + 1
    out = list(map(add, vals[1:k], repeat(-1)))
    out += vals[k : n - s]
    out += map(add, vals[n - s :], repeat(1))
    return out


def reduce_pair_elementwise(alpha, beta, r, s):
    # reduce_pair with spans that map add over the entries of beta
    a = desc(alpha)
    b = desc(beta)
    if not a:
        raise ValueError("alpha must be nonempty")
    d1 = a[0]
    q = len(b)
    if r < 0 or s < 0 or r - s != d1:
        raise ValueError(f"need r - s = {d1} with r, s >= 0, got r={r}, s={s}")
    if s > (q - d1) // 2:
        raise ValueError(f"shift s={s} outside [0, {(q - d1) // 2}] for head {d1}, q={q}")
    stepped = chain(map(add, b[:r], repeat(-1)), b[r : q - s], map(add, b[q - s :], repeat(1)))
    return a[1:], desc(stepped)


def _outcome(step, *args):
    try:
        return "returned", step(*args)
    except Exception as exc:
        return "raised", (type(exc), str(exc))


@st.composite
def hakimi_arguments(draw):
    """A standard sequence, a sorted one (heads < 1 included), an unsorted
    one or an empty one, as a list or a tuple, with a shift drawn around
    and beyond the admissible range."""
    kind = draw(st.sampled_from(("standard", "sorted", "any")))
    if kind == "standard":
        norm = normalize_standard(draw(sequences()))
        assume(isinstance(norm, Standard))
        seq = list(norm.values)
    else:
        seq = draw(st.lists(st.integers(-12, 12), max_size=30))
        if kind == "sorted":
            seq.sort(reverse=True)
    if draw(st.booleans()):
        seq = tuple(seq)
    top = (len(seq) - 1 - seq[0]) // 2 if seq else 0
    return seq, draw(st.integers(-3, max(top, 0) + 3))


@settings(max_examples=500, deadline=None)
@given(hakimi_arguments())
@example(([], 0))
@example(((), 0))
@example(([-1, -1], 0))
@example(((2, 1, 3, 0), 0))
@example(([1, 1, 0, -1, -1], -1))
@example(((1, 1, 0, -1, -1), 2))
@example(([3, 1], 0))
def test_reduce_hakimi_matches_the_elementwise_step(arguments):
    seq, s = arguments
    assert _outcome(reduce_hakimi, seq, s) == _outcome(reduce_hakimi_elementwise, seq, s)


@st.composite
def pair_step_arguments(draw):
    """A pair from pairs() or two short lists (either may be empty), as
    lists or tuples in any order, with r - s the head of alpha or not and
    shifts drawn around and beyond the admissible range."""
    if draw(st.booleans()):
        alpha, beta = draw(pairs())
    else:
        alpha = draw(st.lists(st.integers(-8, 8), max_size=12))
        beta = draw(st.lists(st.integers(-8, 8), max_size=12))
    if draw(st.booleans()):
        alpha, beta = tuple(alpha), tuple(beta)
    head = max(alpha, default=0)
    top = (len(beta) - head) // 2
    s = draw(st.integers(-2, max(top, 0) + 2))
    r = head + s if draw(st.booleans()) else draw(st.integers(-2, len(beta) + 3))
    return alpha, beta, r, s


@settings(max_examples=500, deadline=None)
@given(pair_step_arguments())
def test_reduce_pair_matches_the_elementwise_step(arguments):
    assert _outcome(reduce_pair, *arguments) == _outcome(reduce_pair_elementwise, *arguments)
