"""Deciders for degree data of bipartite graphs.

is_bipartite_s_graphical answers whether two integer sequences can appear as
the part-wise signed degree sequences of one signed bipartite graph, in
closed form.  Adding 1 to every entry of a signed biadjacency matrix gives a
matrix with entries in 0..2, row sums alpha_i + q and column sums
beta_j + p, and every such matrix comes from one signed bipartite graph.  So
the pair is realizable iff those margins pass the Gale-Ryser test for
matrices with entries 0..2 (max-flow min-cut).  gale_ryser is the classical
test for unsigned bipartite degree pairs, entries 0..1.  Both run the same
count-table dominance check, in O(p + q) after sorting.

reduce_pair is the paper's head-removal step.  No decider here calls it; the
tests compose it into the paper's pair reduction and hold the closed form to
that.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate, islice, repeat
from operator import ge, le, sub

from . import _integers

__all__ = ["reduce_pair", "is_bipartite_s_graphical", "gale_ryser"]


def _desc(seq: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(seq, reverse=True))


def _dominated(rows: list[int], cols: list[int], cap: int) -> bool:
    # True when every prefix sum of rows (sorted non-increasing) is at most
    # sum(min(cap*k, c_j)).  sum(min(m, c_j)) is the sum over t = 1..m of
    # #{j : c_j >= t} = len(cols) - #{j : c_j < t}; tally[v] counts the c_j
    # equal to v, with every c_j >= top in tally[top], since no m beyond
    # top = cap * len(rows) is asked.
    top = cap * len(rows)
    tally = [0] * (top + 1)
    for y in cols:
        tally[y if y < top else top] += 1
    below = accumulate(tally)  # m-th value: #{j : c_j < m}
    caps = accumulate(map(sub, repeat(len(cols)), below))  # m-th: sum(min(m, c_j))
    return all(map(le, accumulate(rows), islice(caps, cap - 1, None, cap)))


def reduce_pair(
    alpha: Iterable[int], beta: Iterable[int], r: int, s: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Head-removal step: drop the largest entry d1 of alpha, subtract 1 from
    the r largest entries of beta, and add 1 to the s smallest.

    Requires r - s = d1 with 0 <= s <= (q - d1) // 2, hence r + s <= q.  Ties
    are broken positionally on the non-increasing sort of beta: "largest"
    means the first r positions, "smallest" the last s.  Both results come
    back sorted non-increasing.
    """
    a = _desc(_integers(alpha))
    b = _desc(_integers(beta))
    if not a:
        raise ValueError("alpha must be nonempty")
    d1 = a[0]
    q = len(b)
    if r < 0 or s < 0 or r - s != d1:
        raise ValueError(f"need r - s = {d1} with r, s >= 0, got r={r}, s={s}")
    if s > (q - d1) // 2:
        raise ValueError(f"shift s={s} outside [0, {(q - d1) // 2}] for head {d1}, q={q}")
    stepped = [y - 1 for y in b[:r]]
    stepped += b[r : q - s]
    stepped += [y + 1 for y in b[q - s :]]
    return a[1:], _desc(stepped)


def is_bipartite_s_graphical(alpha: Iterable[int], beta: Iterable[int]) -> bool:
    """True when some signed bipartite graph has alpha and beta as its
    part-wise signed degree sequences (as multisets).

    Entries must be integers, where integral floats such as 1.0 count as
    integers; any other entry raises ValueError.  Runs in O(p + q) after
    sorting alpha, for p = len(alpha), q = len(beta).
    """
    a, b = _integers(alpha), _integers(beta)
    p, q = len(a), len(b)
    # margins alpha_i + q in 0..2q and beta_j + p in 0..2p, with equal sums
    if max(map(abs, a), default=0) > q or max(map(abs, b), default=0) > p or sum(a) != sum(b):
        return False
    rows = sorted([x + q for x in a], reverse=True)
    return _dominated(rows, [y + p for y in b], 2)


def gale_ryser(d: Sequence[int], e: Sequence[int]) -> bool:
    """Unsigned bipartite degree-pair test: equal sums and every prefix of d
    dominated by sum(min(k, e_j)).

    d must arrive sorted non-increasing; all entries must be non-negative
    integers, where integral floats such as 1.0 count as integers.  Runs in
    O(p + q) for p = len(d), q = len(e).
    """
    d, e = _integers(d), _integers(e)
    if min(d, default=0) < 0 or min(e, default=0) < 0:
        raise ValueError("entries must be non-negative")
    if not all(map(ge, d, islice(d, 1, None))):
        raise ValueError("d must be sorted non-increasing")
    return sum(d) == sum(e) and _dominated(d, e, 1)
