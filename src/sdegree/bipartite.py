"""Deciders for degree data of bipartite graphs.

is_bipartite_s_graphical answers whether two integer sequences can appear as
the part-wise signed degree sequences of one signed bipartite graph, via a
depth-first search of head-removal steps over orientation-normalised pairs.
The search is a loop whose memo of failed pairs lives for one call, so no
state outlives the call and no input length meets Python's recursion limit.
Each head-removal step is one call of reduce_pair.  It sorts its arguments,
which is a linear pass on the sorted tuples the search hands it, and builds
the two shifted spans of beta with list comprehensions.  The search orients
each pair by looking only at the two ends, the length and the sum of each
side, and builds a negated tuple only for the orientation it picks.
gale_ryser is the classical dominance test for unsigned bipartite degree
pairs, in O(p + q) time after its input checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate, islice, repeat
from operator import ge, le, sub

__all__ = ["reduce_pair", "is_bipartite_s_graphical", "gale_ryser"]


def _desc(seq: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(seq, reverse=True))


def _negated(seq: tuple[int, ...]) -> tuple[int, ...]:
    # seq is sorted non-increasing, so its negation reversed is too
    return tuple([-x for x in reversed(seq)])


def _standard_orientation(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    # The first standard orientation of a sorted pair, leading side first,
    # in the order: as given, jointly negated, swapped, both (negating flips
    # every edge sign of a witness, swapping transposes the parts; neither
    # changes realizability).  The leading side's head must be positive and
    # its largest magnitude, at most the other side's length and at least
    # the other side's largest magnitude, which must be at most the leading
    # side's length; the sums must agree.  Both tuples are sorted
    # non-increasing, so a side's largest magnitude sits at one of its ends,
    # and only the chosen negated tuples are built.
    if not a or not b:
        return None
    top_a, top_b = max(a[0], -a[-1]), max(b[0], -b[-1])
    if top_a > len(b) or top_b > len(a) or top_a == top_b == 0 or sum(a) != sum(b):
        return None
    if top_a >= top_b:
        return (a, b) if a[0] == top_a else (_negated(a), _negated(b))
    return (b, a) if b[0] == top_b else (_negated(b), _negated(a))


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
    a = _desc(alpha)
    b = _desc(beta)
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
    part-wise signed degree sequences (as multisets)."""
    a, b = _desc(alpha), _desc(beta)
    if not any(a) and not any(b):
        return True  # edgeless layout
    oriented = _standard_orientation(a, b)
    if oriented is None:
        return False
    # Depth-first over standard orientations, each stacked with the next
    # shift to try; one already searched in this call failed, because a
    # success ends the search.
    seen = {oriented}
    stack = [(*oriented, 0)]
    while stack:
        a, b, s = stack.pop()
        if s < (len(b) - a[0]) // 2:
            stack.append((a, b, s + 1))
        a, b = reduce_pair(a, b, a[0] + s, s)
        if not any(a) and not any(b):
            return True  # edgeless layout, including an exhausted leading side
        oriented = _standard_orientation(a, b)
        if oriented is not None and oriented not in seen:
            seen.add(oriented)
            stack.append((*oriented, 0))
    return False


def gale_ryser(d: Sequence[int], e: Sequence[int]) -> bool:
    """Unsigned bipartite degree-pair test: equal sums and every prefix of d
    dominated by sum(min(k, e_j)).

    d must arrive sorted non-increasing; all entries must be non-negative
    integers, where integral floats such as 1.0 count as integers.  Runs in
    O(p + q) for p = len(d), q = len(e).
    """
    d = list(d)
    e = list(e)
    if min(d, default=0) < 0 or min(e, default=0) < 0:
        raise ValueError("entries must be non-negative")
    if not all(map(ge, d, islice(d, 1, None))):
        raise ValueError("d must be sorted non-increasing")
    whole = list(map(int, e))  # e indexes the count table below
    if whole != e or d != list(map(int, d)):
        raise ValueError("entries must be integers")
    e = whole
    if sum(d) != sum(e):
        return False
    # sum(min(k, e_j)) = sum over t = 1..k of #{j : e_j >= t}, and
    # #{j : e_j >= t} = q - #{j : e_j < t}; tally[v] counts the e_j equal to
    # v, with every e_j >= p in tally[p], since no k beyond p is asked.
    p = len(d)
    tally = [0] * (p + 1)
    for y in e:
        tally[y if y < p else p] += 1
    below = accumulate(tally)  # k-th value: #{j : e_j < k}
    caps = accumulate(map(sub, repeat(len(e)), below))  # k-th: sum(min(k, e_j))
    return all(map(le, accumulate(d), caps))
