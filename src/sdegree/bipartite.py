"""Deciders for degree data of bipartite graphs.

is_bipartite_s_graphical answers whether two integer sequences can appear as
the part-wise signed degree sequences of one signed bipartite graph, via a
depth-first search of head-removal steps over orientation-normalised pairs.
The search is a loop whose memo of failed pairs lives for one call, so no
state outlives the call and no input length meets Python's recursion limit.
gale_ryser is the classical dominance test for unsigned bipartite degree
pairs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "is_standard_pair",
    "reduce_pair",
    "is_bipartite_s_graphical",
    "gale_ryser",
]


def _desc(seq: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(seq, reverse=True))


def _negated(seq: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted((-x for x in seq), reverse=True))


def _orientations(a, b):
    # Tried in a fixed order: as given, jointly negated, swapped, both.
    # Negating flips every edge sign of a witness; swapping transposes the
    # parts; neither changes realizability.
    yield a, b
    yield _negated(a), _negated(b)
    yield b, a
    yield _negated(b), _negated(a)


def _lead_side_standard(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # a plays the leading role; both tuples arrive sorted non-increasing.
    p, q = len(a), len(b)
    if not a or (a[0] == 0 and a[-1] == 0):
        return False
    if a[0] <= 0 or a[0] < -a[-1]:
        return False
    if sum(a) != sum(b):
        return False
    if any(abs(x) > q for x in a):
        return False
    if any(abs(y) > p or abs(y) > a[0] for y in b):
        return False
    return True


def _standard_orientation(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    # The first standard orientation of a sorted pair, leading side first.
    for x, y in _orientations(a, b):
        if _lead_side_standard(x, y):
            return x, y
    return None


def is_standard_pair(alpha: Iterable[int], beta: Iterable[int]) -> bool:
    """True when some orientation (optional joint negation, either side
    leading) satisfies the standard-pair conditions.

    Sequences are treated as multisets and sorted internally.
    """
    return _standard_orientation(_desc(alpha), _desc(beta)) is not None


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
    a = list(_desc(alpha))
    b = list(_desc(beta))
    if not a:
        raise ValueError("alpha must be nonempty")
    d1 = a[0]
    q = len(b)
    if r < 0 or s < 0 or r - s != d1:
        raise ValueError(f"need r - s = {d1} with r, s >= 0, got r={r}, s={s}")
    if s > (q - d1) // 2:
        raise ValueError(f"shift s={s} outside [0, {(q - d1) // 2}] for head {d1}, q={q}")
    if r + s > q:
        raise ValueError(f"r + s = {r + s} exceeds q = {q}")
    for i in range(r):
        b[i] -= 1
    for i in range(q - s, q):
        b[i] += 1
    return tuple(a[1:]), _desc(b)


def _pair_reductions(
    lead: tuple[int, ...], other: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # Lazy, so shift s + 1 is reduced only after shift s has failed.
    d1 = lead[0]
    for s in range((len(other) - d1) // 2 + 1):
        yield reduce_pair(lead, other, d1 + s, s)


def is_bipartite_s_graphical(alpha: Iterable[int], beta: Iterable[int]) -> bool:
    """True when some signed bipartite graph has alpha and beta as its
    part-wise signed degree sequences (as multisets)."""
    # Depth-first over standard orientations; one already searched in this
    # call failed, because a success ends the search.
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    stack = [iter([(_desc(alpha), _desc(beta))])]
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            continue
        a, b = pair
        if all(x == 0 for x in a) and all(y == 0 for y in b):
            return True  # edgeless layout, including an exhausted leading side
        oriented = _standard_orientation(a, b)
        if oriented is not None and oriented not in seen:
            seen.add(oriented)
            stack.append(_pair_reductions(*oriented))
    return False


def gale_ryser(d: Sequence[int], e: Sequence[int]) -> bool:
    """Unsigned bipartite degree-pair test: equal sums and every prefix of d
    dominated by sum(min(k, e_j)).

    d must arrive sorted non-increasing; all entries must be non-negative.
    """
    d = list(d)
    e = list(e)
    if any(x < 0 for x in d) or any(y < 0 for y in e):
        raise ValueError("entries must be non-negative")
    if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
        raise ValueError("d must be sorted non-increasing")
    if sum(d) != sum(e):
        return False
    prefix = 0
    for k in range(1, len(d) + 1):
        prefix += d[k - 1]
        if prefix > sum(min(k, y) for y in e):
            return False
    return True
