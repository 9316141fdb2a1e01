"""Deciders for signed degree sequences of general signed graphs.

A sequence is first normalised: sort non-increasing, then negate every entry
when the head is non-positive or dominated in magnitude by the tail entry
(flipping all edge signs of a realizing graph negates its whole sequence, so
the two orientations stand or fall together).  A normalised nonzero sequence
is *standard* when its sum is even and every magnitude is below the length;
nothing else can be realized.  Integral floats such as 1.0 count as
integers; any other entry raises ValueError.

Standard sequences shrink by a Havel-Hakimi-style step: drop the head d1,
subtract 1 from the next d1+s entries, keep the middle, add 1 to the last s,
for a shift parameter s.  A depth-first search over every admissible shift
decides realizability; so does following the single pivot-chosen shift of
choose_m.  Both deciders are loops: the search's memo of failed states lives
for one call, so no state outlives the call and no sequence length meets
Python's recursion limit.

Each reduction step of a decider is one call of reduce_hakimi.  It checks
the order of its argument by comparing it with its own non-increasing sort,
which is one linear pass on the sorted lists the deciders hand it, and builds
the two shifted spans with list comprehensions.  choose_m bisects for its
pivot: the qualifying shifts of a non-increasing sequence form a prefix of
the shift range.  Orientation and the pivot run as private helpers on plain
lists, so no state object is built per step; the public normalize_standard
and choose_m are the same helpers behind their own argument handling.

The normal forms Standard, AllZero and NotStandard are named tuples: each
compares equal to the plain tuple of its fields, so ``AllZero() == ()`` and,
like every empty tuple, ``AllZero()`` is falsy.  Tell them apart with
isinstance.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from . import _integers

__all__ = [
    "Standard",
    "AllZero",
    "NotStandard",
    "normalize_standard",
    "reduce_hakimi",
    "choose_m",
    "is_s_graphical_branching",
    "is_s_graphical_deterministic",
]


class Standard(NamedTuple):
    """Normalised sequence meeting every standard condition."""

    values: tuple[int, ...]
    negated: bool


class AllZero(NamedTuple):
    """All entries zero (or no entries): realized by the edgeless graph."""


class NotStandard(NamedTuple):
    """No orientation is standard; ``reason`` names the violated condition."""

    reason: str


def _normal(seq: Iterable[int]) -> tuple[list[int], bool, str | None]:
    # Sort non-increasing, orient, classify.  Returns the oriented list
    # (empty when every entry is 0), whether it was negated, and the reason
    # it is not standard, or None when it is.  An int total means that
    # every entry is an int or a bool, so only other input pays for the
    # entry check.
    vals = list(seq)
    try:
        total = sum(vals)
    except TypeError:  # None, strings
        total = None
    if type(total) is not int:
        total = sum(vals := _integers(vals))
    vals.sort(reverse=True)
    if not vals or (vals[0] == 0 and vals[-1] == 0):
        return [], False, None
    negated = vals[0] <= 0 or vals[0] < -vals[-1]
    if negated:
        vals = [-x for x in reversed(vals)]
    # the head is now positive and at least the tail's magnitude
    if total % 2:
        return vals, negated, "sum of entries is odd"
    n = len(vals)
    if vals[0] >= n:
        return vals, negated, f"an entry has magnitude {vals[0]}, not below the length {n}"
    return vals, negated, None


def _pivot(vals: Sequence[int]) -> int:
    # choose_m on a non-increasing sequence, unchecked.  As m grows,
    # vals[d1 + m] never rises and vals[n - m] never falls, so the shifts
    # that qualify form a prefix of 1..(n-1-d1)//2: bisect for its end.
    n, d1 = len(vals), vals[0]
    lo, hi = 0, (n - 1 - d1) // 2
    while lo < hi:
        m = (lo + hi + 1) // 2
        if vals[d1 + m] > vals[n - m]:
            lo = m
        else:
            hi = m - 1
    return lo


def normalize_standard(seq: Iterable[int]) -> Standard | AllZero | NotStandard:
    """Sort non-increasing, orient the head positive and dominant, classify."""
    vals, negated, reason = _normal(seq)
    if not vals:
        return AllZero()
    if reason is not None:
        return NotStandard(reason)
    # orientation guarantees a positive, magnitude-dominant head
    if not (vals[0] > 0 and vals[0] >= -vals[-1]):
        raise AssertionError(f"orientation left a non-dominant head in {vals}")
    return Standard(tuple(vals), negated)


def _require_reducible(vals: Sequence[int]) -> None:
    if not vals or vals[0] < 1:
        raise ValueError("expected a standard sequence with positive head")
    # sorting a non-increasing list is one linear pass
    if vals != sorted(vals, reverse=True):
        raise ValueError("expected a non-increasing sequence")


def reduce_hakimi(seq: Sequence[int], s: int) -> list[int]:
    """One reduction step on a standard sequence.

    Drops the head d1, subtracts 1 from the next d1+s entries, keeps the
    middle, adds 1 to the last s.  The shift must satisfy
    0 <= s <= (n - 1 - d1) // 2 so the three spans tile the n-1 survivors.
    """
    vals = list(seq)
    _require_reducible(vals)
    n = len(vals)
    d1 = vals[0]
    if not 0 <= s <= (n - 1 - d1) // 2:
        raise ValueError(
            f"shift s={s} outside [0, {(n - 1 - d1) // 2}] for head {d1}, length {n}"
        )
    k = d1 + s + 1
    out = [x - 1 for x in vals[1:k]]
    out += vals[k : n - s]
    out += [x + 1 for x in vals[n - s :]]
    return out


def choose_m(seq: Sequence[int]) -> int:
    """Largest admissible shift m with values[d1+m] > values[n-m] (0-based),
    or 0 when no positive m qualifies.

    Candidates stay inside the shift range of reduce_hakimi, which also keeps
    both pivot indices on the sequence.  On a non-increasing sequence the
    qualifying shifts form a prefix of that range, so the answer is found by
    bisection in O(log n) comparisons.
    """
    vals = _integers(seq)
    _require_reducible(vals)
    return _pivot(vals)


def is_s_graphical_branching(seq: Iterable[int]) -> bool:
    """True when some signed graph has this multiset as its signed degree
    sequence, decided by searching every admissible shift at each step."""
    vals, _, reason = _normal(seq)
    if not vals:
        return True
    if reason is not None:
        return False
    # Depth-first over normalised states, each stacked with the next shift
    # to try; a state already searched in this call failed, because a
    # success ends the search.  The stack holds the very tuples in seen, so
    # a state on the search path is stored once.
    state = tuple(vals)
    seen = {state}
    stack = [(state, 0)]
    while stack:
        state, s = stack.pop()
        if s < (len(state) - 1 - state[0]) // 2:
            stack.append((state, s + 1))
        child, _, reason = _normal(reduce_hakimi(state, s))
        if not child:
            return True
        if reason is None:
            state = tuple(child)
            if state not in seen:
                seen.add(state)
                stack.append((state, 0))
    return False


def is_s_graphical_deterministic(seq: Iterable[int]) -> bool:
    """Same verdict as the branching search, but following the single
    pivot-chosen shift at every step."""
    vals, _, reason = _normal(seq)
    while vals and reason is None:
        vals, _, reason = _normal(reduce_hakimi(vals, _pivot(vals)))
    return not vals
