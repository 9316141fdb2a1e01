"""Deciders for signed degree sequences of general signed graphs.

A sequence is first normalised: sort non-increasing, then negate every entry
when the head is non-positive or dominated in magnitude by the tail entry
(flipping all edge signs of a realizing graph negates its whole sequence, so
the two orientations stand or fall together).  A normalised nonzero sequence
is *standard* when its sum is even and every magnitude is below the length;
nothing else can be realized.

Standard sequences shrink by a Havel-Hakimi-style step: drop the head d1,
subtract 1 from the next d1+s entries, keep the middle, add 1 to the last s,
for a shift parameter s.  A depth-first search over every admissible shift
decides realizability; so does following the single pivot-chosen shift of
choose_m.  Both deciders are loops: the search's memo of failed states lives
for one call, so no state outlives the call and no sequence length meets
Python's recursion limit.

Each reduction step of a decider is one call of reduce_hakimi, whose
argument check is a single C-level pass.  Orientation and the pivot run as
private helpers on plain lists, so no state object is built per step; the
public normalize_standard and choose_m are the same helpers behind their
own argument handling.

The normal forms Standard, AllZero and NotStandard are named tuples: each
compares equal to the plain tuple of its fields, so ``AllZero() == ()`` and,
like every empty tuple, ``AllZero()`` is falsy.  Tell them apart with
isinstance.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import islice, repeat
from operator import add, ge
from typing import NamedTuple

__all__ = [
    "Standard",
    "AllZero",
    "NotStandard",
    "NormalForm",
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


NormalForm = Standard | AllZero | NotStandard


def _normal(seq: Iterable[int]) -> tuple[list[int], bool, str | None]:
    # Sort non-increasing, orient, classify.  Returns the oriented list
    # (empty when every entry is 0), whether it was negated, and the reason
    # it is not standard, or None when it is.
    vals = sorted(seq, reverse=True)
    if not vals or (vals[0] == 0 and vals[-1] == 0):
        return [], False, None
    negated = vals[0] <= 0 or vals[0] < -vals[-1]
    if negated:
        vals = [-x for x in reversed(vals)]
    # the head is now positive and at least the tail's magnitude
    if sum(vals) % 2:
        return vals, negated, "sum of entries is odd"
    n = len(vals)
    if vals[0] >= n:
        return vals, negated, f"an entry has magnitude {vals[0]}, not below the length {n}"
    return vals, negated, None


def _pivot(vals: Sequence[int]) -> int:
    # choose_m on a standard non-increasing sequence, unchecked: scan from
    # the largest admissible shift down, so the first hit is the answer.
    n, d1 = len(vals), vals[0]
    for m in range((n - 1 - d1) // 2, 0, -1):
        if vals[d1 + m] > vals[n - m]:
            return m
    return 0


def normalize_standard(seq: Iterable[int]) -> NormalForm:
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
    if not all(map(ge, vals, islice(vals, 1, None))):
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
    out = list(map(add, vals[1:k], repeat(-1)))
    out += vals[k : n - s]
    out += map(add, vals[n - s :], repeat(1))
    return out


def choose_m(seq: Sequence[int]) -> int:
    """Largest admissible shift m with values[d1+m] > values[n-m] (0-based),
    or 0 when no positive m qualifies.

    Candidates stay inside the shift range of reduce_hakimi, which also keeps
    both pivot indices on the sequence; they are scanned from the largest
    down, so the first hit is the answer.
    """
    vals = list(seq)
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
