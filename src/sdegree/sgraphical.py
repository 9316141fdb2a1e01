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
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Standard:
    """Normalised sequence meeting every standard condition."""

    values: tuple[int, ...]
    negated: bool


@dataclass(frozen=True)
class AllZero:
    """All entries zero (or no entries): realized by the edgeless graph."""


@dataclass(frozen=True)
class NotStandard:
    """No orientation is standard; ``reason`` names the violated condition."""

    reason: str


NormalForm = Standard | AllZero | NotStandard


def normalize_standard(seq: Iterable[int]) -> NormalForm:
    """Sort non-increasing, orient the head positive and dominant, classify."""
    vals = sorted(seq, reverse=True)
    if not vals or (vals[0] == 0 and vals[-1] == 0):
        return AllZero()
    negated = False
    if vals[0] <= 0 or vals[0] < -vals[-1]:
        vals = sorted((-x for x in vals), reverse=True)
        negated = True
    n = len(vals)
    if sum(vals) % 2:
        return NotStandard("sum of entries is odd")
    top = max(vals[0], -vals[-1])
    if top >= n:
        return NotStandard(f"an entry has magnitude {top}, not below the length {n}")
    # orientation guarantees a positive, magnitude-dominant head
    if not (vals[0] > 0 and vals[0] >= -vals[-1]):
        raise AssertionError(f"orientation left a non-dominant head in {vals}")
    return Standard(tuple(vals), negated)


def _require_reducible(vals: Sequence[int]) -> None:
    if not vals or vals[0] < 1:
        raise ValueError("expected a standard sequence with positive head")
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
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
    out = vals[1:]
    for i in range(d1 + s):
        out[i] -= 1
    for i in range(n - 1 - s, n - 1):
        out[i] += 1
    return out


def choose_m(seq: Sequence[int]) -> int:
    """Largest admissible shift m with values[d1+m] > values[n-m] (0-based),
    or 0 when no positive m qualifies.

    Candidates stay inside the shift range of reduce_hakimi, which also keeps
    both pivot indices on the sequence.
    """
    vals = list(seq)
    _require_reducible(vals)
    n = len(vals)
    d1 = vals[0]
    best = 0
    for m in range(1, (n - 1 - d1) // 2 + 1):
        if vals[d1 + m] > vals[n - m]:
            best = m
    return best


def _reductions(vals: tuple[int, ...]) -> Iterator[list[int]]:
    # Lazy, so shift s + 1 is reduced only after shift s has failed.
    for s in range((len(vals) - 1 - vals[0]) // 2 + 1):
        yield reduce_hakimi(vals, s)


def is_s_graphical_branching(seq: Iterable[int]) -> bool:
    """True when some signed graph has this multiset as its signed degree
    sequence, decided by searching every admissible shift at each step."""
    # Depth-first over normalised states; a state already searched in this
    # call failed, because a success ends the search.
    seen: set[tuple[int, ...]] = set()
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
            stack.append(_reductions(norm.values))
    return False


def is_s_graphical_deterministic(seq: Iterable[int]) -> bool:
    """Same verdict as the branching search, but following the single
    pivot-chosen shift at every step."""
    norm = normalize_standard(seq)
    while isinstance(norm, Standard):
        vals = norm.values
        norm = normalize_standard(reduce_hakimi(vals, choose_m(vals)))
    return isinstance(norm, AllZero)
