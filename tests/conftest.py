"""Shared test helpers: brute-force censuses, the paper's pair reduction and
graph strategies."""

import itertools
import random
from functools import lru_cache

from hypothesis import strategies as st

from sdegree import (
    Sign,
    SignedBipartiteGraph,
    degree_vectors,
    is_connected,
    reduce_pair,
    signed_degree_set,
)

# The exhaustive definitions the oracle censuses are checked against: every
# vertex pair (or U x V pair) is a slot holding one of absent, positive,
# negative, and every one of the 3**slots fillings is a labelled graph.
_FILLINGS = (None, Sign.POSITIVE, Sign.NEGATIVE)


def enumerate_signed_bipartite(p: int, q: int):
    """Yield every simple signed bipartite graph on parts of size p and q."""
    slots = [(u, v) for u in range(p) for v in range(q)]
    for choice in itertools.product(_FILLINGS, repeat=len(slots)):
        edges = {pair: sign for pair, sign in zip(slots, choice) if sign is not None}
        yield SignedBipartiteGraph(p, q, edges)


def exhaustive_sequence_census(n: int) -> frozenset:
    """Every non-increasing signed degree sequence of a signed graph on n
    labelled vertices, from all 3**(n(n-1)/2) of them."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for choice in itertools.product((0, 1, -1), repeat=len(slots)):
        deg = [0] * n
        for (i, j), value in zip(slots, choice):
            deg[i] += value
            deg[j] += value
        seen.add(tuple(sorted(deg, reverse=True)))
    return frozenset(seen)


@lru_cache(maxsize=None)
def exhaustive_bipartite_census(p: int, q: int) -> tuple[frozenset, list]:
    """Every (du, dv) pair of signed degree sequences of a p x q signed
    bipartite graph, both sides sorted non-increasing; and every sorted
    signed degree set of a connected one, in sorted order."""
    pairs, connected = set(), set()
    for g in enumerate_signed_bipartite(p, q):
        pairs.add(tuple(tuple(sorted(side, reverse=True)) for side in degree_vectors(g)))
        if p and q and is_connected(g):
            connected.add(tuple(sorted(signed_degree_set(g))))
    return frozenset(pairs), sorted(connected)


@lru_cache(maxsize=None)
def unsigned_bipartite_census(p: int, q: int) -> frozenset:
    """Every (du, dv) degree pair of an unsigned bipartite graph on parts of
    size p and q, both sides sorted non-increasing."""
    slots = [(u, v) for u in range(p) for v in range(q)]
    seen = set()
    for choice in itertools.product((0, 1), repeat=len(slots)):
        du = [0] * p
        dv = [0] * q
        for (u, v), bit in zip(slots, choice):
            du[u] += bit
            dv[v] += bit
        seen.add((tuple(sorted(du, reverse=True)), tuple(sorted(dv, reverse=True))))
    return frozenset(seen)


def desc(seq) -> tuple:
    return tuple(sorted(seq, reverse=True))


def _lead_side_standard(a, b) -> bool:
    # the standard-pair conditions, written entry by entry
    p, q = len(a), len(b)
    if not a or all(x == 0 for x in a):
        return False
    if a[0] <= 0 or a[0] < -a[-1]:
        return False
    if sum(a) != sum(b):
        return False
    if any(abs(x) > q for x in a):
        return False
    return not any(abs(y) > p or abs(y) > a[0] for y in b)


def standard_orientation(a, b):
    """The first of the four orientations of a sorted pair that passes the
    standard-pair conditions, leading side first: as given, jointly negated,
    swapped, both (negating flips every edge sign of a witness, swapping
    transposes the parts; neither changes realizability); or None."""
    neg_a, neg_b = desc(-x for x in a), desc(-y for y in b)
    for x, y in ((a, b), (neg_a, neg_b), (b, a), (neg_b, neg_a)):
        if _lead_side_standard(x, y):
            return x, y
    return None


def _pair_shifts(lead, other):
    d1 = lead[0]
    for s in range((len(other) - d1) // 2 + 1):
        yield reduce_pair(lead, other, d1 + s, s)


def pair_reference(alpha, beta) -> bool:
    """The paper's pair reduction, composed from the public reduce_pair: a
    pair is realizable iff it is all zero, or its standard orientation has
    some shift whose head-removal step leaves a realizable pair.  A
    depth-first search over every admissible shift, exponential in the
    worst case."""
    seen = set()
    stack = [iter([(desc(alpha), desc(beta))])]
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            continue
        a, b = pair
        if all(x == 0 for x in a) and all(y == 0 for y in b):
            return True
        oriented = standard_orientation(a, b)
        if oriented is not None and oriented not in seen:
            seen.add(oriented)
            stack.append(_pair_shifts(*oriented))
    return False


ACCEPTANCE_SEED = 20260814


def acceptance_targets() -> list[frozenset]:
    """Every nonempty subset of {-6..6} with at most 3 elements, plus 200
    random 4-element subsets, in a fixed order."""
    universe = list(range(-6, 7))
    targets = []
    for k in (1, 2, 3):
        targets.extend(frozenset(c) for c in itertools.combinations(universe, k))
    assert len(targets) == 377
    rng = random.Random(ACCEPTANCE_SEED)
    extra = set()
    while len(extra) < 200:
        extra.add(frozenset(rng.sample(universe, 4)))
    targets.extend(sorted(extra, key=sorted))
    return targets


_FLIP = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE}


def flipped(g: SignedBipartiteGraph) -> SignedBipartiteGraph:
    """The sign mirror: every edge sign inverted, labels kept."""
    edges = {pair: _FLIP[sign] for pair, sign in g.edges.items()}
    return SignedBipartiteGraph(g.p, g.q, edges, g.block_labels)


_TAGS = ("X_1", "X_2'", "Y_3", "x_1", "y_2", "blk")


@st.composite
def bipartite_graphs(draw, max_side: int = 5, with_labels: bool = False):
    p = draw(st.integers(1, max_side))
    q = draw(st.integers(1, max_side))
    edges = draw(
        st.dictionaries(
            st.tuples(st.integers(0, p - 1), st.integers(0, q - 1)),
            st.sampled_from((Sign.POSITIVE, Sign.NEGATIVE)),
            max_size=p * q,
        )
    )
    labels = {}
    if with_labels:
        labels = draw(
            st.dictionaries(
                st.one_of(
                    st.tuples(st.just("u"), st.integers(0, p - 1)),
                    st.tuples(st.just("v"), st.integers(0, q - 1)),
                ),
                st.sampled_from(_TAGS),
                max_size=4,
            )
        )
    return SignedBipartiteGraph(p, q, edges, labels)
