"""
Cross-checking the fast deciders against exhaustive enumeration
===============================================================

At small sizes every labelled signed graph can simply be listed: each vertex
pair holds one of {absent, +, -}.  That brute-force oracle is slow but
unarguable, which makes it the referee for the reduction-based deciders.
"""

import itertools

from sdegree import (
    connected_degree_sets,
    enumerate_signed_bipartite,
    is_bipartite_s_graphical,
    is_s_graphical_branching,
    oracle_bipartite,
    oracle_s_graphical,
)

# Space sizes grow as 3**slots; the guards keep requests desk-sized.
print(f"signed bipartite graphs on 2+2: {sum(1 for _ in enumerate_signed_bipartite(2, 2))}")
print()

# Referee the general decider over every sequence on 4 vertices with
# entries bounded by 3 in magnitude.
checked = disagreements = 0
for seq in itertools.product(range(-3, 4), repeat=4):
    checked += 1
    if is_s_graphical_branching(seq) != oracle_s_graphical(seq):
        disagreements += 1
print(f"general decider vs oracle on {checked} sequences: {disagreements} disagreements")

# Same for the bipartite decider on 2x3 parts.
checked = disagreements = 0
for alpha in itertools.product(range(-3, 4), repeat=2):
    for beta in itertools.product(range(-2, 3), repeat=3):
        checked += 1
        if is_bipartite_s_graphical(alpha, beta) != oracle_bipartite(alpha, beta):
            disagreements += 1
print(f"bipartite decider vs oracle on {checked} pairs: {disagreements} disagreements")
print()

# The oracle can also answer set-level questions directly, e.g. which degree
# sets connected graphs on fixed part sizes can show.
print("degree sets of connected 2x2 signed bipartite graphs:")
for degree_set in connected_degree_sets(2, 2):
    print(f"  {list(degree_set)}")
