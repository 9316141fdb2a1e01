"""
Cross-checking the fast deciders against the exhaustive oracles
================================================================

At small sizes every labelled signed graph can be accounted for: each vertex
pair holds one of {absent, +, -}.  The oracles know the degree sequence of
every one of them, from a census that grows graphs one vertex at a time and
merges vertices of equal degree, so it never lists the 3**slots graphs
themselves.  They are unarguable, which makes them the referees for the
fast deciders: the paper's reductions for sequences and the closed-form
Gale-Ryser test for bipartite pairs.
"""

import itertools

from sdegree import (
    MAX_ORACLE_SLOTS,
    MAX_ORACLE_VERTICES,
    connected_degree_sets,
    is_bipartite_s_graphical,
    is_s_graphical_branching,
    oracle_bipartite,
    oracle_s_graphical,
)

# The size guards keep requests to about a second each.
print(f"oracle guards: n <= {MAX_ORACLE_VERTICES} vertices, p*q <= {MAX_ORACLE_SLOTS} slots")
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
