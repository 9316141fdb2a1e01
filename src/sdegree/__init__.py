"""Signed degree tools for signed and signed bipartite graphs.

What lives here:

- realize_set and friends: build a connected signed bipartite graph whose
  set of distinct signed degrees is any prescribed nonempty set of integers;
- is_s_graphical_branching / is_s_graphical_deterministic: decide whether an
  integer sequence is the signed degree sequence of some signed graph;
- is_bipartite_s_graphical and gale_ryser: the bipartite analogues, signed
  and unsigned;
- exhaustive oracles that enumerate every small graph, used to cross-check
  all of the above;
- a plain-text edge-list format, DOT export, and a command line front end
  (the ``sdegree`` script, or ``python -m sdegree``).
"""

from .bipartite import (
    gale_ryser,
    is_bipartite_s_graphical,
    is_standard_pair,
    reduce_pair,
)
from .cli import cli_main
from .core import (
    Sign,
    SignedBipartiteGraph,
    degree_vectors,
    is_connected,
    join_all_positive,
    signed_degree_sequences,
    signed_degree_set,
)
from .oracle import (
    MAX_ORACLE_SLOTS,
    MAX_ORACLE_VERTICES,
    OracleLimitError,
    connected_degree_sets,
    enumerate_signed_bipartite,
    oracle_bipartite,
    oracle_s_graphical,
)
from .realize import (
    RealizationReport,
    realize_negative_set,
    realize_positive_set,
    realize_set,
    realize_zero_set,
)
from .sgraphical import (
    AllZero,
    NormalForm,
    NotStandard,
    Standard,
    choose_m,
    is_s_graphical_branching,
    is_s_graphical_deterministic,
    normalize_standard,
    reduce_hakimi,
)
from .textio import ParseError, emit_dot, emit_graph, parse_graph

__version__ = "0.1.0"

__all__ = [
    "AllZero",
    "MAX_ORACLE_SLOTS",
    "MAX_ORACLE_VERTICES",
    "NormalForm",
    "NotStandard",
    "OracleLimitError",
    "ParseError",
    "RealizationReport",
    "Sign",
    "SignedBipartiteGraph",
    "Standard",
    "choose_m",
    "cli_main",
    "connected_degree_sets",
    "degree_vectors",
    "emit_dot",
    "emit_graph",
    "enumerate_signed_bipartite",
    "gale_ryser",
    "is_bipartite_s_graphical",
    "is_connected",
    "is_s_graphical_branching",
    "is_s_graphical_deterministic",
    "is_standard_pair",
    "join_all_positive",
    "normalize_standard",
    "oracle_bipartite",
    "oracle_s_graphical",
    "parse_graph",
    "realize_negative_set",
    "realize_positive_set",
    "realize_set",
    "realize_zero_set",
    "reduce_hakimi",
    "reduce_pair",
    "signed_degree_sequences",
    "signed_degree_set",
]
