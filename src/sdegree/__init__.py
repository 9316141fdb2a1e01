"""Signed degree tools for signed and signed bipartite graphs.

What lives here:

- realize_set: build a connected signed bipartite graph whose set of
  distinct signed degrees is any prescribed nonempty set of integers, and
  write_realization: write that graph's documents straight from the
  construction, without building it;
- is_s_graphical_branching / is_s_graphical_deterministic: decide whether an
  integer sequence is the signed degree sequence of some signed graph;
- is_bipartite_s_graphical and gale_ryser: the bipartite analogues, signed
  and unsigned, both Gale-Ryser dominance tests on one count table, with
  reduce_pair as the paper's step for pairs;
- oracles that know every degree sequence of every small graph, from a
  census grown one vertex at a time, used to cross-check all of the above;
- a plain-text edge-list format, DOT export, and a command line front end
  (the ``sdegree`` script, or ``python -m sdegree``).

Importing the package loads none of its modules.  Each public name loads its
module on first use (PEP 562), so a process pays only for what it touches.
"""

import sys

__version__ = "0.1.0"

# Each public name, with the module that defines it: the one name table, which
# sdegree.cli resolves its library names through as well.
_MODULE_OF = {
    "gale_ryser": "bipartite",
    "is_bipartite_s_graphical": "bipartite",
    "reduce_pair": "bipartite",
    "cli_main": "cli",
    "Sign": "core",
    "SignedBipartiteGraph": "core",
    "degree_vectors": "core",
    "is_connected": "core",
    "signed_degree_set": "core",
    "MAX_ORACLE_SLOTS": "oracle",
    "MAX_ORACLE_VERTICES": "oracle",
    "OracleLimitError": "oracle",
    "connected_degree_sets": "oracle",
    "oracle_bipartite": "oracle",
    "oracle_s_graphical": "oracle",
    "RealizationReport": "realize",
    "realize_set": "realize",
    "write_realization": "realize",
    "AllZero": "sgraphical",
    "NotStandard": "sgraphical",
    "Standard": "sgraphical",
    "choose_m": "sgraphical",
    "is_s_graphical_branching": "sgraphical",
    "is_s_graphical_deterministic": "sgraphical",
    "normalize_standard": "sgraphical",
    "reduce_hakimi": "sgraphical",
    "ParseError": "textio",
    "emit_dot": "textio",
    "emit_graph": "textio",
    "parse_graph": "textio",
    "read_degree_set": "textio",
}

__all__ = sorted(_MODULE_OF)


def _lazy_getattr(namespace: dict, package: str, module_of: dict):
    """A module ``__getattr__`` that imports ``package.<module_of[name]>`` on
    the first lookup of ``name`` and binds the value in ``namespace``, so
    later lookups, and replacements set on the module, bypass it."""

    def __getattr__(name: str):
        if name not in module_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = __import__(f"{package}.{module_of[name]}", fromlist=[name])
        value = namespace[name] = getattr(module, name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), __name__, _MODULE_OF)


class _SizeLimit(ValueError):
    """A request past a size limit; the CLI exits with 2 on it."""


def _sizable(value: int, what: str) -> None:
    # Python cannot make a list or range longer than sys.maxsize.
    if abs(value) > sys.maxsize:
        raise _SizeLimit(f"{what} {value} exceeds the size limit {sys.maxsize}")


def _integral(x) -> bool:
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def _integers(seq) -> list[int]:
    """The entries of seq as ints; integral floats such as 1.0 count, and
    any other entry (None, 1.5, "1", nan, inf) raises ValueError."""
    vals = list(seq)
    try:
        whole = list(map(int, vals))
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole != vals:
        bad = next(x for x in vals if not _integral(x))
        raise ValueError(f"entries must be integers, got {bad!r}")
    return whole


def __dir__() -> list[str]:
    return sorted(set(globals()).union(__all__))
