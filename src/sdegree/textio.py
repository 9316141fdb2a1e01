"""Plain-text serialization and DOT export for signed bipartite graphs.

Edge-list format, newline-terminated:

    sbg <p> <q>
    u<i> v<j> <+|->     one line per edge, 1-based, sorted by (i, j)
    # u<i> <tag>        optional trailing block-label comments

Emitting, parsing, and emitting again reproduces the text byte for byte.
"""

from __future__ import annotations

import re

from .core import Sign, SignedBipartiteGraph, degree_vectors

__all__ = ["ParseError", "emit_graph", "parse_graph", "emit_dot"]


class ParseError(ValueError):
    """Malformed graph document; carries the 1-based offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_HEADER_RE = re.compile(r"sbg\s+(\d+)\s+(\d+)")
_EDGE_RE = re.compile(r"u(\d+)\s+v(\d+)\s+([+-])")
_LABEL_RE = re.compile(r"#\s+([uv])(\d+)\s+(\S+)")
_SIGN_TEXT = {Sign.POSITIVE: "+", Sign.NEGATIVE: "-"}
_DOT_STYLE = {Sign.POSITIVE: "solid", Sign.NEGATIVE: "dashed"}


def _sorted_edges(g: SignedBipartiteGraph):
    """(key, sign) pairs in key order; only the keys are sorted."""
    keys = sorted(g.edges)
    return zip(keys, map(g.edges.__getitem__, keys))


def emit_graph(g: SignedBipartiteGraph) -> str:
    """Serialize to the edge-list format; deterministic for equal graphs."""
    lines = [f"sbg {g.p} {g.q}"]
    lines += [f"u{u + 1} v{v + 1} {_SIGN_TEXT[sign]}" for (u, v), sign in _sorted_edges(g)]
    for (part, idx), tag in sorted(g.block_labels.items(), key=lambda kv: (kv[0][0] != "u", kv[0][1])):
        lines.append(f"# {part}{idx + 1} {tag}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SignedBipartiteGraph:
    """Parse the edge-list format back into a graph.

    Raises ParseError (with the offending line number) on a bad header, an
    out-of-range index, a duplicated edge, or an unrecognised edge line.
    Comment lines carrying block labels are restored; other comments and
    blank lines are ignored.
    """
    p = q = None
    edges: dict[tuple[int, int], Sign] = {}
    label_lines: list[tuple[int, str, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _LABEL_RE.fullmatch(line)
            if m:
                label_lines.append((lineno, m[1], int(m[2]), m[3]))
            continue
        if p is None:
            m = _HEADER_RE.fullmatch(line)
            if m is None:
                raise ParseError(lineno, f"expected header 'sbg <p> <q>', got {raw!r}")
            p, q = int(m[1]), int(m[2])
            continue
        m = _EDGE_RE.fullmatch(line)
        if m is None:
            raise ParseError(lineno, f"expected edge 'u<i> v<j> <+|->', got {raw!r}")
        u, v = int(m[1]) - 1, int(m[2]) - 1
        if not 0 <= u < p:
            raise ParseError(lineno, f"u{u + 1} out of range 1..{p}")
        if not 0 <= v < q:
            raise ParseError(lineno, f"v{v + 1} out of range 1..{q}")
        if (u, v) in edges:
            raise ParseError(lineno, f"duplicate edge u{u + 1} v{v + 1}")
        edges[(u, v)] = Sign.POSITIVE if m[3] == "+" else Sign.NEGATIVE
    if p is None:
        raise ParseError(1, "missing header 'sbg <p> <q>'")
    labels: dict[tuple[str, int], str] = {}
    for lineno, part, idx, tag in label_lines:
        size = p if part == "u" else q
        if not 1 <= idx <= size:
            raise ParseError(lineno, f"{part}{idx} out of range 1..{size}")
        labels[(part, idx - 1)] = tag
    return SignedBipartiteGraph(p, q, edges, labels)


def emit_dot(g: SignedBipartiteGraph) -> str:
    """DOT rendering: the two parts on distinct ranks, positive edges solid,
    negative edges dashed, node labels carrying the signed degree."""
    du, dv = degree_vectors(g)
    lines = ["graph sbg {", "  rankdir=LR;"]
    lines.append("  subgraph cluster_U {")
    lines.append('    label="U";')
    lines.append("    rank=same;")
    for i in range(g.p):
        lines.append(f'    u{i + 1} [label="u{i + 1} [sdeg={du[i]}]"];')
    lines.append("  }")
    lines.append("  subgraph cluster_V {")
    lines.append('    label="V";')
    lines.append("    rank=same;")
    for j in range(g.q):
        lines.append(f'    v{j + 1} [label="v{j + 1} [sdeg={dv[j]}]"];')
    lines.append("  }")
    lines += [f"  u{u + 1} -- v{v + 1} [style={_DOT_STYLE[sign]}];" for (u, v), sign in _sorted_edges(g)]
    lines.append("}")
    return "\n".join(lines) + "\n"
