"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the verdict lines
as they appear; without ``-s`` pytest shows them only for failing tests.
"""

import itertools
import random

import pytest

from sdegree import (
    Sign,
    degree_vectors,
    gale_ryser,
    is_bipartite_s_graphical,
    is_connected,
    is_s_graphical_branching,
    is_s_graphical_deterministic,
    oracle_bipartite,
    oracle_s_graphical,
    parse_graph,
    realize_set,
    signed_degree_set,
)
from sdegree.cli import cli_main
from sdegree.core import signed_degree_sequences
from sdegree.textio import emit_graph

from .conftest import ACCEPTANCE_SEED, acceptance_targets, unsigned_bipartite_census


def _verdict(num: int, name: str, failures: list) -> None:
    print(f"criterion {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num}: {len(failures)} failures, e.g. {failures[:3]}"


@pytest.fixture(scope="module")
def realizations():
    """Every acceptance target, each paired with its constructed graph."""
    return [(target, realize_set(target)) for target in acceptance_targets()]


def test_criterion_1_universal_realization(realizations):
    failures = []
    for target, report in realizations:
        g = report.graph
        if signed_degree_set(g) != target or not is_connected(g):
            failures.append(sorted(target))
    _verdict(1, "universal realization", failures)


def test_criterion_2_positive_size_law():
    failures = []
    for k in range(1, 7):
        for combo in itertools.combinations(range(1, 7), k):
            g = realize_set(set(combo)).graph
            if g.p != g.q or g.p != sum(combo):
                failures.append((combo, g.p, g.q))
            if any(sign is not Sign.POSITIVE for sign in g.edges.values()):
                failures.append((combo, "negative edge"))
    _verdict(2, "positive-set size law", failures)


def _expected_piece_degrees(target, case):
    """Degree vectors of the sub-realizations, concatenated in the order the
    composite cases lay them out, followed by the count of fresh vertices."""
    positives = {x for x in target if x > 0}
    negatives = {x for x in target if x < 0}
    if case == "nonneg_with_zero":
        pieces, fresh = [realize_set(positives).graph], 2
    elif case == "nonpos_with_zero":
        pieces, fresh = [realize_set(negatives).graph], 2
    elif case == "mixed_nonzero":
        g1 = realize_set(positives).graph
        g2 = realize_set(negatives).graph
        pieces, fresh = [g1, g1, g2, g2], 0
    else:  # mixed_with_zero
        g1 = realize_set(positives).graph
        g2 = realize_set(negatives).graph
        pieces, fresh = [g1, g2], 1
    du = []
    dv = []
    for piece in pieces:
        pu, pv = degree_vectors(piece)
        du.extend(pu)
        dv.extend(pv)
    return du, dv, fresh


COMPOSITE_CASES = ("nonneg_with_zero", "nonpos_with_zero", "mixed_nonzero", "mixed_with_zero")


def test_criterion_3_gluing_preserves_degrees(realizations):
    failures = []
    seen_cases = set()
    for target, report in realizations:
        if report.case_used not in COMPOSITE_CASES:
            continue
        seen_cases.add(report.case_used)
        du, dv = degree_vectors(report.graph)
        want_u, want_v, fresh = _expected_piece_degrees(target, report.case_used)
        if du[: len(want_u)] != want_u or dv[: len(want_v)] != want_v:
            failures.append((sorted(target), "piece degrees moved"))
        if any(x != 0 for x in du[len(want_u) :] + dv[len(want_v) :]):
            failures.append((sorted(target), "fresh vertex off zero"))
        if len(du) - len(want_u) != fresh or len(dv) - len(want_v) != fresh:
            failures.append((sorted(target), "unexpected vertex count"))
    if seen_cases != set(COMPOSITE_CASES):
        failures.append(("missing composite case", sorted(set(COMPOSITE_CASES) - seen_cases)))
    _verdict(3, "gluing preserves degrees", failures)


def test_criterion_4_branching_matches_oracle():
    failures = []
    for n in range(1, 6):
        for seq in itertools.product(range(-(n - 1), n), repeat=n):
            if is_s_graphical_branching(seq) != oracle_s_graphical(seq):
                failures.append(seq)
    _verdict(4, "branching decider vs oracle", failures)


def test_criterion_5_deterministic_matches_branching():
    failures = []
    for n in range(1, 6):
        for seq in itertools.product(range(-(n - 1), n), repeat=n):
            if is_s_graphical_deterministic(seq) != is_s_graphical_branching(seq):
                failures.append(seq)
    _verdict(5, "deterministic shift vs branching", failures)


def test_criterion_6_bipartite_decider_matches_oracle():
    # every pair of multisets, entries bounded by the other part's size, of
    # every shape with p*q <= 12: 156,972 pairs
    failures = []
    for p in range(1, 13):
        for q in range(1, 12 // p + 1):
            for alpha in itertools.combinations_with_replacement(range(-q, q + 1), p):
                for beta in itertools.combinations_with_replacement(range(-p, p + 1), q):
                    if is_bipartite_s_graphical(alpha, beta) != oracle_bipartite(
                        alpha, beta
                    ):
                        failures.append((alpha, beta))
    _verdict(6, "bipartite decider vs oracle", failures)


def test_criterion_7_gale_ryser_matches_brute_force():
    failures = []
    for p in range(1, 5):
        for q in range(1, 5):
            census = unsigned_bipartite_census(p, q)
            for d in itertools.combinations_with_replacement(range(4, -1, -1), p):
                for e in itertools.product(range(5), repeat=q):
                    expected = (d, tuple(sorted(e, reverse=True))) in census
                    if gale_ryser(d, e) != expected:
                        failures.append((d, e))
    _verdict(7, "gale-ryser vs brute force", failures)


def test_criterion_8_realizations_pass_the_pair_decider(realizations):
    failures = []
    for target, report in realizations:
        alpha, beta = signed_degree_sequences(report.graph)
        if not is_bipartite_s_graphical(alpha, beta):
            failures.append(sorted(target))
    _verdict(8, "realized sequences are bipartite s-graphical", failures)


def test_criterion_9_cli_end_to_end(realizations, tmp_path, capsys):
    failures = []
    rng = random.Random(ACCEPTANCE_SEED + 1)
    for target, _ in rng.sample(realizations, 50):
        want = ",".join(str(x) for x in sorted(target))
        out_file = tmp_path / "roundtrip.sbg"
        if cli_main(["realize", "--set", want, "--out", str(out_file)]) != 0:
            failures.append((sorted(target), "realize exit code"))
            continue
        if cli_main(["degree-set", "--in", str(out_file)]) != 0:
            failures.append((sorted(target), "degree-set exit code"))
            continue
        lines = capsys.readouterr().out.splitlines()
        if f"degree set: {want}" not in lines:
            failures.append((sorted(target), lines[-2:]))
    for target, report in realizations:
        doc = emit_graph(report.graph)
        again = parse_graph(doc)
        if again != report.graph or again.block_labels != report.graph.block_labels:
            failures.append((sorted(target), "parse lost information"))
        elif emit_graph(again) != doc:
            failures.append((sorted(target), "document not reproduced"))
    _verdict(9, "cli end to end", failures)
