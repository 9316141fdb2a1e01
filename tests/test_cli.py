import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sdegree
from sdegree import connected_degree_sets, parse_graph, write_realization
from sdegree import cli, textio
from sdegree.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_reports_case_and_sizes(capsys):
    code, out, err = run(capsys, "realize", "--set", "1,2")
    assert code == 0
    assert out == "case: positive\n|U|=3 |V|=3\n"
    assert err == ""


def test_realize_writes_edge_list_and_dot(tmp_path, capsys):
    out_file = tmp_path / "g.sbg"
    dot_file = tmp_path / "g.dot"
    code, _, _ = run(
        capsys, "realize", "--set", "0", "--out", str(out_file), "--dot", str(dot_file)
    )
    assert code == 0
    assert out_file.read_text() == "sbg 2 2\nu1 v1 +\nu1 v2 -\nu2 v1 -\nu2 v2 +\n"
    assert dot_file.read_text().startswith("graph sbg {")


@pytest.mark.parametrize(
    "method, expected",
    [("deterministic", "true"), ("oracle", "true")],
)
def test_check_seq_all_methods_agree(capsys, method, expected):
    code, out, _ = run(capsys, "check-seq", "--seq", "1,0,-1,-2", "--method", method)
    assert code == 0
    assert out == f"s-graphical: {expected}\n"


def test_check_seq_defaults_to_deterministic(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_s_graphical_branching", None)  # never called
    code, out, _ = run(capsys, "check-seq", "--seq", "2,2,-1,-1")
    assert code == 0
    assert out == "s-graphical: false\n"


# A false sequence that passes the standard conditions and on which the
# branching search visits tens of thousands of states (seconds); the default
# decider follows one shift per step.
SKEWED_FALSE_42 = (
    "41,39,36,35,32,31,31,30,28,27,27,27,27,26,26,26,26,25,25,25,25,"
    "24,24,23,23,22,22,22,21,-2,-3,-6,-9,-10,-11,-13,-15,-18,-25,-25,-26,-33"
)


def test_check_seq_default_decides_a_skewed_false_sequence_quickly(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "check-seq", "--seq", SKEWED_FALSE_42)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (0, "s-graphical: false\n")


def test_check_seq_branching_method_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check-seq", "--seq", "1,1", "--method", "branching")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and "'branching'" in err


def test_check_seq_tolerates_spaces(capsys):
    code, out, _ = run(capsys, "check-seq", "--seq", " 1 , 1 ")
    assert code == 0
    assert out == "s-graphical: true\n"


@pytest.mark.parametrize("method", list(cli._PAIR_DECIDERS))
def test_check_pair(capsys, method):
    code, out, _ = run(
        capsys, "check-pair", "--alpha", "2,-2", "--beta", "1,-1", "--method", method
    )
    assert code == 0
    assert out == "s-graphical: false\n"


def test_check_pair_reduction_method_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "check-pair", "--alpha", "1", "--beta", "1", "--method", "reduction"
    )
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and "'reduction'" in err


ONES_800 = ",".join(["1"] * 800)


@pytest.mark.parametrize(
    "argv",
    [
        ("check-seq", "--seq", ONES_800, "--method", "deterministic"),
        ("check-pair", "--alpha", ONES_800, "--beta", ONES_800),
    ],
    ids=["deterministic", "pair"],
)
def test_800_ones_are_decided(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "s-graphical: true\n"


def test_gale_ryser(capsys):
    code, out, _ = run(capsys, "gale-ryser", "--d", "2,1", "--e", "2,1")
    assert code == 0
    assert out == "graphical: true\n"
    code, out, _ = run(capsys, "gale-ryser", "--d", "4", "--e", "4")
    assert code == 0
    assert out == "graphical: false\n"


def test_degree_set_from_file(tmp_path, capsys):
    doc = tmp_path / "g.sbg"
    doc.write_text("sbg 2 2\nu1 v1 +\nu1 v2 -\nu2 v1 -\nu2 v2 +\n")
    code, out, _ = run(capsys, "degree-set", "--in", str(doc))
    assert code == 0
    assert out == "degree set: 0\nconnected: true\n"


def test_degree_set_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("sbg 1 2\nu1 v1 +\nu1 v2 +\n"))
    code, out, _ = run(capsys, "degree-set", "--in", "-")
    assert code == 0
    assert out == "degree set: 1,2\nconnected: true\n"


def test_degree_set_echoes_ascending(tmp_path, capsys):
    doc = tmp_path / "g.sbg"
    doc.write_text("sbg 1 2\nu1 v1 -\nu1 v2 -\n")
    code, out, _ = run(capsys, "degree-set", "--in", str(doc))
    assert code == 0
    assert out.splitlines()[0] == "degree set: -2,-1"


HUGE_PART = str(sys.maxsize * 10**3)

# degree-set on documents the streaming reader must hand to the line parser,
# or answer as the graph would, with the exit code, stdout and stderr that
# parsing the whole document into a graph gives.  Lines are read a few at a
# time, so a repeated edge can sit in another chunk than its first copy.
DEGREE_SET_REFUSALS = {
    "repeated edge across chunks": (
        "sbg 1 2\nu1 v1 +\nu1 v2 -\nu1 v1 -\n",
        (1, "", "error: line 4: duplicate edge u1 v1\n"),
    ),
    "u0": ("sbg 1 1\nu0 v1 +\n", (1, "", "error: line 2: u0 out of range 1..1\n")),
    "v beyond q": ("sbg 1 1\nu1 v2 +\n", (1, "", "error: line 2: v2 out of range 1..1\n")),
    "label out of range": (
        "sbg 1 1\nu1 v1 +\n# v2 Y_1\n",
        (1, "", "error: line 3: v2 out of range 1..1\n"),
    ),
    "unsorted rows": (
        "sbg 2 3\nu2 v3 -\nu2 v1 +\nu1 v2 +\nu1 v1 +\n",
        (0, "degree set: -1,0,1,2\nconnected: true\n", ""),
    ),
    "a U vertex in two runs": (
        "sbg 2 2\nu1 v1 +\nu2 v1 +\nu1 v2 +\n",
        (0, "degree set: 1,2\nconnected: true\n", ""),
    ),
    "v01": ("sbg 1 1\nu1 v1 +\nu1 v01 -\n", (1, "", "error: line 3: duplicate edge u1 v1\n")),
    "CRLF": ("sbg 2 1\r\nu1 v1 +\r\nu2 v1 -\r\n", (0, "degree set: -1,0,1\nconnected: true\n", "")),
    "no final newline": ("sbg 1 2\nu1 v1 +\nu1 v2 +", (0, "degree set: 1,2\nconnected: true\n", "")),
    "BOM": (
        "\ufeffsbg 1 1\nu1 v1 +\n",
        (1, "", "error: line 1: expected header 'sbg <p> <q>', got '\\ufeffsbg 1 1'\n"),
    ),
    "sbg 0 0": ("sbg 0 0\n", (1, "", "error: degree set of an empty graph is undefined\n")),
    "sbg 01 1": ("sbg 01 1\nu1 v1 +\n", (0, "degree set: 1\nconnected: true\n", "")),
    "an isolated vertex": ("sbg 3 2\nu1 v1 +\nu1 v2 -\n", (0, "degree set: -1,0,1\nconnected: false\n", "")),
    "a bad line under a huge size": (
        f"sbg {HUGE_PART} 1\nu1 v5 +\n",
        (1, "", "error: line 2: v5 out of range 1..1\n"),
    ),
}


@pytest.mark.parametrize("text, expected", DEGREE_SET_REFUSALS.values(), ids=list(DEGREE_SET_REFUSALS))
def test_degree_set_answers_as_the_graph_does(text, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(textio, "_CHUNK", 8)
    doc = tmp_path / "g.sbg"
    doc.write_bytes(text.encode())
    assert run(capsys, "degree-set", "--in", str(doc)) == expected


def test_degree_set_of_a_large_document_stays_small_and_quick(tmp_path, capsys):
    doc = tmp_path / "g.sbg"
    write_realization([1, 1000], out=str(doc))  # 1,000,001 edge lines, 11.8 MB
    start = time.perf_counter()
    code, out, _ = run(capsys, "degree-set", "--in", str(doc))
    elapsed = time.perf_counter() - start
    assert (code, out) == (0, "degree set: 1,1000\nconnected: true\n")
    assert elapsed < 1.5
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "degree-set", "--in", str(doc))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "degree set: 1,1000\nconnected: true\n")
    assert peak < 4 * 2**20


def test_enumerate_lists_connected_degree_sets(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "1", "--q", "2", "--sets")
    assert code == 0
    assert out == "-2,-1\n-1,0,1\n1,2\n"
    expected = connected_degree_sets(1, 2)
    assert [tuple(map(int, line.split(","))) for line in out.splitlines()] == expected


def test_realize_reports_case_and_sizes_before_a_file_fails(tmp_path, capsys):
    code, out, err = run(capsys, "realize", "--set", "1,2", "--out", str(tmp_path))  # a directory
    assert code == 1
    assert out == "case: positive\n|U|=3 |V|=3\n"
    assert err.startswith("error:")


def test_realize_builds_no_graph(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(sdegree.SignedBipartiteGraph, "__post_init__", refuse)
    out_file, dot_file = tmp_path / "g.sbg", tmp_path / "g.dot"
    code, out, _ = run(capsys, "realize", "--set", "-2,0,3", "--out", str(out_file), "--dot", str(dot_file))
    assert (code, out) == (0, "case: mixed_with_zero\n|U|=6 |V|=6\n")
    assert out_file.read_text().startswith("sbg 6 6\nu1 v1 +\n")
    assert dot_file.read_text().endswith("}\n")


@pytest.mark.parametrize(
    "elems, out",
    [
        ("1,1000000", "case: positive\n|U|=1000001 |V|=1000001\n"),
        ("-10**15,0,10**15", "case: mixed_with_zero\n|U|=2000000000000001 |V|=2000000000000001\n"),
    ],
)
def test_realize_without_files_takes_no_time_per_edge(capsys, elems, out):
    # 10**12 and 2 * 10**30 edges; only the case and sizes are printed
    elems = elems.replace("10**15", str(10**15))
    started = time.perf_counter()
    assert run(capsys, "realize", "--set", elems)[:2] == (0, out)
    assert time.perf_counter() - started < 1.0


def test_realize_output_parses_back_to_the_target(tmp_path, capsys):
    out_file = tmp_path / "g.sbg"
    code, _, _ = run(capsys, "realize", "--set", "3,-1,0", "--out", str(out_file))
    assert code == 0
    g = parse_graph(out_file.read_text())
    code, out, _ = run(capsys, "degree-set", "--in", str(out_file))
    assert code == 0
    assert out.splitlines()[0] == "degree set: -1,0,3"
    assert g.p > 0 and g.q > 0


def test_identical_argv_identical_stdout(capsys):
    first = run(capsys, "enumerate", "--p", "2", "--q", "2", "--sets")
    second = run(capsys, "enumerate", "--p", "2", "--q", "2", "--sets")
    assert first == second


class TestExitCodes:
    def test_bad_integer_list_is_1(self, capsys):
        code, out, err = run(capsys, "check-seq", "--seq", "one,two")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_empty_set_is_1(self, capsys):
        code, _, err = run(capsys, "realize", "--set", "")
        assert code == 1
        assert "error" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, "degree-set", "--in", "/no/such/file.sbg")
        assert code == 1
        assert "error:" in err

    def test_malformed_document_is_1(self, tmp_path, capsys):
        doc = tmp_path / "bad.sbg"
        doc.write_text("sbg 1 1\nu1 v9 +\n")
        code, _, err = run(capsys, "degree-set", "--in", str(doc))
        assert code == 1
        assert "line 2" in err

    def test_usage_error_is_1(self, capsys):
        assert run(capsys, "realize")[0] == 1  # missing --set
        assert run(capsys, "no-such-command")[0] == 1

    def test_help_is_0_and_returned_not_raised(self, capsys):
        for argv in (["--help"], ["realize", "--help"]):
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert out.startswith("usage: sdegree")
            assert err == ""

    def test_help_does_not_depend_on_the_terminal_width(self, capsys, monkeypatch):
        for argv in (["--help"], ["realize", "--help"]):
            outs = []
            for columns in ("40", "200"):
                monkeypatch.setenv("COLUMNS", columns)
                code, out, _ = run(capsys, *argv)
                assert code == 0
                outs.append(out)
            assert outs[0] == outs[1]

    def test_oracle_guard_is_2(self, capsys):
        code, _, err = run(
            capsys, "check-seq", "--seq", "1,1,1,1,1,1,1,1", "--method", "oracle"
        )
        assert code == 2
        assert "guard" in err
        assert run(capsys, "enumerate", "--p", "4", "--q", "6", "--sets")[0] == 2

    # Integers above sys.maxsize cannot size a list or range, so these are
    # refused before anything is allocated; smaller oversized values would
    # allocate.
    HUGE = str(sys.maxsize * 10**3)

    def test_oversized_realize_target_is_2(self, capsys):
        code, out, err = run(capsys, "realize", "--set", self.HUGE)
        assert code == 2
        assert out == ""
        assert err == f"error: set element {self.HUGE} exceeds the size limit {sys.maxsize}\n"

    def test_oversized_declared_part_is_2(self, tmp_path, capsys):
        doc = tmp_path / "huge.sbg"
        doc.write_text(f"sbg {self.HUGE} 1\n")
        code, out, err = run(capsys, "degree-set", "--in", str(doc))
        assert code == 2
        assert out == ""
        assert err == f"error: part size {self.HUGE} exceeds the size limit {sys.maxsize}\n"

    def test_guard_does_not_hit_the_reduction_methods(self, capsys):
        seq = ",".join(["1", "1"] * 8)  # 16 entries, far past the oracle guard
        assert run(capsys, "check-seq", "--seq", seq)[0] == 0
        assert run(capsys, "check-seq", "--seq", seq, "--method", "deterministic")[0] == 0


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["sdegree", "check-seq", "--seq", "1,1"])
    with pytest.raises(SystemExit) as excinfo:
        cli.main()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == "s-graphical: true\n"


def test_import_loads_no_dataclasses():
    # every CLI process pays for what importing the package loads; -S keeps
    # site hooks from loading modules of their own
    src = str(Path(sdegree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys, sdegree; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _child(script: str) -> str:
    # -S keeps site hooks from loading modules of their own
    src = str(Path(sdegree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_by(argv: list[str]) -> list[str]:
    # the command's first output line, then its exit code and the package's modules it loaded
    script = (
        "import sys\n"
        "from sdegree.cli import cli_main\n"
        "sys.stderr = sys.stdout\n"
        f"code = cli_main({argv!r})\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('sdegree')))\n"
    )
    return _child(script).splitlines()


def test_a_command_loads_only_the_modules_it_calls():
    out = _loaded_by(["gale-ryser", "--d", "2,1", "--e", "1,1,1"])
    assert out[0] == "graphical: true"
    assert out[1].split() == ["0", "sdegree", "sdegree.bipartite", "sdegree.cli"]


def test_degree_set_loads_only_textio_and_core(tmp_path):
    doc = tmp_path / "g.sbg"
    doc.write_text("sbg 1 2\nu1 v1 +\nu1 v2 -\n")
    out = _loaded_by(["degree-set", "--in", str(doc)])
    assert out[:2] == ["degree set: -1,0,1", "connected: true"]
    assert out[2].split() == ["0", "sdegree", "sdegree.cli", "sdegree.core", "sdegree.textio"]


def test_a_size_limit_exits_2_without_probing_for_its_module():
    out = _loaded_by(["check-seq", "--method", "oracle", "--seq", "1,1,1,1,1,1,1,1"])
    assert out[0] == "error: length 8 exceeds the oracle guard n <= 7"
    assert out[1].split() == ["2", "sdegree", "sdegree.cli", "sdegree.oracle"]


def test_importing_the_package_loads_none_of_its_modules():
    script = "import sys, sdegree; print(*sorted(m for m in sys.modules if 'sdegree' in m))"
    assert _child(script).split() == ["sdegree"]


def test_importing_the_package_loads_no_other_module():
    # every workload's setup time is a fresh import of the package, so it
    # adds no module at all, the standard library's included
    script = "import sys; before = set(sys.modules); import sdegree; print(*sorted(set(sys.modules) - before))"
    assert _child(script).split() == ["sdegree"]


# Every library entry point that takes integer entries, as a call on one
# list, with int inputs whose verdicts differ
INTEGER_ENTRY_POINTS = [
    ("realize_set", sdegree.realize_set, [[2, 0, -1], [3]]),
    ("write_realization", sdegree.write_realization, [[2, 0, -1], [-4, -1]]),
    ("is_s_graphical_deterministic", sdegree.is_s_graphical_deterministic, [[2, 2, 2], [2, 2]]),
    ("is_s_graphical_branching", sdegree.is_s_graphical_branching, [[2, 2, 2], [3, 1]]),
    ("is_bipartite_s_graphical", lambda xs: sdegree.is_bipartite_s_graphical(xs, [1, 1]), [[1, 1], [2, 1]]),
    ("gale_ryser", lambda xs: sdegree.gale_ryser(xs, [1, 1]), [[1, 1], [2, 1]]),
    ("choose_m", sdegree.choose_m, [[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]]),
    # repr, so that float entries in the result show
    ("reduce_pair", lambda xs: repr(sdegree.reduce_pair([1], xs, 1, 0)), [[1, 1], [2, 1]]),
    ("oracle_s_graphical", sdegree.oracle_s_graphical, [[1, 1], [1, 0]]),
    ("oracle_bipartite", lambda xs: sdegree.oracle_bipartite(xs, [1, 1]), [[1, 1], [2, 1]]),
]


@pytest.mark.parametrize("name, call, samples", INTEGER_ENTRY_POINTS, ids=[e[0] for e in INTEGER_ENTRY_POINTS])
def test_every_entry_point_keeps_the_one_integer_rule(name, call, samples):
    # integral floats give the ints' verdict; every other entry, alone or
    # after valid ones, raises ValueError
    for ints in samples:
        assert call([float(x) for x in ints]) == call(ints), (name, ints)
    for bad in (None, 1.5, "1", float("nan"), float("inf")):
        for entries in ([bad], samples[0] + [bad]):
            with pytest.raises(ValueError, match="must be integers"):
                call(entries)


CLI_LIBRARY_NAMES = [
    "write_realization",
    "realize_set",
    "emit_graph",
    "emit_dot",
    "parse_graph",
    "read_degree_set",
    "signed_degree_set",
    "is_connected",
    "is_s_graphical_branching",
    "is_s_graphical_deterministic",
    "is_bipartite_s_graphical",
    "gale_ryser",
    "oracle_s_graphical",
    "oracle_bipartite",
    "connected_degree_sets",
]


@pytest.mark.parametrize("name", CLI_LIBRARY_NAMES)
def test_cli_names_are_module_attributes(name):
    # callers may wrap any of these on sdegree.cli, so each must resolve there
    # and be the library's own function
    assert getattr(cli, name) is getattr(sdegree, name)


def test_commands_call_through_the_module_attributes(monkeypatch, capsys):
    calls = []

    def stub(d, e):
        calls.append((d, e))
        return False

    monkeypatch.setattr(cli, "gale_ryser", stub)
    code, out, _ = run(capsys, "gale-ryser", "--d", "1", "--e", "1")
    assert (code, out) == (0, "graphical: false\n")
    assert calls == [([1], [1])]


def test_every_public_name_resolves_and_is_listed():
    import importlib

    listed = dir(sdegree)
    for name in sdegree.__all__:
        assert getattr(sdegree, name) is not None
        assert name in listed
    # the package lists exactly its submodules' public names, each loaded
    # from the module that lists it (cli.main is the console-script entry)
    exported = {
        name: module_name
        for module_name in ("bipartite", "cli", "core", "oracle", "realize", "sgraphical", "textio")
        for name in importlib.import_module(f"sdegree.{module_name}").__all__
        if (module_name, name) != ("cli", "main")
    }
    assert sorted(exported) == sdegree.__all__
    assert exported == sdegree._MODULE_OF
    for module in (sdegree, cli):
        with pytest.raises(AttributeError):
            module.no_such_name
