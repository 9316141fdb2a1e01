import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdegree
from sdegree import connected_degree_sets, parse_graph
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
    [("branching", "true"), ("deterministic", "true"), ("oracle", "true")],
)
def test_check_seq_all_methods_agree(capsys, method, expected):
    code, out, _ = run(capsys, "check-seq", "--seq", "1,0,-1,-2", "--method", method)
    assert code == 0
    assert out == f"s-graphical: {expected}\n"


def test_check_seq_defaults_to_branching(capsys):
    code, out, _ = run(capsys, "check-seq", "--seq", "2,2,-1,-1")
    assert code == 0
    assert out == "s-graphical: false\n"


def test_check_seq_tolerates_spaces(capsys):
    code, out, _ = run(capsys, "check-seq", "--seq", " 1 , 1 ")
    assert code == 0
    assert out == "s-graphical: true\n"


@pytest.mark.parametrize("method", ["reduction", "oracle"])
def test_check_pair(capsys, method):
    code, out, _ = run(
        capsys, "check-pair", "--alpha", "2,-2", "--beta", "1,-1", "--method", method
    )
    assert code == 0
    assert out == "s-graphical: false\n"


ONES_800 = ",".join(["1"] * 800)


@pytest.mark.parametrize(
    "argv",
    [
        ("check-seq", "--seq", ONES_800, "--method", "branching"),
        ("check-seq", "--seq", ONES_800, "--method", "deterministic"),
        ("check-pair", "--alpha", ONES_800, "--beta", ONES_800),
    ],
    ids=["branching", "deterministic", "pair"],
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


def test_enumerate_lists_connected_degree_sets(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "1", "--q", "2", "--sets")
    assert code == 0
    assert out == "-2,-1\n-1,0,1\n1,2\n"
    expected = connected_degree_sets(1, 2)
    assert [tuple(map(int, line.split(","))) for line in out.splitlines()] == expected


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

    def test_oracle_guard_is_2(self, capsys):
        code, _, err = run(
            capsys, "check-seq", "--seq", "1,1,1,1,1,1,1", "--method", "oracle"
        )
        assert code == 2
        assert "guard" in err
        assert run(capsys, "enumerate", "--p", "4", "--q", "4", "--sets")[0] == 2

    # Integers above sys.maxsize cannot size a list or range, so these are
    # refused before anything is allocated; smaller oversized values would
    # allocate.
    HUGE = str(sys.maxsize * 10**3)

    def test_oversized_realize_target_is_2(self, capsys):
        code, out, err = run(capsys, "realize", "--set", self.HUGE)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "size limit" in err

    def test_oversized_declared_part_is_2(self, tmp_path, capsys):
        doc = tmp_path / "huge.sbg"
        doc.write_text(f"sbg {self.HUGE} 1\n")
        code, out, err = run(capsys, "degree-set", "--in", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "size limit" in err

    def test_guard_does_not_hit_the_reduction_methods(self, capsys):
        seq = ",".join(["1", "1"] * 8)  # 16 entries, far past the oracle guard
        assert run(capsys, "check-seq", "--seq", seq)[0] == 0
        assert run(capsys, "check-seq", "--seq", seq, "--method", "deterministic")[0] == 0


def test_main_raises_system_exit(monkeypatch, capsys):
    import sdegree.cli as cli

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
