"""tools/tier1_time.py on stand-in runs: the order of its runs, each run's
record, the summary and the exit status.  No suite is started."""

import json
import os
import subprocess
from pathlib import Path

import pytest

from conftest import TOOLS, load_tool

tier1_time = load_tool("tier1_time")
format_row = load_tool("bench_pairs").format_row
THIS = str(TOOLS.parent)  # the tool's own checkout, the change


def run(wall, passed, code, durations):
    """The result ``run_once`` gives for a run."""
    return tier1_time.result({"wall_s": wall, **durations, "passed": passed}, exit=code)


# the untimed first run of a side: its failure and its slow test count for nothing
WARM = run(99.0, 0, 1, {"t::warm": 9.0})


def stand_in(monkeypatch, results):
    """Make ``run_once`` return the next of ``results[root]`` and record
    which checkout each call ran."""
    calls = []
    pending = {root: list(runs) for root, runs in results.items()}

    def run_once(root, workdir, cache):
        calls.append(root)
        return pending[root].pop(0)

    monkeypatch.setattr(tier1_time, "run_once", run_once)
    return calls


def test_against_alternates_single_runs_and_reports_both_sides(monkeypatch, capsys, tmp_path):
    (tmp_path / "tests").mkdir()
    other, this = str(tmp_path), THIS
    calls = stand_in(monkeypatch, {
        other: [WARM, run(40.0, 7, 0, {"t::a": 1.0, "t::b": 5.0}),
                run(36.0, 7, 0, {"t::a": 3.0}), run(38.0, 7, 0, {"t::b": 2.0})],
        this: [WARM, run(30.0, 9, 0, {"t::a": 2.0}), run(34.0, 9, 0, {"t::a": 4.0, "t::b": 1.0}),
               run(31.0, 9, 0, {})],
    })
    record = tmp_path / "BENCH_1.json"
    assert tier1_time.main(["--pairs", "3", "--against", other, "--record", str(record)]) == 0
    assert calls == [other, this] + [other, this, this, other, other, this]
    data = json.loads(record.read_text())["tier1_time"]
    assert [r["side"] for r in data["runs"]] == ["parent", "change", "change", "parent",
                                                 "parent", "change"]
    assert data["runs"][1]["result"] == run(30.0, 9, 0, {"t::a": 2.0})
    rows = {row["metric"]: row for row in data["summary"]}
    # t::b is never listed by both runs of a pair, so it has no row
    assert [row["metric"] for row in data["summary"]] == ["passed", "wall_s", "t::a"]
    assert rows["wall_s"]["parent"] == [37.0, 38.0, 39.0]
    assert rows["wall_s"]["change"] == [30.5, 31.0, 32.5]
    assert rows["wall_s"]["wins"] == 3 and rows["wall_s"]["verdict"] == "gain"
    assert rows["passed"]["parent"][1] == 7 and rows["passed"]["change"][1] == 9
    assert rows["t::a"]["pairs"] == 2
    assert rows["t::a"]["parent"][1] == 2.0 and rows["t::a"]["change"][1] == 3.0
    out = capsys.readouterr().out.splitlines()
    assert out == [format_row(row) for row in data["summary"]] + ["wrote %s" % record]


def test_against_fails_when_one_side_fails_a_test(monkeypatch, capsys, tmp_path):
    (tmp_path / "tests").mkdir()
    stand_in(monkeypatch, {
        THIS: [WARM, run(30.0, 9, 0, {})],
        str(tmp_path): [WARM, run(40.0, 6, 1, {})],
    })
    assert tier1_time.main(["--pairs", "1", "--against", str(tmp_path)]) == 1
    # the summary is printed anyway
    passed = capsys.readouterr().out.splitlines()[0]
    assert " passed " in passed and "parent 6 " in passed and "change 9 " in passed


def test_passed_counts_that_differ_fail_the_tool(monkeypatch, capsys, tmp_path):
    (tmp_path / "tests").mkdir()
    calls = stand_in(monkeypatch, {
        THIS: [WARM, run(30.0, 9, 0, {}), run(32.0, 8, 0, {})],
        str(tmp_path): [WARM, run(40.0, 7, 0, {}), run(41.0, 7, 0, {})],
    })
    assert tier1_time.main(["--pairs", "2", "--against", str(tmp_path)]) == 1
    assert len(calls) == 6
    assert len(capsys.readouterr().out.splitlines()) == 2  # passed and wall_s


def test_against_needs_a_checkout(tmp_path):
    with pytest.raises(SystemExit):
        tier1_time.main(["--against", str(tmp_path)])


def test_each_side_compiles_into_one_prefix_warmed_by_an_untimed_run(monkeypatch, capsys,
                                                                     tmp_path):
    # as in tools/cli_time.py: a side's first run finds its prefix empty, so
    # no side loads its checkout's __pycache__, and its timed runs load what
    # that untimed run wrote; every run has a directory of its own
    (tmp_path / "tests").mkdir()
    runs = []

    def fake_run(argv, cwd, env, **kwargs):
        root = argv[argv.index("--rootdir") + 1]
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert "PYTHONDONTWRITEBYTECODE" not in env
        runs.append((root, prefix, sorted(os.listdir(prefix)), cwd))
        (Path(prefix) / ("run%d.pyc" % len(runs))).write_text("")
        return subprocess.CompletedProcess(argv, 0, "0.50s call tests/t.py::a\n3 passed\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert tier1_time.main(["--pairs", "2", "--against", str(tmp_path)]) == 0
    this, other = THIS, str(tmp_path)
    assert [root for root, _, _, _ in runs] == [other, this, other, this, this, other]
    prefixes = {root: {prefix for r, prefix, _, _ in runs if r == root} for root in (this, other)}
    assert all(len(one) == 1 for one in prefixes.values())
    assert prefixes[this] != prefixes[other]
    assert [found for _, _, found, _ in runs] == [
        [], [], ["run1.pyc"], ["run2.pyc"], ["run2.pyc", "run4.pyc"], ["run1.pyc", "run3.pyc"]]
    assert len({cwd for _, _, _, cwd in runs}) == 6
    assert not any(os.path.exists(path) for _, prefix, _, cwd in runs for path in (prefix, cwd))
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[3] for line in out] == ["passed", "wall_s", "tests/t.py::a"]
    assert all("wins 0/2" in line for line in out[:1] + out[2:])
