"""tools/tier1_time.py on stand-in runs: the order of ``--against`` runs,
each side's summary and the exit status.  No suite is started."""

import json
import os
import subprocess
from pathlib import Path

import pytest

from conftest import load_tool

tier1_time = load_tool("tier1_time")


# the untimed first run of a side: its failure and its slow test count for nothing
WARM = (99.0, 0, 1, {"t::warm": 9.0})


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
    other = str(tmp_path)
    this = tier1_time.ROOT
    calls = stand_in(monkeypatch, {
        this: [WARM, (30.0, 9, 0, {"t::a": 2.0}), (34.0, 9, 0, {"t::a": 4.0}),
               (31.0, 9, 0, {})],
        other: [WARM, (40.0, 7, 0, {"t::b": 1.0}), (36.0, 7, 0, {"t::b": 3.0}),
                (38.0, 7, 0, {})],
    })
    assert tier1_time.main(["--runs", "3", "--against", other]) == 0
    assert calls == [this, other] + [this, other, other, this, this, other]
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == ["this", "against", "against", "this", "this", "against"]
    assert report["this"] == {
        "checkout": this, "runs": 3, "wall_s": 31.0, "wall_s_runs": [30.0, 34.0, 31.0],
        "passed": 9, "slowest": {"t::a": 3.0},
    }
    assert report["against"]["checkout"] == other
    assert report["against"]["wall_s"] == 38.0
    assert report["against"]["wall_s_runs"] == [40.0, 36.0, 38.0]
    assert report["against"]["passed"] == 7


def test_against_fails_when_one_side_fails_a_test(monkeypatch, capsys, tmp_path):
    (tmp_path / "tests").mkdir()
    stand_in(monkeypatch, {
        tier1_time.ROOT: [WARM, (30.0, 9, 0, {})],
        str(tmp_path): [WARM, (40.0, 6, 1, {})],
    })
    assert tier1_time.main(["--runs", "1", "--against", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["against"]["passed"] == 6


def test_one_checkout_keeps_its_report(monkeypatch, capsys):
    calls = stand_in(monkeypatch, {
        tier1_time.ROOT: [WARM, (30.0, 9, 0, {}), (32.0, 8, 0, {})],
    })
    assert tier1_time.main(["--runs", "2"]) == 1  # the passed counts differ
    assert calls == [tier1_time.ROOT] * 3
    report = json.loads(capsys.readouterr().out)
    assert report == {"runs": 2, "wall_s": 31.0, "wall_s_runs": [30.0, 32.0], "passed": 8,
                      "slowest": {}}


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
    assert tier1_time.main(["--runs", "2", "--against", str(tmp_path)]) == 0
    this, other = tier1_time.ROOT, str(tmp_path)
    assert [root for root, _, _, _ in runs] == [this, other, this, other, other, this]
    prefixes = {root: {prefix for r, prefix, _, _ in runs if r == root} for root in (this, other)}
    assert all(len(one) == 1 for one in prefixes.values())
    assert prefixes[this] != prefixes[other]
    assert [found for _, _, found, _ in runs] == [
        [], [], ["run1.pyc"], ["run2.pyc"], ["run2.pyc", "run4.pyc"], ["run1.pyc", "run3.pyc"]]
    assert len({cwd for _, _, _, cwd in runs}) == 6
    assert not any(os.path.exists(path) for _, prefix, _, cwd in runs for path in (prefix, cwd))
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == ["this", "against", "against", "this"]
    assert report["this"]["runs"] == report["against"]["runs"] == 2
    assert report["against"]["passed"] == 3
