"""tools/tier1_time.py on stand-in runs: the order of ``--against`` runs,
each side's summary and the exit status.  No suite is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tier1_time.py"
spec = importlib.util.spec_from_file_location("tier1_time", TOOL)
tier1_time = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1_time)


def stand_in(monkeypatch, results):
    """Make ``run_once`` return the next of ``results[root]`` and record
    which checkout each call ran."""
    calls = []
    pending = {root: list(runs) for root, runs in results.items()}

    def run_once(root, workdir):
        calls.append(root)
        return pending[root].pop(0)

    monkeypatch.setattr(tier1_time, "run_once", run_once)
    return calls


def test_against_alternates_single_runs_and_reports_both_sides(monkeypatch, capsys, tmp_path):
    (tmp_path / "tests").mkdir()
    other = str(tmp_path)
    this = tier1_time.ROOT
    calls = stand_in(monkeypatch, {
        this: [(30.0, 9, 0, {"t::a": 2.0}), (34.0, 9, 0, {"t::a": 4.0}), (31.0, 9, 0, {})],
        other: [(40.0, 7, 0, {"t::b": 1.0}), (36.0, 7, 0, {"t::b": 3.0}), (38.0, 7, 0, {})],
    })
    assert tier1_time.main(["--runs", "3", "--against", other]) == 0
    assert calls == [this, other, other, this, this, other]
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
        tier1_time.ROOT: [(30.0, 9, 0, {})],
        str(tmp_path): [(40.0, 6, 1, {})],
    })
    assert tier1_time.main(["--runs", "1", "--against", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["against"]["passed"] == 6


def test_one_checkout_keeps_its_report(monkeypatch, capsys):
    calls = stand_in(monkeypatch, {tier1_time.ROOT: [(30.0, 9, 0, {}), (32.0, 8, 0, {})]})
    assert tier1_time.main(["--runs", "2"]) == 1  # the passed counts differ
    assert calls == [tier1_time.ROOT] * 2
    report = json.loads(capsys.readouterr().out)
    assert report == {"runs": 2, "wall_s": 31.0, "wall_s_runs": [30.0, 32.0], "passed": 8,
                      "slowest": {}}


def test_against_needs_a_checkout(tmp_path):
    with pytest.raises(SystemExit):
        tier1_time.main(["--against", str(tmp_path)])
