"""tools/cli_time.py on stand-in processes: the order of its runs, their
environment and its record."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def cli_time(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("cli_time", TOOLS / "cli_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_alternate_and_each_side_compiles_into_its_own_prefix(cli_time, tmp_path,
                                                                   monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    seen = []
    real_run = subprocess.run

    def fake_run(argv, **kwargs):
        if argv[:3] != [sys.executable, "-m", "coloured_neretin.cli"]:
            return real_run(argv, **kwargs)  # the tool's other processes, git's included
        env = kwargs["env"]
        assert "PYTHONDONTWRITEBYTECODE" not in env
        prefix = env["PYTHONPYCACHEPREFIX"]
        side = env["PYTHONPATH"]
        # a side's first process finds its prefix empty; the other side never
        # writes to it
        if side not in {path for _, path, _ in seen}:
            assert os.path.isdir(prefix) and not os.listdir(prefix)
        with open(os.path.join(prefix, "%d.pyc" % len(seen)), "w"):
            pass
        seen.append((argv[3], side, prefix))
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(cli_time.subprocess, "run", fake_run)
    record = tmp_path / "BENCH_1.json"
    record.write_text(json.dumps({"runs": ["kept"]}))
    args = ["--parent", str(parent), "--change", str(change), "--pairs", "2",
            "--record", str(record)]
    assert cli_time.main(args) == 0
    p, c = str(parent / "src"), str(change / "src")
    commands = ["compose", "invert", "reduce", "graph", "covolume-table", "verify-smallest"]
    # per command: one untimed run per side, then the pairs
    assert [path for _, path, _ in seen] == [p, c, p, c, c, p] * len(commands)
    assert [command for command, _, _ in seen] == [name for name in commands for _ in range(6)]
    prefixes = {path: prefix for _, path, prefix in seen}
    assert all(prefix == prefixes[path] for _, path, prefix in seen)
    assert len(set(prefixes.values())) == 2
    assert not any(os.path.exists(prefix) for prefix in prefixes.values())
    data = json.loads(record.read_text())
    assert data["runs"] == ["kept"]
    timed = data["cli_time"]["runs"]
    assert [run["side"] for run in timed] == ["parent", "change", "change", "parent"] * len(
        commands)
    assert all(run["result"]["metrics"]["wall_s"]["value"] > 0 for run in timed)
    summary = data["cli_time"]["summary"]
    assert sorted((row["workload"], row["metric"], row["pairs"]) for row in summary) == sorted(
        (name, "wall_s", 2) for name in commands)
    assert {row["verdict"] for row in summary} <= {"gain", "same"}
    assert data["cli_time"]["parent"] is None
    assert "wins" in capsys.readouterr().out


def test_a_failing_process_stops_the_tool(cli_time, tmp_path, monkeypatch):
    def failing_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, "", "error: boom")

    monkeypatch.setattr(cli_time.subprocess, "run", failing_run)
    args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "1"]
    with pytest.raises(SystemExit, match="compose .* exited with 1: error: boom"):
        cli_time.main(args)
