"""tools/cli_time.py on stand-in processes: the order of its runs, their
environment and its record."""

import json
import os
import subprocess
import sys

import pytest

from conftest import TOOLS, load_tool

ROOT = str(TOOLS.parent)


@pytest.fixture
def cli_time():
    return load_tool("cli_time")


def test_runs_alternate_and_each_side_compiles_into_its_own_prefix(cli_time, tmp_path,
                                                                   monkeypatch, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
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

    monkeypatch.setattr(subprocess, "run", fake_run)
    record = tmp_path / "BENCH_1.json"
    record.write_text(json.dumps({"runs": ["kept"]}))
    args = ["--against", str(parent), "--pairs", "2", "--record", str(record)]
    assert cli_time.main(args) == 0
    # the tool's own checkout is the change
    p, c = str(parent / "src"), os.path.join(ROOT, "src")
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
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(commands) + 1 and out[-1] == "wrote %s" % record
    assert all(" wall_s " in line and "wins" in line for line in out[:-1])


def test_a_failing_process_stops_the_tool(cli_time, tmp_path, monkeypatch):
    def failing_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, "", "error: boom")

    monkeypatch.setattr(subprocess, "run", failing_run)
    args = ["--against", str(tmp_path), "--pairs", "1"]
    with pytest.raises(SystemExit, match="compose .* exited with 1: error: boom"):
        cli_time.main(args)


def test_pairs_below_one_stop_the_tool_before_any_process(cli_time, tmp_path, monkeypatch):
    def started(argv, **kwargs):
        raise AssertionError("a process was started: %r" % (argv,))

    monkeypatch.setattr(subprocess, "run", started)
    record = tmp_path / "BENCH_1.json"
    args = ["--against", str(tmp_path), "--pairs", "0", "--record", str(record)]
    with pytest.raises(SystemExit) as stop:
        cli_time.main(args)
    assert stop.value.code == 2
    assert not record.exists()
