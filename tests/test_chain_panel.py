"""tools/chain_panel.py on stand-in runs and on a two-point group: the
order of its runs, their environment, the closed-form check and its
command line.  No large group is closed."""

import json
import os
import subprocess

import pytest

from conftest import TOOLS, load_tool

THIS = str(TOOLS.parent)  # the tool's own checkout, the change


@pytest.fixture
def chain_panel():
    return load_tool("chain_panel")


def stand_in(monkeypatch):
    """Make every probe take 12.5 ms; returns the (checkout, group degree)
    of each run, in the order made."""
    runs = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(prefix) and not os.listdir(prefix)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        runs.append((os.path.dirname(env["PYTHONPATH"]), json.loads(argv[-1])[1]))
        return subprocess.CompletedProcess(argv, 0, "12.5\n", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    return runs


def test_runs_alternate_with_an_empty_prefix_each(chain_panel, monkeypatch, capsys, tmp_path):
    runs = stand_in(monkeypatch)
    monkeypatch.setattr(chain_panel, "PAIRS", 2)
    assert chain_panel.main(["--against", str(tmp_path)]) == 0
    other = str(tmp_path)
    degrees = [degree for _, degree, _ in chain_panel.PANEL.values()]
    assert runs == [(checkout, degree) for degree in degrees
                    for checkout in (other, THIS, THIS, other)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(chain_panel.PANEL)
    assert all(" closure_ms " in line and line.endswith("wins 0/2  bound -  same")
               for line in lines)


def test_groups_selects_groups(chain_panel, monkeypatch, capsys, tmp_path):
    runs = stand_in(monkeypatch)
    monkeypatch.setattr(chain_panel, "PAIRS", 1)
    assert chain_panel.main(["--against", str(tmp_path), "--groups", "C2001,Sym(7)"]) == 0
    assert [degree for _, degree in runs] == [2001, 2001, 7, 7]
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == [
        "C2001", "Sym(7)"]


def test_an_order_other_than_the_closed_form_stops_the_tool(chain_panel, monkeypatch):
    # a real probe on this checkout, on the group of degree 2 that (0 1)
    # generates, given as of order 3
    monkeypatch.setitem(chain_panel.PANEL, "C2 as 3", ([[(0, 1)]], 2, 3))
    monkeypatch.setattr(chain_panel, "PAIRS", 1)
    with pytest.raises(SystemExit) as stop:
        chain_panel.main(["--against", THIS, "--groups", "C2 as 3"])
    # a SystemExit with a message exits with status 1
    assert stop.value.code == "%s: the probe of C2 as 3 exited with 1: order 2, closed form 3" % (
        THIS)


def test_the_probe_times_a_closure_of_the_closed_form_order(chain_panel, monkeypatch, capsys):
    monkeypatch.setitem(chain_panel.PANEL, "C2", ([[(0, 1)]], 2, 2))
    monkeypatch.setattr(chain_panel, "PAIRS", 1)
    assert chain_panel.main(["--against", THIS, "--groups", "C2"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("C2       seed -      closure_ms ")


@pytest.mark.parametrize("option", [["--pairs", "1"], ["--groups", "Sym(7),Sym(8)"]])
def test_bad_options_or_groups_stop_the_tool_before_any_process(chain_panel, monkeypatch,
                                                                tmp_path, option):
    # the pair count is the constant PAIRS, so --pairs is refused as unknown
    def started(argv, **kwargs):
        raise AssertionError("a process was started: %r" % (argv,))

    monkeypatch.setattr(subprocess, "run", started)
    record = tmp_path / "BENCH_1.json"
    with pytest.raises(SystemExit) as stop:
        chain_panel.main(["--against", str(tmp_path), "--record", str(record), *option])
    assert stop.value.code == 2
    assert not record.exists()
