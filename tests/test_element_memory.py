"""tools/element_memory.py: its probe on this checkout, and its run order
and report on stand-in records."""

import os
import subprocess
from pathlib import Path

import pytest

from conftest import load_tool

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def element_memory():
    return load_tool("element_memory")


def test_the_probe_reads_a_set_up_on_this_checkout(element_memory):
    few = element_memory.record(str(ROOT), 23, 2)
    more = element_memory.record(str(ROOT), 23, 8)
    assert 0 < few["elements"] < few["setup"]
    # 12 more decoded elements hold more, and the rest of the set-up is alike
    assert more["elements"] > few["elements"]
    assert abs((more["setup"] - more["elements"]) - (few["setup"] - few["elements"])) < 1 << 18


def test_runs_alternate_and_medians_are_printed(element_memory, monkeypatch, capsys):
    calls = []

    def stand_in(checkout, seed, pairs):
        calls.append((Path(checkout).name, seed, pairs))
        size = 3 if checkout == "/x/parent" else 2
        return {"setup": size << 20, "elements": (size - 1) << 20}

    monkeypatch.setattr(element_memory, "record", stand_in)
    assert element_memory.main(["--runs", "2", "--pairs", "4", "--against", "/x/parent"]) == 0
    this = ROOT.name
    assert calls == [(side, 23, 4) for side in (this, "parent", "parent", this)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "this: set-up holds 2.000 MiB, the decoded elements 1.000 MiB"
    assert lines[-1] == "against -> this: set-up -1.000 MiB, elements -1.000 MiB"
    assert len(lines) == 7


def test_each_run_compiles_into_its_own_empty_cache_prefix(element_memory, monkeypatch,
                                                            capsys):
    prefixes = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(prefix) and not os.listdir(prefix)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        (Path(prefix) / "compiled.pyc").write_text("")
        prefixes.append(prefix)
        return subprocess.CompletedProcess(argv, 0, '{"setup": 2097152, "elements": 0}\n', "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert element_memory.main(["--runs", "2", "--pairs", "1", "--against", str(ROOT)]) == 0
    assert len(set(prefixes)) == 4
    assert not any(os.path.exists(prefix) for prefix in prefixes)
    assert "set-up holds 2.000 MiB" in capsys.readouterr().out
