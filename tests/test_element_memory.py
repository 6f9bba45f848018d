"""tools/element_memory.py: its probe on this checkout, and its run order
and summary on stand-in probes."""

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
    few = element_memory.probe(str(ROOT), 23, 2)
    more = element_memory.probe(str(ROOT), 23, 8)
    assert 0 < few["elements"] < few["setup"]
    # 12 more decoded elements hold more, and the rest of the set-up is alike
    assert more["elements"] > few["elements"]
    assert abs((more["setup"] - more["elements"]) - (few["setup"] - few["elements"])) < 1 << 18


def test_runs_alternate_and_medians_are_printed(element_memory, monkeypatch, capsys):
    calls = []

    def stand_in(checkout, seed):
        calls.append((Path(checkout).name, seed))
        size = 3 if checkout == "/x/parent" else 2
        return {"setup": size << 20, "elements": (size - 1) << 20}

    monkeypatch.setattr(element_memory, "probe", stand_in)
    assert element_memory.main(["--pairs", "2", "--against", "/x/parent"]) == 0
    this = ROOT.name
    assert calls == [(side, 23) for side in ("parent", this, this, "parent")]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    elements, setup = (line.split() for line in lines)
    assert elements[:4] == ["deep", "seed", "23", "elements_mib"]
    assert setup[:4] == ["deep", "seed", "23", "setup_mib"]
    # each side's median [quartiles] in MiB, the change, the pairs won, the bound
    assert " ".join(elements[4:]) == (
        "parent 2 [2, 2] change 1 [1, 1] -50.0% wins 2/2 bound 0.1 gain")
    assert " ".join(setup[4:]) == (
        "parent 3 [3, 3] change 2 [2, 2] -33.3% wins 2/2 bound 0.1 gain")


def test_each_run_compiles_into_its_own_empty_cache_prefix(element_memory, monkeypatch,
                                                            capsys):
    prefixes = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(prefix) and not os.listdir(prefix)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert argv[-1] == str(element_memory.INPUTS)
        (Path(prefix) / "compiled.pyc").write_text("")
        prefixes.append(prefix)
        return subprocess.CompletedProcess(argv, 0, '{"setup": 2097152, "elements": 0}\n', "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert element_memory.main(["--pairs", "2", "--against", str(ROOT)]) == 0
    assert len(set(prefixes)) == 4
    assert not any(os.path.exists(prefix) for prefix in prefixes)
    assert "setup_mib" in capsys.readouterr().out.splitlines()[1]
