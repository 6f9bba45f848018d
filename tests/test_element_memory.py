"""tools/element_memory.py: its probe on this checkout, and its run order
and report on stand-in records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def element_memory():
    spec = importlib.util.spec_from_file_location(
        "element_memory", ROOT / "tools" / "element_memory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        size = 3 if checkout.endswith("parent") else 2
        return {"setup": size << 20, "elements": (size - 1) << 20}

    monkeypatch.setattr(element_memory, "record", stand_in)
    assert element_memory.main(["--runs", "2", "--pairs", "4", "--against", "/x/parent"]) == 0
    this = ROOT.name
    assert calls == [(side, 23, 4) for side in (this, "parent", "parent", this)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "this: set-up holds 2.000 MiB, the decoded elements 1.000 MiB"
    assert lines[-1] == "against -> this: set-up -1.000 MiB, elements -1.000 MiB"
    assert len(lines) == 7
