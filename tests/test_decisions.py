"""tools/decisions.py: its probe on this checkout, and its comparison and
report on stand-in decisions."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def decisions():
    spec = importlib.util.spec_from_file_location("decisions", ROOT / "tools" / "decisions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_probe_records_every_decision(decisions):
    # verify_xi_claims(5) makes 20 decisions, and the partitions of 3 and 4
    # are 3 and 5 more; the equality case (3,) stays undecided at the cap
    seen = decisions.record(str(ROOT), 3, max_x=5, max_d=3)
    assert len(seen) == 28
    assert all(sign in (1, -1, None) and bits >= 3 for sign, bits in seen)
    assert [sign for sign, _ in seen].count(None) == 1


def test_paired_decisions_are_counted(decisions):
    parent = [(1, 8), (-1, 16), (None, 64), (1, 4), (1, 4)]
    change = [(1, 4), (-1, 16), (None, 64), (-1, 8), (None, 64)]
    assert decisions.compare(parent, change) == {
        "decisions": 5,
        "undecided": [1, 2],
        "sign_changes": 2,
        "same": 2,
        "earlier": 1,
        "later": 2,
    }
    with pytest.raises(SystemExit, match="the parent makes 5 decisions, the change 4"):
        decisions.compare(parent, change[:4])


def test_one_line_per_start(decisions, monkeypatch, capsys):
    calls = []

    def stand_in(checkout, start):
        calls.append((Path(checkout).name, start))
        return [(1, start), (1, 2 * start if checkout.endswith("parent") else start)]

    monkeypatch.setattr(decisions, "record", stand_in)
    assert decisions.main(["--parent", "/x/parent", "--change", "/x/change"]) == 0
    assert calls == [(side, start) for start in (128, 3, 4, 5) for side in ("parent", "change")]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "start %d: 2 decisions, undecided 0 -> 0, 0 sign changes; "
        "settling precision same 1, earlier 1, later 0" % start
        for start in (128, 3, 4, 5)
    ]
