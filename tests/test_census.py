"""tools/census.py reads its command line before it runs anything."""

import pytest

from conftest import load_tool


def test_help_and_unknown_options_stop_before_the_census(monkeypatch, capsys):
    census = load_tool("census")

    def ran(*args):
        raise AssertionError("the census ran")

    monkeypatch.setattr(census, "run_users", ran)
    monkeypatch.setattr(census, "defined_functions", ran)
    with pytest.raises(SystemExit) as stop:
        census.main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
    with pytest.raises(SystemExit) as stop:
        census.main(["--max-d", "3"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --max-d 3" in capsys.readouterr().err
