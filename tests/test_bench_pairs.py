"""The summary of tools/bench_pairs.py on synthetic paired runs, and its
record of runs that end without a result."""

import json
import os
import subprocess
import sys

import pytest

from conftest import load_tool

bench_pairs = load_tool("bench_pairs")

SPEC = {
    "op_p50_ref": {"better": "lower", "bound": 0.15},
    "setup_s": {"better": "lower", "bound": 0.25},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}


def runs(values):
    """Run records of one workload and seed: ``values`` maps a metric to
    its (parent, change) value lists, one entry per pair."""
    out = []
    pairs = len(next(iter(values.values()))[0])
    for pair in range(pairs):
        for side, index in (("parent", 0), ("change", 1)):
            metrics = {name: {"value": v[index][pair], "unit": "x"} for name, v in values.items()}
            out.append({
                "workload": "deep", "seed": 23, "side": side, "pair": pair,
                "result": {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics},
            })
    return out


def test_summary_verdicts():
    parent_ref = [2.20, 2.25, 2.22, 2.18, 2.30, 2.21, 2.24, 2.19, 2.23, 2.26]
    rows = bench_pairs.summarise(runs({
        # clearly lower in every pair: a gain
        "op_p50_ref": (parent_ref, [1.60, 1.62, 2.40, 1.58, 1.65, 1.61, 1.63, 1.59, 1.64, 1.60]),
        # a third slower: beyond the 0.25 bound
        "setup_s": ([0.05] * 10, [0.066] * 10),
        # parent spread 0.4 of the median, wider than the 0.1 bound
        "peak_rss_mb": ([20, 28, 22, 30, 21, 29, 20, 31, 22, 28], [25] * 10),
        # a per-layer count, no bound
        "tree.subtrees_built_per_op": ([9.0] * 10, [2.0] * 10),
    }), SPEC)
    by_metric = {row["metric"]: row for row in rows}
    ref = by_metric["op_p50_ref"]
    assert ref["wins"] == 9 and ref["pairs"] == 10
    assert ref["verdict"] == "gain"
    assert ref["parent"][1] == pytest.approx(2.225)
    assert ref["change"][1] == pytest.approx(1.615)
    assert by_metric["setup_s"]["verdict"] == "worse"
    assert round(by_metric["setup_s"]["change_vs_parent"], 2) == 0.32
    assert by_metric["peak_rss_mb"]["verdict"] == "unresolved"
    assert by_metric["tree.subtrees_built_per_op"]["verdict"] == "gain"
    assert "wins 9/10" in bench_pairs.format_row(ref)


def test_summary_ties_and_higher_is_better():
    rows = bench_pairs.summarise(
        runs({"score": ([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])}),
        {"score": {"better": "higher", "bound": 0.1}},
    )
    (row,) = rows
    assert row["wins"] == 2 and row["verdict"] == "same"
    assert row["change_vs_parent"] == 1.0


def test_a_gain_needs_two_pairs_and_a_difference_past_the_resolution():
    spec = {"held": {"better": "lower", "bound": 0.1, "resolution": 0.001}}
    # one pair: its parent spread is 0 by construction
    (row,) = bench_pairs.summarise(runs({"held": ([3.0], [2.0])}), spec)
    assert row["wins"] == 1 and row["verdict"] == "same"
    # readings that agree to the last digit, lower by less than the resolution
    (row,) = bench_pairs.summarise(runs({"held": ([3.0] * 3, [2.9995] * 3)}), spec)
    assert row["wins"] == 3 and row["verdict"] == "same"
    (row,) = bench_pairs.summarise(runs({"held": ([3.0] * 3, [2.998] * 3)}), spec)
    assert row["verdict"] == "gain"


def test_paired_makes_each_run_in_alternating_order_as_its_record_is_taken():
    made = []

    def measure(side):
        made.append(side)
        return bench_pairs.result({"x": len(made)}, exit=0)

    runs = bench_pairs.paired({"parent": "p", "change": "c"}, 3, "w", 7, measure, order=4)
    first = next(runs)
    assert made == ["parent"]
    assert first == {"order": 5, "workload": "w", "seed": 7, "side": "parent", "pair": 0,
                     "result": {"exit": 0, "metrics": {"x": {"value": 1}}}}
    rest = list(runs)
    assert made == ["parent", "change", "change", "parent", "parent", "change"]
    assert [(run["order"], run["pair"]) for run in rest] == [(6, 0), (7, 1), (8, 1), (9, 2),
                                                             (10, 2)]


def test_revision_of_a_tree_without_git_metadata_is_null(tmp_path, capsys):
    assert bench_pairs.revision(tmp_path) is None
    assert "is not a git checkout" in capsys.readouterr().err


def test_revision_of_a_git_checkout_is_its_short_commit(tmp_path, capsys):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "f").write_text("x\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    assert bench_pairs.revision(tmp_path) == git("rev-parse", "--short", "HEAD")
    # a directory inside a work tree is not a checkout of its own
    assert bench_pairs.revision(tmp_path / "sub") is None
    assert "is not a git checkout" in capsys.readouterr().err
    # an untracked file leaves the commit as the revision
    (tmp_path / "BENCH_1.json").write_text("{}\n")
    assert bench_pairs.revision(tmp_path) == git("rev-parse", "--short", "HEAD")


def test_revision_of_a_checkout_with_uncommitted_changes_is_null(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, capture_output=True, check=True)

    git("init", "-q")
    (tmp_path / "f").write_text("x\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (tmp_path / "f").write_text("y\n")
    assert bench_pairs.revision(tmp_path) is None
    assert "has uncommitted changes" in capsys.readouterr().err
    git("add", "-A")  # staged but not committed
    assert bench_pairs.revision(tmp_path) is None


def python_command(code):
    """A benchmark command that runs ``code``; the workload arguments
    appended to it land in ``sys.argv``."""
    return [sys.executable, "-c", code]


def test_run_once_records_a_run_that_exits_non_zero_without_a_result(tmp_path):
    code = ("import sys; print('{\"attempted\": 5, \"failed\": 0}'); "
            "print('boom', file=sys.stderr); sys.exit(3)")
    result = bench_pairs.run_once(tmp_path, python_command(code), "deep", 23, "1", False)
    assert result["attempted"] == 0 and result["failed"] == 0 and not result["correct"]
    assert result["error"] == "exit 3: boom"


def test_run_once_records_a_malformed_last_line_without_a_result(tmp_path):
    for code, error in (("print('[1, 2]')", "'[1, 2]'"), ("print('ok')", "'ok'"), ("pass", "''")):
        result = bench_pairs.run_once(tmp_path, python_command(code), "deep", 23, "1", False)
        assert result["error"] == "no JSON object on the last line: " + error
    ok = "import json; print(json.dumps({'attempted': 5, 'failed': 1, 'metrics': {}}))"
    assert bench_pairs.run_once(tmp_path, python_command(ok), "deep", 23, "1", False) == {
        "attempted": 5, "failed": 1, "metrics": {}}


def test_each_run_compiles_into_its_own_empty_cache_prefix(tmp_path, monkeypatch):
    # a __pycache__ in the checkout must not let one side load bytecode that
    # the other side compiles: every run gets a fresh, empty prefix
    prefixes = []
    outer = os.environ.get("PYTHONPYCACHEPREFIX")

    def fake_run(argv, cwd, env, **kwargs):
        prefix = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(prefix) and not os.listdir(prefix)
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert env["PATH"] == os.environ["PATH"]
        prefixes.append(prefix)
        return subprocess.CompletedProcess(argv, 0, '{"attempted": 1, "failed": 0}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for workload in ("deep", "neretin", "deep"):
        result = bench_pairs.run_once(tmp_path, ["bench"], workload, 23, "1", False)
        assert result == {"attempted": 1, "failed": 0}
    assert len(set(prefixes)) == 3
    assert not any(os.path.exists(prefix) for prefix in prefixes)
    assert os.environ.get("PYTHONPYCACHEPREFIX") == outer  # only the runs' env is set


def test_runs_without_a_result_are_counted_and_fail_the_tool(tmp_path, monkeypatch, capsys):
    # the command of BENCHMARK.json runs in each side's checkout; here it
    # crashes in the one named "parent"; the tool's own checkout, the change,
    # stands in as "change"
    code = ("import os, sys; os.path.basename(os.getcwd()) == 'parent' and sys.exit(1); "
            "print('{\"attempted\": 2, \"failed\": 0, \"metrics\": {}}')")
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": python_command(code), "run_seconds": 1, "end_to_end": []}))
    monkeypatch.setattr(bench_pairs, "ROOT", str(change))
    args = ["--against", str(parent), "--workloads", "deep", "--seeds", "23", "--pairs", "2"]
    assert bench_pairs.main(args) == 1
    assert ("deep     failed ops: parent 0/0, 2 runs without a result; "
            "change 0/4, 0 runs without a result") in capsys.readouterr().out
    args[1] = str(change)  # both sides run cleanly
    assert bench_pairs.main(args) == 0
    assert ("deep     failed ops: parent 0/4, 0 runs without a result; "
            "change 0/4, 0 runs without a result") in capsys.readouterr().out


@pytest.mark.parametrize("option", [["--pairs", "0"], ["--pairs", "x"], ["--seeds", "23,x"]])
def test_bad_pairs_or_seeds_stop_the_tool_before_any_run(tmp_path, monkeypatch, option):
    def started(argv, **kwargs):
        raise AssertionError("a process was started: %r" % (argv,))

    monkeypatch.setattr(subprocess, "run", started)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))  # where BENCH_<n>.json would go
    args = ["--against", str(tmp_path), "--workloads", "deep", "--seeds", "23", "--pairs", "2",
            *option]
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(args)
    assert stop.value.code == 2
    assert list(tmp_path.iterdir()) == []
