"""Paired benchmark runs of a parent and a change checkout.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads deep,neretin --seeds 23,4099 --pairs 10 [--seconds 25]

For each workload and seed, runs the command of ``BENCHMARK.json`` in both
checkouts ``--pairs`` times, one run at a time, alternating which side
runs first (pair 0 parent first, pair 1 change first, ...).  Every run
goes to ``BENCH_<n>.json`` in ``--out`` (default: the change checkout),
``n`` one above the highest number already there, in the schema of the
earlier ``BENCH_*.json`` files.  Then, for each workload, seed and metric,
prints each side's median and quartiles, how many pairs the change won
(ties count for neither) and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: not worse, but the parent's quartile spread is wider
  than the bound and not every change run beats every parent run;
* ``gain``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
* ``same``: none of these.

Metrics without a bound (the per-layer ones of ``--trace 1``) get
``gain`` or ``same`` only.

The closing lines give, per workload and side, the failed ops and the runs
that ended without a result (a non-zero exit or a last line that is not a
JSON object).  The tool exits 1 when there is any such run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs, spec):
    """One row per (workload, seed, metric) found in ``runs``.

    ``runs`` are run records as written to ``BENCH_<n>.json``; ``spec``
    maps a metric name to ``{"better": "lower" | "higher", "bound": float
    or None}``; a metric missing from it is taken as lower-is-better
    without a bound.
    """
    groups = {}
    for run in runs:
        metrics = run["result"].get("metrics", {})
        for name, entry in metrics.items():
            key = (run["workload"], run["seed"], name)
            groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = entry["value"]
    rows = []
    for (workload, seed, name), pairs in sorted(groups.items()):
        better = spec.get(name, {}).get("better", "lower")
        bound = spec.get(name, {}).get("bound")
        sign = 1.0 if better == "lower" else -1.0
        both = [p for p in pairs.values() if "parent" in p and "change" in p]
        parent = sorted(p["parent"] for p in both)
        change = sorted(p["change"] for p in both)
        if not both:
            continue
        wins = sum(1 for p in both if sign * (p["parent"] - p["change"]) > 0)
        pq, cq = quartiles(parent), quartiles(change)
        spread = pq[2] - pq[0]
        relative = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        worse_by = sign * relative
        # every change run better than every parent run
        separated = max(change) < min(parent) if sign > 0 else min(change) > max(parent)
        if bound is not None and worse_by > bound:
            verdict = "worse"
        elif wins >= 0.9 * len(both) and sign * (pq[1] - cq[1]) > spread:
            verdict = "gain"
        elif bound is not None and pq[1] and spread / abs(pq[1]) > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append({
            "workload": workload, "seed": seed, "metric": name,
            "parent": pq, "change": cq, "wins": wins, "pairs": len(both),
            "change_vs_parent": relative,
            "bound": bound, "verdict": verdict,
        })
    return rows


def format_row(row):
    p, c = row["parent"], row["change"]
    bound = "-" if row["bound"] is None else "%g" % row["bound"]
    return (
        "%-8s seed %-6s %-40s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
        "%+.1f%%  wins %d/%d  bound %s  %s"
        % (row["workload"], row["seed"], row["metric"], p[1], p[0], p[2], c[1], c[0], c[2],
           100.0 * row["change_vs_parent"], row["wins"], row["pairs"], bound, row["verdict"])
    )


def run_once(checkout, command, workload, seed, seconds, trace):
    """The JSON result of one benchmark run in ``checkout``.

    Each run gets its own empty ``PYTHONPYCACHEPREFIX``, so every run of
    either checkout compiles its modules alike, whatever ``__pycache__``
    the checkout holds.  A run that exits non-zero (a crash, or a kill on a
    timeout) or whose last line of output is not a JSON object ends without
    a result: it is recorded with no ops and an ``error`` that says why."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        argv += ["--trace", "1"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if proc.returncode != 0:
        error = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    elif not isinstance(result, dict):
        error = "no JSON object on the last line: %r" % last[-200:]
    else:
        return result
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": error}


def next_bench_path(directory):
    numbers = [
        int(m.group(1))
        for path in glob.glob(os.path.join(directory, "BENCH_*.json"))
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path)))
    ]
    return os.path.join(directory, "BENCH_%d.json" % (max(numbers, default=0) + 1))


def revision(checkout):
    """The short commit of ``checkout``, or None (said on stderr) when the
    directory is not the top of a git work tree, as with a ``git archive``
    tree."""
    proc = subprocess.run(
        ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.split("\n")
    if proc.returncode == 0 and os.path.samefile(lines[0], checkout):
        return lines[1]
    print("%s is not a git checkout: its revision is recorded as null" % checkout,
          file=sys.stderr)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="per-layer runs (--trace 1)")
    parser.add_argument("--note", default="", help="what the change does, for the record")
    parser.add_argument("--out", help="directory of the BENCH_<n>.json file (default: --change)")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    seconds_text = "%g" % seconds
    record = {
        "change": args.note,
        "parent": revision(args.parent),
        "command": " ".join(benchmark["command"])
        + " --workload <workload> --seconds %s --seed <seed>%s"
        % (seconds_text, " --trace 1" if args.trace else ""),
        "machine": "%s, %d cores, Python %s"
        % (platform.platform(), os.cpu_count() or 0, platform.python_version()),
        "protocol": "consecutive pairs alternate which side runs first; "
        "the order field gives the sequence in which runs were made",
        "runs": [],
    }
    path = next_bench_path(args.out or args.change)
    order = 0
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            for pair in range(args.pairs):
                first = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in first:
                    order += 1
                    result = run_once(sides[side], benchmark["command"], workload, seed,
                                      seconds_text, args.trace)
                    run = {"order": order, "workload": workload, "seed": seed,
                           "side": side, "pair": pair, "result": result}
                    if args.trace:
                        run["trace"] = 1
                    record["runs"].append(run)
                    print("run %d: %s seed %d %s pair %d: %s"
                          % (order, workload, seed, side, pair,
                             result.get("error") or "%d/%d failed"
                             % (result["failed"], result["attempted"])),
                          file=sys.stderr)
                    with open(path, "w") as handle:
                        json.dump(record, handle, indent=1)
                        handle.write("\n")
    print("wrote %s" % path)
    for row in summarise(record["runs"], spec):
        print(format_row(row))
    lost = 0
    for workload in args.workloads.split(","):
        texts = []
        for side in sides:
            results = [r["result"] for r in record["runs"]
                       if r["workload"] == workload and r["side"] == side]
            missing = sum(1 for result in results if "error" in result)
            lost += missing
            texts.append("%s %d/%d, %d run%s without a result" % (
                side, sum(result["failed"] for result in results),
                sum(result["attempted"] for result in results),
                missing, "" if missing == 1 else "s"))
        print("%-8s failed ops: %s" % (workload, "; ".join(texts)))
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
