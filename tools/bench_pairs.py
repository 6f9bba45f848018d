"""Paired benchmark runs of a parent checkout and this one, the change.

    python3 tools/bench_pairs.py --against DIR \\
        --workloads deep,neretin --seeds 23,4099 --pairs 10 [--seconds 25]

For each workload and seed, runs the command of ``BENCHMARK.json`` in the
parent checkout ``--against`` and in this checkout ``--pairs`` times each,
one run at a time, alternating which side runs first (pair 0 parent first,
pair 1 change first, ...).  Every run goes to ``BENCH_<n>.json`` in this
checkout, ``n`` one above the highest number already there, in the schema
of the earlier ``BENCH_*.json`` files.  Then,
for each workload, seed and metric, prints each side's median and
quartiles, how many pairs the change won (ties count for neither) and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: not worse, but the parent's quartile spread is wider
  than the bound and not every change run beats every parent run;
* ``gain``: of at least two pairs, the change wins at least nine tenths,
  and the medians differ by more than the parent's quartile spread and
  than the metric's ``resolution``, where it has one;
* ``same``: none of these.

Metrics without a bound (the per-layer ones of ``--trace 1``) get
``gain`` or ``same`` only.

The closing lines give, per workload and side, the failed ops and the runs
that ended without a result (a non-zero exit or a last line that is not a
JSON object).  The tool exits 1 when there is any such run.

The other tools that compare two checkouts (``cli_time``, ``tier1_time``,
``element_memory``, ``chain_panel`` and ``decisions``) are command
specifications over this one.  Each takes the parent's checkout as
``--against DIR`` and its own as the change (``command_line``, ``sides``).
Each but ``decisions`` makes pairs of runs per workload in alternating
order (``--pairs`` of them, or ``chain_panel``'s fixed five), each run a
fresh process of ``start`` kept as a run record of ``BENCH_<n>.json``'s
schema (``paired``, ``result``); prints ``summarise``'s rows, with their
verdicts, by ``format_row``; and, with ``--record FILE``, stores the runs
and the rows under its own name as the key of that JSON file
(``conclude``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def at_least_one(text):
    """The argparse type of ``--pairs``: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def integers(text):
    """The argparse type of a comma-separated list of ints."""
    return [int(item) for item in text.split(",")]


def command_line(doc, pairs=None, record=None):
    """The parser of a tool that compares the checkout ``--against DIR``,
    the parent, with its own checkout, the change: with ``pairs``,
    ``--pairs``, the number of pairs of runs (default ``pairs``); with
    ``record``, ``--record FILE`` (see ``conclude``), whose key is
    ``record``.  Its description is the first paragraph of ``doc``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="DIR",
                        help="checkout of the parent commit; this checkout is the change")
    if pairs:
        parser.add_argument("--pairs", type=at_least_one, default=pairs,
                            help="pairs of runs (default %d)" % pairs)
    if record:
        parser.add_argument("--record", metavar="FILE",
                            help="JSON file to store the runs and summary in, under %s" % record)
    return parser


def sides(args):
    """{side: checkout} of a tool's parsed command line, in ``paired``'s
    order: the parent ``--against``, then this checkout, the change."""
    return {"parent": os.path.abspath(args.against), "change": ROOT}


def paired(sides, pairs, workload, seed, measure, order=0):
    """The run records, in the schema of ``BENCH_<n>.json``, of ``pairs``
    pairs of runs of ``workload`` and ``seed``, each run made when its
    record is taken: ``measure(side)`` makes one run of that side and gives
    its result; ``order`` runs came before.  Pair 0 runs ``sides`` in
    order, pair 1 in reverse, and so on, so that a drift in the machine's
    load falls on every side."""
    for pair in range(pairs):
        for side in list(sides)[::1 if pair % 2 == 0 else -1]:
            order += 1
            yield {"order": order, "workload": workload, "seed": seed, "side": side,
                   "pair": pair, "result": measure(side)}


def result(values, **fields):
    """A run's result: ``fields``, and ``values`` (metric name -> value) as
    its metrics."""
    return {**fields, "metrics": {name: {"value": value} for name, value in values.items()}}


def start(checkout, argv, what=None, cwd=None, cache=None):
    """(the finished process, its wall seconds) of ``argv`` run as a fresh
    process of ``checkout``, in ``cwd`` (default: the checkout), with the
    checkout's ``src`` as its ``PYTHONPATH`` and its output captured as text.

    Without ``cache``, the process gets an empty ``PYTHONPYCACHEPREFIX`` of
    its own, removed afterwards, and ``PYTHONDONTWRITEBYTECODE=1``: it
    loads no bytecode, from its checkout's ``__pycache__`` or the standard
    library's, and writes none, so every module it imports compiles from
    source, again after ``sys.modules`` forgets it.  With ``cache``, the
    process keeps its bytecode there (made if missing), written and loaded.
    With ``what``, a non-zero exit stops the tool with ``"<checkout>:
    <what> exited with N: <stderr tail>"``."""
    with (contextlib.nullcontext(cache) if cache
          else tempfile.TemporaryDirectory(prefix="pycache-")) as prefix:
        env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                   PYTHONPYCACHEPREFIX=prefix, PYTHONDONTWRITEBYTECODE="1")
        if cache:
            del env["PYTHONDONTWRITEBYTECODE"]
            os.makedirs(cache, exist_ok=True)
        begin = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd or checkout, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - begin
    if what and proc.returncode != 0:
        raise SystemExit("%s: %s exited with %d: %s" % (
            checkout, what, proc.returncode, proc.stderr.strip()[-500:]))
    return proc, seconds


def header(command, protocol):
    """The command, machine and protocol of a record of alternating runs."""
    return {"command": command, "machine": "%s, %d cores, Python %s" % (
        platform.platform(), os.cpu_count() or 0, platform.python_version()),
        "protocol": "one process at a time; consecutive pairs alternate which side "
        "runs first; " + protocol}


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
    or None}`` and an optional ``"resolution"`` (see ``gain`` above, in the
    metric's unit); a metric missing from it is taken as lower-is-better
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
        metric = spec.get(name, {})
        bound, resolution = metric.get("bound"), metric.get("resolution", 0.0)
        sign = 1.0 if metric.get("better", "lower") == "lower" else -1.0
        both = [p for p in pairs.values() if "parent" in p and "change" in p]
        parent = sorted(p["parent"] for p in both)
        change = sorted(p["change"] for p in both)
        if not both:
            continue
        wins = sum(1 for p in both if sign * (p["parent"] - p["change"]) > 0)
        pq, cq = quartiles(parent), quartiles(change)
        spread = pq[2] - pq[0]
        relative = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        # every change run better than every parent run
        separated = max(change) < min(parent) if sign > 0 else min(change) > max(parent)
        if bound is not None and sign * relative > bound:
            verdict = "worse"
        elif (len(both) > 1 and wins >= 0.9 * len(both)
              and sign * (pq[1] - cq[1]) > max(spread, resolution)):
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


def conclude(args, key, runs, rows, command, protocol):
    """Prints ``rows`` (of ``summarise``) by ``format_row``.  With
    ``--record``, stores them and ``runs`` under ``key`` of that JSON file
    (made if missing), for instance the ``BENCH_<n>.json`` of the same
    change's runs of this tool, beside each side's ``revision`` and the
    ``header`` of ``command`` and ``protocol``."""
    for row in rows:
        print(format_row(row))
    if args.record:
        data = {}
        if os.path.exists(args.record):
            with open(args.record) as handle:
                data = json.load(handle)
        data[key] = {**{side: revision(path) for side, path in sides(args).items()},
                     **header(command, protocol), "runs": runs, "summary": rows}
        with open(args.record, "w") as handle:
            json.dump(data, handle, indent=1)
            handle.write("\n")
        print("wrote %s" % args.record)


def run_once(checkout, command, workload, seed, seconds, trace):
    """The JSON result of one benchmark run, a fresh process of ``start``
    in ``checkout``.  A run that exits non-zero (a crash, or a kill on a
    timeout) or whose last line of output is not a JSON object ends without
    a result: it is recorded with no ops and an ``error`` that says why."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        argv += ["--trace", "1"]
    proc, _ = start(checkout, argv)
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
    numbers = [int(m.group(1)) for name in os.listdir(directory)
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(directory, "BENCH_%d.json" % (max(numbers, default=0) + 1))


def revision(checkout):
    """The short commit of ``checkout``, or None (said on stderr) when the
    directory is not the top of a git work tree, as with a ``git archive``
    tree, or when a tracked file differs from that commit (untracked files,
    such as the record being written, do not count)."""
    proc = subprocess.run(
        ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.split("\n")
    if proc.returncode != 0 or not os.path.samefile(lines[0], checkout):
        why = "is not a git checkout"
    elif subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=checkout,
                        capture_output=True).returncode:
        why = "has uncommitted changes"
    else:
        return lines[1]
    print("%s %s: its revision is recorded as null" % (checkout, why), file=sys.stderr)
    return None


def main(argv=None):
    parser = command_line(__doc__, pairs=10)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, type=integers,
                        help="comma-separated integer seeds")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="per-layer runs (--trace 1)")
    parser.add_argument("--note", default="", help="what the change does, for the record")
    args = parser.parse_args(argv)

    checkouts = sides(args)
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = "%g" % (args.seconds if args.seconds is not None else benchmark["run_seconds"])
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    record = {"change": args.note, "parent": revision(checkouts["parent"]), **header(
        " ".join(benchmark["command"]) + " --workload <workload> --seconds %s --seed <seed>%s"
        % (seconds, " --trace 1" if args.trace else ""),
        "each run has an empty bytecode prefix of its own and writes no bytecode; "
        "the order field gives the sequence in which runs were made"), "runs": []}
    path = next_bench_path(checkouts["change"])
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for run in paired(checkouts, args.pairs, workload, seed, lambda side: run_once(
                    checkouts[side], benchmark["command"], workload, seed, seconds,
                    args.trace), len(record["runs"])):
                if args.trace:
                    run["trace"] = 1
                record["runs"].append(run)
                result = run["result"]
                print("run %d: %s seed %d %s pair %d: %s"
                      % (run["order"], workload, seed, run["side"], run["pair"],
                         result.get("error") or "%d/%d failed"
                         % (result["failed"], result["attempted"])),
                      file=sys.stderr)
                with open(path, "w") as handle:
                    json.dump(record, handle, indent=1)
                    handle.write("\n")
    print("wrote %s" % path)
    for row in summarise(record["runs"], spec):
        print(format_row(row))
    for workload in args.workloads.split(","):
        texts = []
        for side in checkouts:
            results = [r["result"] for r in record["runs"]
                       if r["workload"] == workload and r["side"] == side]
            missing = sum(1 for result in results if "error" in result)
            texts.append("%s %d/%d, %d run%s without a result" % (
                side, sum(result["failed"] for result in results),
                sum(result["attempted"] for result in results),
                missing, "" if missing == 1 else "s"))
        print("%-8s failed ops: %s" % (workload, "; ".join(texts)))
    return 1 if any("error" in run["result"] for run in record["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
