"""Wall time of the Tier-1 suite and of its slowest tests.

    python3 tools/tier1_time.py [--runs 3] [--against DIR]

Runs the Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
on ``tests`` and ``bench``, with ``src`` on PYTHONPATH) of this checkout
``--runs`` times, one run at a time, each with ``--durations=10 -p
no:cacheprovider``, and prints one JSON object:

* ``wall_s``: the median wall time of a run, interpreter start-up and
  collection included, and ``wall_s_runs``, each run's;
* ``passed``: the passed count, the least of the runs';
* ``slowest``: for each of the 10 test ids with the largest median
  duration, that median in seconds.  A test's duration in a run is the sum
  of the phases (setup, call, teardown) that run lists among its 10
  slowest; a run that lists none of its phases does not count towards its
  median.

With ``--against DIR`` (another checkout, such as the parent commit's), it
makes ``--runs`` single runs of each checkout in ``tools/bench_pairs.py``'s
alternating order (this, DIR, DIR, this, this, DIR, ...), so that a drift
in the machine's load falls on both.  The JSON object then holds
``order``, the sequence of the runs, and one such summary for each side,
``this`` and ``against``, each with its ``checkout`` directory.

Every run is a fresh process of ``bench_pairs``' ``start``, in a
temporary directory of its own.  As in ``tools/cli_time.py``, each side
keeps its bytecode in one prefix of its own, empty when the tool starts,
so that neither side loads its checkout's ``__pycache__``; one untimed
run of the suite per side fills it, so that the timed runs, and every
process they start, load the bytecode of the standard library, pytest,
hypothesis, mpmath and the package, as a developer's ``pytest`` run does.
The directories and the prefixes are removed afterwards, so that neither
Hypothesis's example database nor byte code is written into the checkout.
Exits 1 when a timed run fails a test or the passed counts of one
checkout's timed runs differ; the JSON object is printed anyway.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import tempfile

from bench_pairs import alternate, at_least_one, start

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWEST = 10
DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(\S.*)$")
PASSED = re.compile(r"\b(\d+) passed\b")


def run_once(root, workdir, cache):
    """(wall seconds, passed count, pytest exit code, {test id: seconds}) of
    one run of the checkout ``root``'s suite, with its bytecode in ``cache``."""
    command = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
        "--durations=%d" % SLOWEST, "-p", "no:cacheprovider",
        "--rootdir", root, os.path.join(root, "tests"), os.path.join(root, "bench"),
    ]
    result, wall = start(root, command, cwd=workdir, cache=cache)
    durations = {}
    for line in result.stdout.splitlines():
        match = DURATION.match(line)
        if match:
            test = match.group(2).strip()
            durations[test] = durations.get(test, 0.0) + float(match.group(1))
    summary = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
    passed = PASSED.search(summary)
    return wall, int(passed.group(1)) if passed else 0, result.returncode, durations


def summary(runs):
    """(the JSON summary of one checkout's ``run_once`` results, whether
    every run passed with the same count)."""
    walls = [round(wall, 2) for wall, _, _, _ in runs]
    counts = [passed for _, passed, _, _ in runs]
    per_test = {}
    for _, _, _, durations in runs:
        for test, seconds in durations.items():
            per_test.setdefault(test, []).append(seconds)
    medians = {test: statistics.median(values) for test, values in per_test.items()}
    slowest = sorted(medians, key=medians.get, reverse=True)[:SLOWEST]
    ok = all(code == 0 for _, _, code, _ in runs) and len(set(counts)) == 1
    return {
        "runs": len(runs),
        "wall_s": round(statistics.median(walls), 2),
        "wall_s_runs": walls,
        "passed": min(counts),
        "slowest": {test: round(medians[test], 2) for test in slowest},
    }, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=at_least_one, default=3,
                        help="Tier-1 runs per checkout (default 3)")
    parser.add_argument("--against", metavar="DIR",
                        help="a second checkout, whose single runs alternate with this one's")
    args = parser.parse_args(argv)
    sides = {"this": ROOT}
    if args.against is not None:
        sides["against"] = os.path.abspath(args.against)
        if not os.path.isdir(os.path.join(sides["against"], "tests")):
            parser.error("--against %s has no tests directory" % args.against)
    results, order = {side: [] for side in sides}, []
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefixes:
        caches = {side: os.path.join(prefixes, side) for side in sides}
        for side in sides:  # untimed: fills the side's bytecode prefix
            os.mkdir(caches[side])
            with tempfile.TemporaryDirectory() as workdir:
                run_once(sides[side], workdir, caches[side])
        for _, side in alternate(args.runs, sides):
            with tempfile.TemporaryDirectory() as workdir:
                results[side].append(run_once(sides[side], workdir, caches[side]))
            order.append(side)
    summaries = {side: summary(runs) for side, runs in results.items()}
    if args.against is None:
        report = summaries["this"][0]
    else:
        report = {"runs": args.runs, "order": order}
        for side, root in sides.items():
            report[side] = dict(checkout=root, **summaries[side][0])
    print(json.dumps(report, indent=1))
    return 0 if all(ok for _, ok in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
