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
makes ``--runs`` single runs of each checkout, alternating which one runs
first (this, DIR, DIR, this, this, DIR, ...), so that a drift in the
machine's load falls on both.  The JSON object then holds ``order``, the
sequence of the runs, and one such summary for each side, ``this`` and
``against``, each with its ``checkout`` directory.

Every run starts in a temporary directory, removed afterwards, with
PYTHONDONTWRITEBYTECODE=1, so that neither Hypothesis's example database
nor byte code is written into the checkout.  Exits 1 when a run fails a
test or the passed counts of one checkout's runs differ; the JSON object is
printed anyway.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWEST = 10
DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(\S.*)$")
PASSED = re.compile(r"\b(\d+) passed\b")


def run_once(root, workdir):
    """(wall seconds, passed count, pytest exit code, {test id: seconds}) of
    one run of the checkout ``root``'s suite."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
        "--durations=%d" % SLOWEST, "-p", "no:cacheprovider",
        "--rootdir", root, os.path.join(root, "tests"), os.path.join(root, "bench"),
    ]
    start = time.perf_counter()
    result = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
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
    parser.add_argument("--runs", type=int, default=3, help="Tier-1 runs per checkout (default 3)")
    parser.add_argument("--against", metavar="DIR",
                        help="a second checkout, whose single runs alternate with this one's")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"this": ROOT}
    if args.against is not None:
        sides["against"] = os.path.abspath(args.against)
        if not os.path.isdir(os.path.join(sides["against"], "tests")):
            parser.error("--against %s has no tests directory" % args.against)
    results, order = {side: [] for side in sides}, []
    for k in range(args.runs):
        for side in list(sides)[:: 1 if k % 2 == 0 else -1]:
            with tempfile.TemporaryDirectory() as workdir:
                results[side].append(run_once(sides[side], workdir))
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
