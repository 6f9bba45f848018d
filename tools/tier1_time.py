"""Wall time of the Tier-1 suite and of its slowest tests.

    python3 tools/tier1_time.py [--runs 3]

Runs the Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
on ``tests`` and ``bench``, with ``src`` on PYTHONPATH) ``--runs`` times, one
run at a time, each with ``--durations=10 -p no:cacheprovider``, and prints
one JSON object:

* ``wall_s``: the median wall time of a run, interpreter start-up and
  collection included, and ``wall_s_runs``, each run's;
* ``passed``: the passed count, the least of the runs';
* ``slowest``: for each of the 10 test ids with the largest median
  duration, that median in seconds.  A test's duration in a run is the sum
  of the phases (setup, call, teardown) that run lists among its 10
  slowest; a run that lists none of its phases does not count towards its
  median.

Every run starts in a temporary directory, removed afterwards, with
PYTHONDONTWRITEBYTECODE=1, so that neither Hypothesis's example database
nor byte code is written into the checkout.  Exits 1 when a run fails a
test or the runs' passed counts differ; the JSON object is printed anyway.
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


def run_once(workdir):
    """(wall seconds, passed count, pytest exit code, {test id: seconds})."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
        "--durations=%d" % SLOWEST, "-p", "no:cacheprovider",
        "--rootdir", ROOT, os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench"),
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="Tier-1 runs (default 3)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    walls, counts, codes, per_test = [], [], [], {}
    for _ in range(args.runs):
        with tempfile.TemporaryDirectory() as workdir:
            wall, passed, code, durations = run_once(workdir)
        walls.append(round(wall, 2))
        counts.append(passed)
        codes.append(code)
        for test, seconds in durations.items():
            per_test.setdefault(test, []).append(seconds)
    medians = {test: statistics.median(values) for test, values in per_test.items()}
    slowest = sorted(medians, key=medians.get, reverse=True)[:SLOWEST]
    print(json.dumps({
        "runs": args.runs,
        "wall_s": round(statistics.median(walls), 2),
        "wall_s_runs": walls,
        "passed": min(counts),
        "slowest": {test: round(medians[test], 2) for test in slowest},
    }, indent=1))
    return 0 if set(codes) == {0} and len(set(counts)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
