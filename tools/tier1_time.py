"""Wall time of the Tier-1 suite, its passed count and its slowest tests,
in a parent checkout and this one.

    python3 tools/tier1_time.py --against DIR [--pairs 3] [--record BENCH_<n>.json]

Runs the Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
on ``tests`` and ``bench``, with ``src`` on PYTHONPATH) of the parent
checkout ``--against`` and of this one ``--pairs`` times each, one run at a
time in ``tools/bench_pairs.py``'s alternating order, each run with
``--durations=10 -p no:cacheprovider``.  Each run is a run record of
``bench_pairs`` with these metrics:

* ``wall_s``: the run's wall time, interpreter start-up and collection
  included;
* ``passed``: the run's passed count;
* for each test id that the run lists among its 10 slowest, the test's
  duration in seconds: the sum of the phases (setup, call, teardown) that
  the run lists.

The tool prints ``bench_pairs``' summary rows of ``wall_s``, of ``passed``
and of the 10 tests with the largest median on either side; a test's row
counts the pairs in which both runs list it.  Wall times carry per-process
levels, so no row has a bound, and the verdicts are ``gain`` or ``same``.
``--record`` stores the runs and those rows under the key ``tier1_time``.

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
checkout's timed runs differ; the summary is printed anyway.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile

from bench_pairs import command_line, conclude, paired, result, sides, start, summarise

SLOWEST = 10
DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +(\S.*)$")
PASSED = re.compile(r"\b(\d+) passed\b")
TOTALS = {"wall_s": {"better": "lower", "bound": None},
          "passed": {"better": "higher", "bound": None}}


def run_once(root, workdir, cache):
    """The result of one run of the checkout ``root``'s suite, with its
    bytecode in ``cache``: pytest's exit code as ``exit``, and the metrics."""
    command = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
        "--durations=%d" % SLOWEST, "-p", "no:cacheprovider",
        "--rootdir", root, os.path.join(root, "tests"), os.path.join(root, "bench"),
    ]
    proc, wall = start(root, command, cwd=workdir, cache=cache)
    values = {"wall_s": wall}
    for line in proc.stdout.splitlines():
        match = DURATION.match(line)
        if match:
            test = match.group(2).strip()
            values[test] = values.get(test, 0.0) + float(match.group(1))
    passed = PASSED.search((proc.stdout.strip().splitlines() or [""])[-1])
    values["passed"] = int(passed.group(1)) if passed else 0
    return result(values, exit=proc.returncode)


def main(argv=None):
    parser = command_line(__doc__, pairs=3, record="tier1_time")
    args = parser.parse_args(argv)
    checkouts = sides(args)
    if not os.path.isdir(os.path.join(checkouts["parent"], "tests")):
        parser.error("--against %s has no tests directory" % args.against)
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefixes:
        caches = {side: os.path.join(prefixes, side) for side in checkouts}

        def measure(side):
            with tempfile.TemporaryDirectory() as workdir:
                return run_once(checkouts[side], workdir, caches[side])

        for side in checkouts:  # untimed: fills the side's bytecode prefix
            measure(side)
        runs = list(paired(checkouts, args.pairs, "tier1", "-", measure))
    rows = summarise(runs, TOTALS)
    tests = sorted((row for row in rows if row["metric"] not in TOTALS),
                   key=lambda row: -max(row["parent"][1], row["change"][1]))
    conclude(args, "tier1_time", runs,
             [row for row in rows if row["metric"] in TOTALS] + tests[:SLOWEST],
             "python -m pytest -q --continue-on-collection-errors --durations=%d "
             "-p no:cacheprovider tests bench" % SLOWEST,
             "each side keeps its bytecode in its own prefix, empty at the start and "
             "filled by one untimed run of the suite; each run in a directory of its own")
    # (side, passed count) pairs: more than one per side when a side's counts differ
    counts = {(run["side"], run["result"]["metrics"]["passed"]["value"]) for run in runs}
    return 1 if any(run["result"]["exit"] for run in runs) or len(counts) > 2 else 0


if __name__ == "__main__":
    sys.exit(main())
