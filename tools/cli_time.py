"""Paired wall times of one-command CLI processes in a parent and a change
checkout.

    python3 tools/cli_time.py --parent DIR --change DIR [--pairs 10] \\
        [--record BENCH_<n>.json]

For each of ``compose``, ``invert``, ``reduce``, ``graph``,
``covolume-table`` and ``verify-smallest``, starts ``python -m coloured_neretin.cli <command> ...``
as a fresh process in each checkout (``PYTHONPATH`` its ``src``),
``--pairs`` times, one process at a time, alternating which side runs
first (pair 0 parent first, pair 1 change first, ...), and times each
process from start to exit.  Each side compiles into its own
``PYTHONPYCACHEPREFIX``, empty when the tool starts, so both sides compile
their modules alike whatever ``__pycache__`` they hold; one untimed run of
each command per side fills it, so that the timed processes load bytecode,
as an installed command does; it is written there even when
``PYTHONDONTWRITEBYTECODE`` is set.  (An empty prefix per process would
compile the standard library in every process too, which no user pays on
every run.)  A command's arguments are its first entry in ``tools/census.py``,
and the element files are the first ``deep`` input pair of
``bench/inputs.py`` for the census seed, as in ``tools/outputs.py``.

Each timed process is kept as a run of ``tools/bench_pairs.py``'s schema,
its command as the workload and its seconds as the metric ``wall_s``, and
is summarised by that tool: per command, each side's median and quartiles
in seconds, the change of the median, the pairs in which the change's
process was faster and a verdict, ``gain`` (at least nine tenths of the
pairs won and the medians apart by more than the parent's quartile spread)
or ``same``.  With ``--record``, the runs and that summary are stored under
the key ``cli_time`` of the given JSON file (made if missing), for instance
the ``BENCH_<n>.json`` of the same change's ``tools/bench_pairs.py`` runs.
A process that exits non-zero stops the tool with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from bench_pairs import format_row, revision, summarise
from census import SEED, cli_commands, inputs

COMMANDS = ("compose", "invert", "reduce", "graph", "covolume-table", "verify-smallest")


def time_once(checkout, argv, workdir, cache):
    """Seconds from start to exit of one CLI process in ``checkout`` that
    keeps its bytecode under ``cache``."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache, PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the bytecode goes to the tool's own prefix
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "coloured_neretin.cli", *argv],
                          cwd=workdir, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s: %s exited with %d: %s" % (
            checkout, " ".join(argv), proc.returncode, proc.stderr.strip()[-500:]))
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", help="JSON file to store the runs in, under cli_time")
    args = parser.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        caches = {side: os.path.join(workdir, "pycache-" + side) for side in sides}
        for cache in caches.values():
            os.mkdir(cache)
        first, second = inputs.write_pairs(inputs.deep_inputs(SEED, 1), workdir)[0]
        known = {}
        for command in cli_commands(workdir, first, second):
            known.setdefault(command[0], command)
        for name in COMMANDS:
            for side in sides:  # untimed: fills the side's bytecode cache
                time_once(sides[side], known[name], workdir, caches[side])
            for pair in range(args.pairs):
                first_side = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in first_side:
                    seconds = time_once(sides[side], known[name], workdir, caches[side])
                    runs.append({"order": len(runs) + 1, "workload": name, "seed": SEED,
                                 "side": side, "pair": pair,
                                 "result": {"metrics": {"wall_s": {"value": seconds}}}})
    rows = summarise(runs, {"wall_s": {"better": "lower", "bound": None}})
    for row in rows:
        print(format_row(row))
    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record) as handle:
                record = json.load(handle)
        record["cli_time"] = {
            "parent": revision(sides["parent"]),
            "change": revision(sides["change"]),
            "command": "python -m coloured_neretin.cli <command> <arguments of tools/census.py>",
            "machine": "%s, %d cores, Python %s"
            % (platform.platform(), os.cpu_count() or 0, platform.python_version()),
            "protocol": "one process at a time; consecutive pairs alternate which side "
            "runs first; each side keeps its bytecode in its own PYTHONPYCACHEPREFIX, "
            "empty at the start and filled by one untimed run per command",
            "runs": runs,
            "summary": rows,
        }
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
        print("wrote %s" % args.record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
