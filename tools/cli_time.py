"""Paired wall times of one-command CLI processes in a parent and a change
checkout.

    python3 tools/cli_time.py --parent DIR --change DIR [--pairs 10] \\
        [--record BENCH_<n>.json]

For each of ``compose``, ``invert``, ``reduce``, ``graph``,
``covolume-table`` and ``verify-smallest``, starts ``python -m coloured_neretin.cli <command> ...``
as a fresh process in each checkout (``tools/bench_pairs.py``'s ``start``),
``--pairs`` times, one process at a time, in ``bench_pairs``' alternating
order, and times each process from start to exit.  As in
``tools/tier1_time.py``, each side compiles into its own bytecode prefix,
empty when the tool starts, so both sides compile their modules alike whatever
``__pycache__`` they hold; one untimed run of each command per side fills
it, so that the timed processes load bytecode, as an installed command
does.  (An empty prefix per process would compile the standard library in
every process too, which no user pays on every run.)  A command's
arguments are its first entry in ``tools/census.py``, and the element
files are the first ``deep`` input pair of ``bench/inputs.py`` for the
census seed, as in ``tools/outputs.py``.

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
import sys
import tempfile

from bench_pairs import alternate, at_least_one, format_row, header, revision, start, summarise
from census import SEED, cli_commands, inputs

COMMANDS = ("compose", "invert", "reduce", "graph", "covolume-table", "verify-smallest")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=at_least_one, default=10)
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
            what = " ".join(known[name])
            argv = [sys.executable, "-m", "coloured_neretin.cli", *known[name]]
            for side in sides:  # untimed: fills the side's bytecode cache
                start(sides[side], argv, what, workdir, caches[side])
            for pair, side in alternate(args.pairs, sides):
                seconds = start(sides[side], argv, what, workdir, caches[side])[1]
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
            "parent": revision(sides["parent"]), "change": revision(sides["change"]), **header(
                "python -m coloured_neretin.cli <command> <arguments of tools/census.py>",
                "each side keeps its bytecode in its own prefix, empty at the start and "
                "filled by one untimed run per command"), "runs": runs, "summary": rows}
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
        print("wrote %s" % args.record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
