"""Paired wall times of one-command CLI processes in a parent checkout and
this one.

    python3 tools/cli_time.py --against DIR [--pairs 10] [--record BENCH_<n>.json]

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

Each timed process is a run record, its command as the workload and its
seconds as the metric ``wall_s``.  Wall times carry per-process levels, so
``wall_s`` has no bound and the verdicts are ``gain`` or ``same``.  A
process that exits non-zero stops the tool with exit status 1.
"""

from __future__ import annotations

import os
import sys
import tempfile

from bench_pairs import command_line, conclude, paired, result, sides, start, summarise
from census import SEED, cli_commands, inputs

COMMANDS = ("compose", "invert", "reduce", "graph", "covolume-table", "verify-smallest")


def main(argv=None):
    args = command_line(__doc__, pairs=10, record="cli_time").parse_args(argv)
    checkouts = sides(args)
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        caches = {side: os.path.join(workdir, "pycache-" + side) for side in checkouts}
        first, second = inputs.write_pairs(inputs.deep_inputs(SEED, 1), workdir)[0]
        known = {command[0]: command for command in cli_commands(workdir, first, second)[::-1]}
        for name in COMMANDS:
            what = " ".join(known[name])
            argv = [sys.executable, "-m", "coloured_neretin.cli", *known[name]]

            def measure(side):
                return result({"wall_s": start(checkouts[side], argv, what, workdir,
                                               caches[side])[1]})

            for side in checkouts:  # untimed: fills the side's bytecode cache
                measure(side)
            runs += paired(checkouts, args.pairs, name, SEED, measure, len(runs))
    conclude(args, "cli_time", runs, summarise(runs, {}),
             "python -m coloured_neretin.cli <command> <arguments of tools/census.py>",
             "each side keeps its bytecode in its own prefix, empty at the start and "
             "filled by one untimed run per command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
