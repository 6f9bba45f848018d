"""The memory that the ``deep`` workload's set-up holds, under tracemalloc.

    python3 tools/element_memory.py [--runs 3] [--seed 23] [--pairs 125] [--against DIR]

Each run is a fresh process of ``tools/bench_pairs.py``'s ``start``, with
the checkout's ``src`` and ``bench`` on its path and an empty bytecode
prefix of its own, so that, as in the benchmark, the package compiles
from source.  It makes
``--pairs`` pairs of ``deep``'s inputs (``--pairs 125`` is the benchmark's
25 s run, 250 element files), starts tracemalloc and runs the workload's
``setup``: the package import, F, the shift space and the decoded
elements.  It reads the traced memory held once the set-up returns, then
drops the decoded elements and reads what they alone held.

With ``--against DIR`` (another checkout, such as the parent commit's) the
runs alternate between the two checkouts in ``bench_pairs``' order (this,
DIR, DIR, this, this, DIR, ...), so that a drift in the machine's load
falls on both.  The tool prints one line per run and one per side with the
medians, in MiB, and, with ``--against``, the change from DIR to this
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from bench_pairs import alternate, at_least_one, start

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIB = 1 << 20

# prints the bytes the set-up holds and those its decoded elements hold
PROBE = """
import gc, json, sys, tracemalloc
sys.path.insert(0, "bench")
from workloads import Deep
workload = Deep(int(sys.argv[1]), int(sys.argv[2]), "")
gc.collect()
tracemalloc.start()
workload.setup()
gc.collect()
held = tracemalloc.get_traced_memory()[0]
workload.elements = None
gc.collect()
print(json.dumps({"setup": held, "elements": held - tracemalloc.get_traced_memory()[0]}))
"""


def record(checkout, seed, pairs):
    """{"setup": bytes, "elements": bytes} of one fresh set-up in ``checkout``."""
    proc, _ = start(checkout, [sys.executable, "-c", PROBE, str(seed), str(pairs)], "the probe")
    return json.loads(proc.stdout.splitlines()[-1])


def medians(records):
    return {key: statistics.median(r[key] for r in records) / MIB for key in ("setup", "elements")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=at_least_one, default=3, help="runs per checkout")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--pairs", type=at_least_one, default=125, help="pairs of deep's inputs")
    parser.add_argument("--against", help="another checkout, run alternately with this one")
    args = parser.parse_args(argv)
    checkouts = {"this": ROOT}
    if args.against:
        checkouts["against"] = os.path.abspath(args.against)
    seen = {side: [] for side in checkouts}
    for _, side in alternate(args.runs, checkouts):
        result = record(checkouts[side], args.seed, args.pairs)
        seen[side].append(result)
        print("%s: set-up holds %.3f MiB, the decoded elements %.3f MiB"
              % (side, result["setup"] / MIB, result["elements"] / MIB))
    summary = {side: medians(records) for side, records in seen.items()}
    for side, values in summary.items():
        print("%s (%s), median of %d: set-up %.3f MiB, elements %.3f MiB"
              % (side, checkouts[side], args.runs, values["setup"], values["elements"]))
    if args.against:
        this, against = summary["this"], summary["against"]
        print("against -> this: set-up %+.3f MiB, elements %+.3f MiB"
              % (this["setup"] - against["setup"], this["elements"] - against["elements"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
