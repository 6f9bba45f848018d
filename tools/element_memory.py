"""The memory that the ``deep`` workload's set-up holds, under tracemalloc,
in a parent checkout and this one.

    python3 tools/element_memory.py --against DIR [--pairs 3] [--seed 23] \\
        [--record BENCH_<n>.json]

Each run is a fresh process of ``tools/bench_pairs.py``'s ``start``, with
the checkout's ``src`` and ``bench`` on its path and an empty bytecode
prefix of its own, so that, as in the benchmark, the package compiles
from source.  It makes ``INPUTS`` pairs of ``deep``'s inputs (125, the
benchmark's 25 s run, 250 element files), starts tracemalloc and runs the
workload's ``setup``: the package import, F, the shift space and the
decoded elements.  It reads the traced memory held once the set-up
returns, then drops the decoded elements and reads what they alone held.

The runs alternate between the parent checkout ``--against`` and this one
in ``bench_pairs``' order, ``--pairs`` pairs of them.  Each run is a run
record of ``bench_pairs`` with the metrics ``setup_mib`` and
``elements_mib``, and the tool prints ``bench_pairs``' summary of them,
with a verdict against a bound of 0.1, as that of ``peak_rss_mb`` in
``BENCHMARK.json``; a ``gain`` needs a median lower by more than 1 KiB.
``--record`` stores the runs and the summary under the key
``element_memory``.
"""

from __future__ import annotations

import json
import sys

from bench_pairs import command_line, conclude, paired, result, sides, start, summarise

MIB = 1 << 20
INPUTS = 125
# runs of one checkout differ by up to a few hundred bytes, so a gain must
# pass 1 KiB
BOUNDS = {name: {"better": "lower", "bound": 0.1, "resolution": 1 / 1024}
          for name in ("setup_mib", "elements_mib")}

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


def probe(checkout, seed, inputs=INPUTS):
    """{"setup": bytes, "elements": bytes} of one fresh set-up in ``checkout``."""
    proc, _ = start(checkout, [sys.executable, "-c", PROBE, str(seed), str(inputs)], "the probe")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = command_line(__doc__, pairs=3, record="element_memory")
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)
    checkouts = sides(args)

    def measure(side):
        held = probe(checkouts[side], args.seed)
        return result({"setup_mib": held["setup"] / MIB, "elements_mib": held["elements"] / MIB})

    runs = list(paired(checkouts, args.pairs, "deep", args.seed, measure))
    conclude(args, "element_memory", runs, summarise(runs, BOUNDS),
             "python -c <PROBE of tools/element_memory.py> <seed> %d" % INPUTS,
             "each run has an empty bytecode prefix of its own and writes no bytecode")
    return 0


if __name__ == "__main__":
    sys.exit(main())
