"""Build times of the stabilizer chain on a fixed panel of colour groups,
in a parent checkout and this one.

    python3 tools/chain_panel.py --against DIR [--groups NAME,...] \\
        [--record BENCH_<n>.json]

For each panel group, makes ``PAIRS`` (5) pairs of runs in the parent
checkout ``--against`` and in this one, in ``tools/bench_pairs.py``'s
alternating order.  Each run is a fresh process of ``bench_pairs``'
``start``, with an empty bytecode prefix of its own, that closes the
group's generators once (``closure_enumerate``) and gives the wall time of
that closure in milliseconds as the metric ``closure_ms`` of its run
record.  A group whose order is not its closed form ends the process with
a non-zero exit, which stops the tool with exit status 1.  The tool prints
``bench_pairs``' summary, one row per group; wall times carry per-process
levels, so the rows have no bound, and the verdicts are ``gain`` or
``same``.  ``--record`` stores the runs and the summary under the key
``chain_panel``.

``--groups`` times only the named groups, for a checkout on which some
of them take minutes.

The panel has groups that reach the chain's order bound (Sym(7), and
Sym(n) and Alt(n) for n = 50, 100, 200, each from two generators) and
groups below it (three wreath products with a cyclic top group, the affine
group of the line over F_61, and a cyclic group of degree 2001).
"""

from __future__ import annotations

import json
import sys
from math import factorial

from bench_pairs import command_line, conclude, paired, result, sides, start, summarise

PAIRS = 5

# prints the milliseconds of one closure; an order other than the closed form exits 1
PROBE = """
import json, sys, time
from coloured_neretin import closure_enumerate, from_cycles
cycles, degree, expected = json.loads(sys.argv[1])
generators = [from_cycles(cyc, degree) for cyc in cycles]
begin = time.perf_counter()
group = closure_enumerate(generators, degree)
seconds = time.perf_counter() - begin
if group.order != expected:
    sys.exit("order %d, closed form %d" % (group.order, expected))
print(json.dumps(1000 * seconds))
"""


def cycle(*points):
    return [tuple(points)]


def symmetric(n):
    """(0 1) and the n-cycle."""
    return [cycle(0, 1), cycle(*range(n))], n, factorial(n)


def alternating(n):
    """(0 1 2) and an odd-length cycle: (0 1 ... n-1) for odd n,
    (1 2 ... n-1) for even n."""
    long_cycle = cycle(*range(n)) if n % 2 else cycle(*range(1, n))
    return [cycle(0, 1, 2), long_cycle], n, factorial(n) // 2


def wreath(base_cycles, base_order, block, blocks):
    """The base group acting on block 0 of ``blocks`` consecutive blocks of
    size ``block``, with the cyclic top group shifting block i to i + 1."""
    degree = block * blocks
    shift = [tuple(b * block + x for b in range(blocks)) for x in range(block)]
    return base_cycles + [shift], degree, base_order**blocks * blocks


def affine_line(p, root):
    """AGL1(p) = AGL(1, p): x -> x + 1 and x -> root * x on Z/p, ``root`` a primitive root."""
    scale = []
    x = 1
    for _ in range(p - 1):
        scale.append(x)
        x = x * root % p
    return [cycle(*range(p)), [tuple(scale)]], p, p * (p - 1)


PANEL = {
    "Sym(7)": symmetric(7),
    **{"Sym(%d)" % n: symmetric(n) for n in (50, 100, 200)},
    **{"Alt(%d)" % n: alternating(n) for n in (50, 100, 200)},
    "C2 wr C30": wreath([cycle(0, 1)], 2, 2, 30),
    "Sym(6) wr C10": wreath([cycle(0, 1), cycle(*range(6))], 720, 6, 10),
    "Sym(3) wr C20": wreath([cycle(0, 1), cycle(0, 1, 2)], 6, 3, 20),
    "AGL1(61)": affine_line(61, 2),
    "C2001": ([cycle(*range(2001))], 2001, 2001),
}


def main(argv=None):
    parser = command_line(__doc__, record="chain_panel")
    parser.add_argument("--groups", default=",".join(PANEL),
                        help="comma-separated panel names (default: all)")
    args = parser.parse_args(argv)
    names = args.groups.split(",")
    unknown = sorted(set(names) - set(PANEL))
    if unknown:
        parser.error("--groups: not in the panel: %s" % ", ".join(unknown))
    checkouts = sides(args)
    runs = []
    for name in names:
        cycles, degree, expected = PANEL[name]
        command = [sys.executable, "-c", PROBE, json.dumps([cycles, degree, expected])]

        def measure(side):
            proc, _ = start(checkouts[side], command, "the probe of %s" % name)
            return result({"closure_ms": json.loads(proc.stdout)})

        runs += paired(checkouts, PAIRS, name, "-", measure, len(runs))
    conclude(args, "chain_panel", runs, summarise(runs, {}),
             "python -c <PROBE of tools/chain_panel.py> <generators, degree, order>",
             "each run has an empty bytecode prefix of its own and writes no bytecode")
    return 0


if __name__ == "__main__":
    sys.exit(main())
