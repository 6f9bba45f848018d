"""Build times of the stabilizer chain on a fixed panel of colour groups.

    python3 tools/chain_panel.py [--src DIR] [--groups NAME,...]

Prints one JSON line per panel group: its name, the median wall time in
milliseconds of five closures of its generators (``closure_enumerate``),
and the order of the group built, with whether it equals the group's
closed form (the tool exits 1 when one does not).  ``--src`` imports ``coloured_neretin`` from
another checkout's ``src`` directory, so two checkouts can be timed by the
same panel:

    python3 tools/chain_panel.py --src ../other-checkout/src

``--groups`` times only the named groups, for a checkout on which some
of them take minutes.

The panel has groups that reach the chain's order bound (Sym(7), and
Sym(n) and Alt(n) for n = 50, 100, 200, each from two generators) and
groups below it (three wreath products with a cyclic top group, the affine
group of the line over F_61, and a cyclic group of degree 2001).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from math import factorial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cycle(*points):
    return [tuple(points)]


def images_of(cycles, degree):
    images = list(range(degree))
    for cyc in cycles:
        for i, point in enumerate(cyc):
            images[point] = cyc[(i + 1) % len(cyc)]
    return images


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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src directory to import coloured_neretin from")
    parser.add_argument("--groups", default=",".join(PANEL),
                        help="comma-separated panel names (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from coloured_neretin import Permutation, closure_enumerate

    status = 0
    for name in args.groups.split(","):
        cycles, degree, expected = PANEL[name]
        generators = [Permutation(images_of(cyc, degree)) for cyc in cycles]
        times = []
        for _ in range(5):
            start = time.perf_counter()
            group = closure_enumerate(generators, degree)
            times.append(time.perf_counter() - start)
        status |= group.order != expected
        print(json.dumps({
            "group": name,
            "median_ms": round(1000 * statistics.median(times), 3),
            "order": group.order,
            "closed_form": group.order == expected,
        }), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
