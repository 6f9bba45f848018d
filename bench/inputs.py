"""Seeded element inputs for the benchmark, made without the package.

An element is written as the package's element file: ``d``,
``F_generators`` (cycle notation), the sorted ``domain`` and ``range`` leaf
addresses and ``kappa`` (``kappa[i]`` indexes the image of ``domain[i]`` in
``range``).

The generator starts from B_1 on both sides and repeatedly expands a
random domain leaf together with a random range leaf whose colour lies in
the same F-orbit.  Both expansions add one child of every colour but the
expanded leaf's own, so the per-orbit colour counts of the two sides stay
equal; a random orbit-respecting bijection then matches the leaves.  The
two sides grow independently, so the elements change depth.

Rebuild the inputs of a run from its seed with::

    python3 bench/inputs.py --workload deep --seed 1 --pairs 100 --out DIR

where ``--pairs`` is the run's number of measured ops (125 on deep, 112 on
neretin at 25 s).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

# The paper's four-orbit example F = <(1 2)(3 4), (5 6)>, d = 6.
FOUR_ORBIT = (6, ("(1 2)(3 4)", "(5 6)"))
# Neretin's group at d = 6: F = Sym(7) from a transposition and a 7-cycle.
SYM7_GENERATORS = ((0, 1), (0, 1, 2, 3, 4, 5, 6))

# deep: every element has 7 + 5 * 24 = 127 leaves before reduction; the
# composite of two has about 200 to 250.
DEEP_EXPANSIONS = 24
# neretin: every element has 7 + 5 * 6 = 37 leaves.
NERETIN_EXPANSIONS = 6


def parse_cycle_text(text, degree):
    """Image tuple of a permutation in cycle notation such as "(1 2)(3 4)"."""
    images = list(range(degree))
    for body in text.replace(")", "(").split("("):
        points = [int(tok) for tok in body.replace(",", " ").split()]
        for k, point in enumerate(points):
            images[point] = points[(k + 1) % len(points)]
    return tuple(images)


def orbit_index(generator_images, degree):
    """colour -> orbit number, orbits numbered by their least colour."""
    orbit_of = {}
    for start in range(degree):
        if start in orbit_of:
            continue
        label = len(set(orbit_of.values()))
        orbit_of[start] = label
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generator_images:
                if g[x] not in orbit_of:
                    orbit_of[g[x]] = label
                    frontier.append(g[x])
    return orbit_of


def _expand(leaves, leaf, d):
    leaves.remove(leaf)
    leaves.extend(leaf + (c,) for c in range(d + 1) if c != leaf[-1])
    leaves.sort()


def random_element(rng, d, generators, expansions):
    """Element dict over F = <generators> grown by ``expansions`` paired
    expansions; see the module docstring."""
    degree = d + 1
    orbit_of = orbit_index([parse_cycle_text(g, degree) for g in generators], degree)
    domain = [(c,) for c in range(degree)]
    range_ = [(c,) for c in range(degree)]
    for _ in range(expansions):
        v = domain[rng.randrange(len(domain))]
        same_orbit = [w for w in range_ if orbit_of[w[-1]] == orbit_of[v[-1]]]
        w = same_orbit[rng.randrange(len(same_orbit))]
        _expand(domain, v, d)
        _expand(range_, w, d)
    index = {w: k for k, w in enumerate(range_)}
    kappa = [None] * len(domain)
    for orbit in sorted(set(orbit_of.values())):
        src = [i for i, v in enumerate(domain) if orbit_of[v[-1]] == orbit]
        dst = [index[w] for w in range_ if orbit_of[w[-1]] == orbit]
        rng.shuffle(dst)
        for i, k in zip(src, dst):
            kappa[i] = k
    return {
        "d": d,
        "F_generators": list(generators),
        "domain": [list(v) for v in domain],
        "range": [list(w) for w in range_],
        "kappa": kappa,
    }


def relabelled_sym7(rng):
    """Generators of Sym(7) conjugated by a random relabelling of the colours."""
    relabel = list(range(7))
    rng.shuffle(relabel)
    return tuple(
        "(" + " ".join(str(relabel[x]) for x in cycle) + ")" for cycle in SYM7_GENERATORS
    )


def deep_inputs(seed, pairs):
    """``pairs`` pairs (a, b) over the four-orbit example."""
    rng = random.Random("deep:%d" % seed)
    d, generators = FOUR_ORBIT
    return [
        tuple(random_element(rng, d, generators, DEEP_EXPANSIONS) for _ in range(2))
        for _ in range(pairs)
    ]


def neretin_inputs(seed, pairs):
    """``pairs`` pairs (a, b) over Sym(7), each file relabelling the generators."""
    rng = random.Random("neretin:%d" % seed)
    return [
        tuple(random_element(rng, 6, relabelled_sym7(rng), NERETIN_EXPANSIONS) for _ in range(2))
        for _ in range(pairs)
    ]


def dumps(element):
    """Canonical bytes of an element file."""
    return json.dumps(element, sort_keys=True, separators=(",", ":"))


def write_pairs(pairs, directory):
    """Write pair i as ``<i>a.json`` and ``<i>b.json``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, pair in enumerate(pairs):
        names = []
        for tag, element in zip("ab", pair):
            path = os.path.join(directory, "%04d%s.json" % (i, tag))
            with open(path, "w") as handle:
                handle.write(dumps(element))
            names.append(path)
        paths.append(tuple(names))
    return paths


GENERATORS = {"deep": deep_inputs, "neretin": neretin_inputs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    paths = write_pairs(GENERATORS[args.workload](args.seed, args.pairs), args.out)
    print("wrote %d element files to %s" % (2 * len(paths), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
