"""Walkthrough: coding the tree boundary as a shift of finite type.

The boundary of the coloured tree is homeomorphic to the path space of a
small directed graph built from the colour orbits.  Under that coding,
every tree-pair element becomes a "bisection": a finite list of
prefix-replacement rules between cylinder sets of equal total mass.  This
script builds the graph, codes a few elements, and checks that
composition can be carried out entirely on the coded side.

Run:  python3 demos/shift_coding.py
"""

import random

from coloured_neretin import (
    Omega,
    bisection_to_element,
    build_sft_graph,
    compose,
    compose_bisections,
    cylinder_mass,
    dot_export,
    element_to_bisection,
    random_bisection,
    random_element,
)


def main():
    sizes = (1, 3, 2)
    graph = build_sft_graph(sizes)
    print("orbit sizes %s -> graph with %d vertices and %d edges"
          % (sizes, len(graph.vertices), len(graph.edges())))
    print("adjacency matrix:")
    print(graph.matrix)
    print()
    print("DOT export starts with:", dot_export(graph).splitlines()[0])

    omega = Omega(graph)
    group = omega.group
    print()
    print("boundary model over the orbit-preserving group of order %d"
          % len(group))
    omega.check_depth(3)
    print("depth-3 consistency check passed "
          "(colour words <-> graph paths bijectively)")

    print()
    print("== coding an element ==")
    rng = random.Random(11)
    e = random_element(group, rng, 4)
    b = element_to_bisection(e, omega)
    print("element with %d leaves becomes %d prefix-replacement pairs:"
          % (len(e.domain.leaves), len(b.pairs)))
    for source, offset, target in b.pairs[:6]:
        print("  %-18s -> %-18s (offset %+d, mass %s)"
              % (source, target, offset,
                 cylinder_mass(source, graph)))
    if len(b.pairs) > 6:
        print("  ... (%d more)" % (len(b.pairs) - 6))
    back = bisection_to_element(b, omega)
    print("decoding returns the same element:", back == e)

    print()
    print("== composing on the coded side ==")
    b1 = random_bisection(omega, rng, 3)
    b2 = random_bisection(omega, rng, 3)
    coded = compose_bisections(b1, b2, graph)
    direct = compose(bisection_to_element(b1, omega),
                     bisection_to_element(b2, omega))
    print("compose_bisections agrees with element composition:",
          bisection_to_element(coded, omega) == direct)


if __name__ == "__main__":
    main()
