"""Shared constructors for the test suite."""

from coloured_neretin import (
    CompleteSubtree,
    closure_enumerate,
    parse_cycles,
)


def group_from(cycle_texts, degree):
    gens = [parse_cycles(text, degree) for text in cycle_texts]
    return closure_enumerate(gens, degree)


def rotation_group():
    # orbits {0}, {1,2,3} on four colours
    return group_from(["(1 2 3)"], 4)


def switch_group():
    # single switch: orbits {0}, {1,2}, {3}
    return group_from(["(1 2)"], 4)


def four_orbit_group():
    # orbits {0}, {1,2}, {3,4}, {5,6} on seven colours
    return group_from(["(1 2)(3 4)", "(5 6)"], 7)


def transitive_group(degree):
    return group_from(["(%s)" % " ".join(str(c) for c in range(degree))], degree)


def small_trivial(d=2):
    return closure_enumerate([], d + 1)


def sym_group(degree):
    # the full symmetric group: Neretin's own case
    return group_from(["(0 1)", "(%s)" % " ".join(str(c) for c in range(degree))], degree)


def closure_oracle(generators, degree):
    """Every element of <generators> as an image tuple, sorted, by
    breadth-first closure: an enumeration independent of the stabilizer
    chain."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    for x in frontier:
        for g in generators:
            y = tuple(map(g.images.__getitem__, x))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def random_complete_tree(d, rng, expansions):
    """B_1 followed by ``expansions`` simple expansions, each at a uniform leaf."""
    tree = CompleteSubtree.ball(d, 1)
    for _ in range(expansions):
        tree = tree.expand(tree.leaves[rng.randrange(len(tree.leaves))])
    return tree


def tree_depth(tree):
    return max(map(len, tree.leaves))


def random_word(rng, d, length):
    """A random no-repeat colour word of the given length."""
    word = []
    for _ in range(length):
        word.append(rng.choice([c for c in range(d + 1) if not word or c != word[-1]]))
    return tuple(word)


def assert_complete(*elements):
    """The domain and range of each element are complete leaf sets, and its
    leaf map takes the domain leaves onto the range leaves within the orbits
    of F (the element algebra builds its trees and maps without checking
    them)."""
    for e in elements:
        CompleteSubtree(e.group.d, e.domain.leaves)
        CompleteSubtree(e.group.d, e.range.leaves)
        assert sorted(e._map) == list(e.domain.leaves)
        assert sorted(e._map.values()) == list(e.range.leaves)
        orbit_of = e.group.orbit_of
        assert all(orbit_of[v[-1]] == orbit_of[w[-1]] for v, w in e._map.items())
