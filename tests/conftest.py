"""Shared constructors for the test suite."""

from coloured_neretin import closure_enumerate, make_element, parse_cycles, trivial_group


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
    return trivial_group(d + 1)


def sym_group(degree):
    # the full symmetric group: Neretin's own case
    return group_from(["(0 1)", "(%s)" % " ".join(str(c) for c in range(degree))], degree)


def random_word(rng, d, length):
    """A random no-repeat colour word of the given length."""
    word = []
    for _ in range(length):
        word.append(rng.choice([c for c in range(d + 1) if not word or c != word[-1]]))
    return tuple(word)


def depth_changing_element(group, rng, expansions):
    """Random element whose domain and range grow independently.

    Each step expands a random domain leaf and a random range leaf whose
    colour lies in the same orbit; both sides gain one child of every other
    colour, so the per-orbit colour counts stay equal, and a shuffled
    orbit-respecting matching pairs the leaves.  Unlike ``random_element``
    (lockstep expansions), this reaches elements that change depth, which
    over a trivial colour group are the only non-identity elements.
    """
    d, orbit_of = group.d, group.orbit_of
    sides = [[(c,) for c in range(d + 1)], [(c,) for c in range(d + 1)]]
    for _ in range(expansions):
        v = rng.choice(sides[0])
        w = rng.choice([u for u in sides[1] if orbit_of[u[-1]] == orbit_of[v[-1]]])
        for leaves, leaf in zip(sides, (v, w)):
            leaves.remove(leaf)
            leaves.extend(leaf + (c,) for c in range(d + 1) if c != leaf[-1])
    domain, range_ = sides
    pairs = {}
    for orbit in range(len(group.orbits)):
        targets = [w for w in range_ if orbit_of[w[-1]] == orbit]
        rng.shuffle(targets)
        sources = [v for v in domain if orbit_of[v[-1]] == orbit]
        pairs.update(zip(sources, targets))
    return make_element(domain, range_, pairs, group)
