"""Oracle for ``coloured_neretin.almost_automorphisms.random_element``.

``seed_random_element`` is the draw as ``random_element`` made it before it
kept the range leaves per orbit: each step scans the whole range for the
leaves of the domain leaf's orbit and removes the drawn leaves by value.
Both take the same random numbers in the same order, so from equal
generators they give the same element with the same leaf order.
"""

from coloured_neretin.almost_automorphisms import _from_pairs
from coloured_neretin.tree import admissible_child_colours


def seed_random_element(group, rng, expansions=6):
    d, orbit_of = group.d, group.orbit_of
    sides = [[(c,) for c in range(d + 1)], [(c,) for c in range(d + 1)]]
    for _ in range(expansions):
        v = rng.choice(sides[0])
        w = rng.choice([u for u in sides[1] if orbit_of[u[-1]] == orbit_of[v[-1]]])
        for leaves, leaf in zip(sides, (v, w)):
            leaves.remove(leaf)
            leaves.extend(leaf + (c,) for c in admissible_child_colours(leaf, d))
    domain, range_ = sides
    pairs = {}
    for orbit in range(len(group.orbits)):
        targets = [w for w in range_ if orbit_of[w[-1]] == orbit]
        rng.shuffle(targets)
        sources = [v for v in domain if orbit_of[v[-1]] == orbit]
        pairs.update(zip(sources, targets))
    return _from_pairs(group, pairs).reduce()
