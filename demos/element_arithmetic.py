"""Walkthrough: tree-pair elements and their arithmetic.

An element is a pair of finite complete subtrees of the coloured rooted
tree together with a colour-respecting bijection of their leaf sets.  This
script builds a few elements, composes and inverts them, reduces to the
canonical form, and shows how an element acts on long colour words.

Run:  python3 demos/element_arithmetic.py
"""

import random

from coloured_neretin import (
    closure_enumerate,
    compose,
    element_from_local_data,
    element_to_dict,
    from_cycles,
    identity_element,
    random_element,
    translation_element,
)


def banner(title):
    print()
    print("== %s ==" % title)


def main():
    # colour group <(1 2 3)> acting on colours {0,1,2,3}: two orbits,
    # {0} and {1,2,3}
    group = closure_enumerate([from_cycles([(1, 2, 3)], 4)])
    print("colour group of order %d with orbits %s" % (
        group.order, [tuple(o) for o in group.orbits]))

    banner("an element from local data")
    # rotate the colours below the root: the subtree hanging at colour 1
    # is carried onto the position of colour 2, and so on
    twist = from_cycles([(1, 2, 3)], 4)
    e = element_from_local_data(group, {(): twist})
    print("domain leaves:", e.domain.leaves)
    print("range  leaves:", e.range.leaves)
    for leaf in e.domain.leaves:
        print("  %s -> %s" % (leaf, e.leaf_image(leaf)))

    banner("composition and inverses")
    rng = random.Random(7)
    a = random_element(group, rng, 4)
    b = random_element(group, rng, 4)
    ab = compose(a, b)
    print("a has %d leaves, b has %d, a∘b has %d (already reduced)"
          % (len(a.domain.leaves), len(b.domain.leaves), len(ab.domain.leaves)))
    assert compose(ab, ab.inverse()) == identity_element(group)
    print("(a∘b)(a∘b)^-1 == identity: True")

    banner("action on colour words")
    word = (0, 1, 2, 3, 1, 2)
    image = ab.apply_to_prefix(word)
    print("a∘b maps %s to %s" % (word, image))
    print("b then a, step by step, agrees:",
          a.apply_to_prefix(b.apply_to_prefix(word)) == image)

    banner("reduction to canonical form")
    inflated = ab
    for _ in range(3):
        inflated = inflated.expand_at(rng.choice(inflated.domain.leaves))
    print("after 3 expansions: %d leaves" % len(inflated.domain.leaves))
    print("reduces back to a∘b:", inflated.reduce() == ab)

    banner("translations along the colour letters")
    # the letter maps x_i generate a free product of d+1 involutions;
    # translation_element realizes a reduced word as an element
    t = translation_element(group, (0, 1, 0))
    prefix = (0, 2, 0, 3)
    # the image is the free-product reduction of word + prefix
    print("t = x_0 x_1 x_0 maps prefix %s to %s"
          % (prefix, t.apply_to_prefix(prefix)))
    t2 = compose(t, t)
    print("t∘t is the identity (the word cancels):", t2.is_identity())

    banner("JSON serialization")
    print("a∘b as a dict has keys:", sorted(element_to_dict(ab)))


if __name__ == "__main__":
    main()
