"""Oracle for ``coloured_neretin.almost_automorphisms.compose``.

``seed_composite_pairs`` is the common refinement as ``compose`` found it
before the single merge of the two sorted leaf lists: each middle leaf is
found by looking up the prefixes of one leaf in the other tree's index.
The merge must give the same unreduced leaf map.
"""

from conftest import leaf_map


def seed_composite_pairs(a, b):
    """The leaf map of a after b on the common refinement of b's range and
    a's domain, unreduced.

    Its leaves (the middle leaves) are the longer of each comparable pair
    of a range leaf t of b and a domain leaf s of a.  A middle leaf m below
    t and s comes from b^{-1}(t) followed by the tail of m below t,
    transported, and goes to a(s) followed by the tail of m below s,
    transported.
    """
    middle = {t: t for t in b.range.leaves if a.domain.leaf_containing(t) is not None}
    for s in a.domain.leaves:
        t = b.range.leaf_containing(s)
        if t is not None:
            middle[s] = t
    b_inverse = {w: v for v, w in leaf_map(b).items()}
    a_map = leaf_map(a)
    pairs = {}
    for m, t in middle.items():
        u, s = b_inverse[t], a.domain.leaf_containing(m)
        image = a_map[s]
        source = u + a.plane.transport_tail(t[-1], u[-1], m[len(t):])
        pairs[source] = image + a.plane.transport_tail(s[-1], image[-1], m[len(s):])
    return pairs
