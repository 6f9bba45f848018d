"""Oracle for ``coloured_neretin.almost_automorphisms.TreePairElement.reduce``.

``seed_reduce_pairs`` is the reduction as ``reduce`` ran before its
candidates came from a count of the leaves' parents: every parent of a
leaf starts on a worklist, and the parent of each contracted vertex joins
it.  Both must reach the same reduced leaf map.
"""

from conftest import leaf_map


def seed_reduce_pairs(e):
    """The leaf map of the reduced form of ``e``, by exhaustive cherry
    contraction from a worklist of every parent of a leaf."""
    pairs = leaf_map(e)
    work = {v[:-1] for v in pairs if len(v) >= 2}
    while work:
        u = work.pop()
        children = e.plane.children(u)
        images = [pairs.get(c) for c in children]
        if None in images or images != e.plane.children(images[0][:-1]):
            continue
        for child in children:
            del pairs[child]
        pairs[u] = images[0][:-1]
        if len(u) >= 2:
            work.add(u[:-1])
    return pairs
