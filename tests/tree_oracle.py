"""Oracle for ``coloured_neretin.tree``'s leaf-set check.

``seed_check_complete`` is ``_check_complete`` as it ran before a preorder
walk accepted sound leaf sets: the climb to the internal vertices, the
count of leaves against them and, on a defect, the ``Counter`` of covered
children, for every leaf set.  ``_check_complete`` must accept the same
sets and raise ``IncompleteTree`` with the same message on every other.
"""

from collections import Counter
from itertools import chain, islice

from coloured_neretin.tree import IncompleteTree, is_valid_address


def seed_check_complete(leaves, d):
    """Raise IncompleteTree unless the sorted ``leaves`` are the leaf set of
    a finite complete subtree.

    The internal vertices are the strict prefixes of leaves, collected by
    climbing from each leaf until a prefix is already known.  The climb
    also tests the no-repeat rule once per vertex: on each leaf's last edge
    and on each internal vertex as it is added.  A complete subtree with i
    internal vertices has (d-1)i + 2 leaves, none of them internal;
    otherwise the first defective internal vertex in preorder (plain tuple
    order) is reported.
    """
    if not leaves:
        raise IncompleteTree("empty leaf set")
    if leaves == [()]:
        raise IncompleteTree("the bare root is not a complete subtree")
    # the letters' range in one pass at C speed; the repeats in the climb
    valid = all(map(range(d + 1).__contains__, set(chain.from_iterable(leaves))))
    internal = set()
    for w in leaves:
        if len(w) >= 2 and w[-1] == w[-2]:
            valid = False
        for k in range(len(w) - 1, -1, -1):
            v = w[:k]
            if v in internal:
                break
            internal.add(v)
            if k >= 2 and v[-1] == v[-2]:
                valid = False
    if not valid:  # only names the first invalid leaf
        for w in leaves:
            if not is_valid_address(w, d):
                raise IncompleteTree("invalid address %r for d=%d" % (w, d))
    leaf_set = set(leaves)
    if len(leaf_set) != len(leaves):
        raise IncompleteTree("repeated leaf")
    if internal.isdisjoint(leaf_set) and len(leaves) == (d - 1) * len(internal) + 2:
        return
    covered = internal | leaf_set
    children = Counter(w[:-1] for w in covered if w)
    for v in sorted(internal):
        if v in leaf_set:
            raise IncompleteTree("leaf %r has descendants in the leaf set" % (v,))
        count = d + (not v) - children[v]  # the admissible colours not covered
        if count:
            raise IncompleteTree(
                "vertex %r is internal but covers no leaf through colours [%s]"
                % (v, ", ".join(map(str, _missing_colours(v, d, count, covered))))
            )


def _missing_colours(v, d, count, covered):
    """The ``count`` colours c of children v + (c,) missing from ``covered``:
    all of them up to five, else the first three, the count left out and
    the last two, found from both ends at a cost bounded by ``covered``."""

    def first(colours, n):
        gaps = (c for c in colours if (not v or c != v[-1]) and v + (c,) not in covered)
        return list(islice(gaps, n))

    if count <= 5:
        return first(range(d + 1), count)
    return first(range(d + 1), 3) + ["<%d more>" % (count - 5)] + first(range(d, -1, -1), 2)[::-1]
