"""The coloured rooted (d+1)-regular tree.

Vertices are addresses: tuples of colours with no two consecutive letters
equal (an edge never repeats the colour of the parent edge).  The empty
tuple is the root.  A nonroot vertex is coloured by its last letter.

A ``PlaneOrder`` fixes, for a colour group F, the canonical planar embedding:
children of the root are ordered by colour, children of a vertex coloured
chi are ordered by the image of their colour under a canonical map
f_chi in F taking chi to its orbit representative.  The induced total
order on vertices ("descendants first, then branch order") is what every
canonical form in the library hangs off.
"""

from __future__ import annotations

import weakref
from itertools import chain
from operator import getitem


class IncompleteTree(ValueError):
    """A leaf set that is not the leaf set of a finite complete subtree."""


def is_valid_address(word, d):
    """No-repeat colour word over {0..d}."""
    word = tuple(word)
    for i, c in enumerate(word):
        if not 0 <= c <= d:
            return False
        if i > 0 and word[i - 1] == c:
            return False
    return True


def check_address(word, d):
    word = tuple(word)
    if not is_valid_address(word, d):
        raise ValueError("invalid vertex address %r for d=%d" % (word, d))
    return word


def admissible_child_colours(v, d):
    """Colours available on edges below v: everything except col(v)."""
    if not v:
        return list(range(d + 1))
    return [c for c in range(d + 1) if c != v[-1]]


def is_prefix(u, v):
    return len(u) <= len(v) and tuple(v[: len(u)]) == tuple(u)


def sphere(d, n):
    """All 'No-repeat' words of length n, in plain tuple order ((d+1)d^(n-1) of them)."""
    if n == 0:
        return [()]
    words = [(c,) for c in range(d + 1)]
    for _ in range(n - 1):
        words = [w + (c,) for w in words for c in range(d + 1) if c != w[-1]]
    return words


class PlaneOrder:
    """Canonical planar embedding of the coloured tree for a colour group F.

    orbit representatives: minimal colour of each orbit.
    canonical maps: f_chi = the first element of F (in image-tuple order)
    with f_chi(chi) = representative, found by a descent of F's stabilizer
    chain (``ColourGroup.least_element_mapping``) without listing F; the
    identity is first in that order, so a representative gets F's shared
    identity without a descent.

    The plane stores ``canonical_maps`` (colour -> f_chi) and two lists
    indexed by colour: ``_images[chi]``, the image tuple of f_chi, and
    ``_inverse_images[chi]``, that of f_chi^{-1}.  Child orders, label words
    and transports read only the two lists.
    """

    def __init__(self, group):
        self.d = group.d
        ident = group.identity()
        self.canonical_maps = {
            chi: ident if chi == orbit[0] else group.least_element_mapping(chi, orbit[0])
            for orbit in group.orbits
            for chi in orbit
        }
        maps = [self.canonical_maps[chi] for chi in range(self.d + 1)]
        self._images = [f.images for f in maps]
        self._inverse_images = [
            ident.images if f is ident else f.inverse().images for f in maps
        ]

    def children(self, v):
        """The children of v, in plane order: f_col(v)^{-1} read in order."""
        v = tuple(v)
        if not v:
            return [(c,) for c in range(self.d + 1)]
        return [v + (c,) for c in self._inverse_images[v[-1]] if c != v[-1]]

    def transport_tail(self, src_colour, dst_colour, tail):
        """Image of the relative address ``tail`` under the canonical
        order-preserving isomorphism from the subtree below a src-coloured
        vertex to the subtree below a dst-coloured vertex: a letter c below
        an a-coloured vertex goes to f_b^{-1}(f_a(c)) below a b-coloured one.
        A nonempty tail needs a and b in one orbit, where f_a(a) = f_b(b).
        """
        images, inverses = self._images, self._inverse_images
        a, b = src_colour, dst_colour
        if tail and images[a][a] != images[b][b]:
            raise ValueError("colours %d and %d lie in different orbits" % (a, b))
        out = []
        for c in tail:
            b = inverses[b][images[a][c]]
            out.append(b)
            a = c
        return tuple(out)

    def label_word(self, v):
        """Plane positions along v: the first letter, then f_{v[i-1]}(v[i]).

        Each label ranks a letter among its siblings, so comparing label
        words compares branches in plane order.
        """
        if not v:
            return ()
        return (v[0],) + tuple(map(getitem, map(self._images.__getitem__, v), v[1:]))

    def address_of(self, labels):
        """Inverse of ``label_word``."""
        if not labels:
            return ()
        inverses = self._inverse_images
        a = labels[0]
        word = [a]
        for label in labels[1:]:
            a = inverses[a][label]
            word.append(a)
        return tuple(word)

    def lex_key(self, v):
        """Sort key of the plane order: the label word of v followed by the
        sentinel d+1, so that strict descendants come first."""
        return self.label_word(tuple(v)) + (self.d + 1,)

    def lex_sorted(self, addresses):
        return sorted((tuple(v) for v in addresses), key=self.lex_key)


class CompleteSubtree:
    """A finite complete subtree, encoded by its leaf set.

    Leaves are stored sorted in plain tuple order (deterministic and
    independent of any colour group); use PlaneOrder.lex_sorted for the
    planar order when it matters.  The constructor validates the leaf set;
    ``_trusted`` builds, unchecked, the trees derived from validated ones.
    """

    __slots__ = ("d", "leaves", "_index")

    def __init__(self, d, leaves):
        leaves = sorted(tuple(w) for w in leaves)
        _check_complete(leaves, d)
        self.d, self.leaves = d, tuple(leaves)
        self._index = {w: i for i, w in enumerate(self.leaves)}

    @classmethod
    def _trusted(cls, d, leaves):
        tree = cls.__new__(cls)
        tree.d, tree.leaves = d, tuple(sorted(leaves))
        tree._index = {w: i for i, w in enumerate(tree.leaves)}
        return tree

    @classmethod
    def ball(cls, d, n):
        """B_n: all addresses of length exactly n as leaves (n >= 1)."""
        if n < 1:
            raise ValueError("a complete subtree has depth at least 1")
        return cls._trusted(d, sphere(d, n))

    def __len__(self):
        return len(self.leaves)

    def __eq__(self, other):
        return (
            isinstance(other, CompleteSubtree)
            and self.d == other.d
            and self.leaves == other.leaves
        )

    def __hash__(self):
        return hash((self.d, self.leaves))

    def __contains__(self, leaf):
        return tuple(leaf) in self._index

    def leaf_index(self, leaf):
        return self._index[tuple(leaf)]

    def leaf_containing(self, word):
        """The unique leaf that is a prefix of ``word`` (which must be at
        least that deep), or None if ``word`` is a strict prefix of leaves."""
        word = tuple(word)
        for k in range(len(word) + 1):
            if word[:k] in self._index:
                return word[:k]
        return None

    def expand(self, leaf):
        """Simple expansion: replace ``leaf`` by its d children."""
        leaf = tuple(leaf)
        if leaf not in self._index:
            raise ValueError("leaf %r not in tree" % (leaf,))
        assert leaf, "the root is never a leaf of a complete subtree"
        new = [w for w in self.leaves if w != leaf]
        new.extend(leaf + (c,) for c in admissible_child_colours(leaf, self.d))
        return CompleteSubtree._trusted(self.d, new)

    def contract(self, parent):
        """Inverse of expand: all children of ``parent`` must be leaves."""
        parent = tuple(parent)
        children = [parent + (c,) for c in admissible_child_colours(parent, self.d)]
        if not all(c in self._index for c in children):
            raise ValueError("not all children of %r are leaves" % (parent,))
        if not parent:
            raise IncompleteTree("the bare root is not a complete subtree")
        new = [w for w in self.leaves if w not in set(children)]
        new.append(parent)
        return CompleteSubtree._trusted(self.d, new)

    def __repr__(self):
        return "CompleteSubtree(d=%d, %d leaves)" % (self.d, len(self.leaves))


def _check_complete(leaves, d):
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
    for v in sorted(internal):
        if v in leaf_set:
            raise IncompleteTree("leaf %r has descendants in the leaf set" % (v,))
        missing = [
            c
            for c in admissible_child_colours(v, d)
            if v + (c,) not in internal and v + (c,) not in leaf_set
        ]
        if missing:
            if len(missing) > 5:  # the first three, the count left out, the last two
                missing[3:-2] = ["<%d more>" % (len(missing) - 5)]
            raise IncompleteTree(
                "vertex %r is internal but covers no leaf through colours [%s]"
                % (v, ", ".join(map(str, missing)))
            )


def is_complete_leafset(leaves, d):
    """True iff ``leaves`` is prefix-free and covering (and not just the root)."""
    try:
        _check_complete(sorted(tuple(w) for w in leaves), d)
    except IncompleteTree:
        return False
    return True


_PLANE_CACHE = weakref.WeakKeyDictionary()


def plane_for(group):
    """The PlaneOrder of a colour group, cached per group object."""
    try:
        return _PLANE_CACHE[group]
    except KeyError:
        plane = PlaneOrder(group)
        _PLANE_CACHE[group] = plane
        return plane
