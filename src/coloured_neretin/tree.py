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
from bisect import bisect_right
from contextlib import suppress
from itertools import chain, islice, takewhile
from operator import getitem, ne


class IncompleteTree(ValueError):
    """A leaf set that is not the leaf set of a finite complete subtree."""


def is_valid_address(word, d):
    """No-repeat colour word over {0..d}, each letter an int (not a bool)."""
    word = tuple(word)
    return all(type(c) is int and 0 <= c <= d for c in word) and all(map(ne, word, word[1:]))


def check_address(word, d):
    word = tuple(word)
    if not is_valid_address(word, d):
        raise ValueError("invalid vertex address %r for d=%d" % (word, d))
    return word


def admissible_child_colours(v, d):
    """Colours available on edges below v: everything except col(v)."""
    return [c for c in range(d + 1) if not v or c != v[-1]]


def is_prefix(u, v):
    return len(u) <= len(v) and tuple(v[: len(u)]) == tuple(u)


def sphere(d, n):
    """All 'No-repeat' words of length n, in plain tuple order ((d+1)d^(n-1) of them)."""
    words = [()]
    for _ in range(n):
        words = [w + (c,) for w in words for c in range(d + 1) if not w or c != w[-1]]
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
    and transports read only the two lists.  ``addresses`` is the table of
    leaf addresses that the elements decoded over F share (only
    ``element_from_dict`` adds to it); each group keeps the plane
    ``plane_for`` hands it, so the table lives as long as a group holding it,
    and equal groups share it.
    """

    def __init__(self, group):
        self.d = group.d
        self.addresses = {}
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
    planar order when it matters; a lookup is one bisection of them.  The
    constructor validates the leaf set (and ``d``); ``_trusted`` builds,
    unchecked, the trees derived from validated ones.
    """

    __slots__ = ("d", "leaves")

    def __init__(self, d, leaves):
        if type(d) is not int or d < 0:
            raise IncompleteTree("d must be an int >= 0, not %r" % (d,))
        self.d, self.leaves = d, tuple(_check_complete([tuple(w) for w in leaves], d))

    @classmethod
    def _trusted(cls, d, leaves):
        tree = cls.__new__(cls)
        tree.d, tree.leaves = d, tuple(sorted(leaves))
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
        return self.leaf_containing(leaf) == tuple(leaf)

    def leaf_containing(self, word):
        """The unique leaf that is a prefix of ``word`` (which must be at
        least that deep), or None if ``word`` is a strict prefix of leaves.

        The leaves are sorted and prefix-free, so a leaf that is a prefix of
        ``word`` is the largest leaf up to ``word`` (when no leaf is, index
        -1 picks the last, which lies above ``word``).  A letter that does
        not compare with an int stops the bisection only below an internal
        vertex, where no leaf is a prefix of ``word``."""
        word = tuple(word)
        with suppress(TypeError):
            leaf = self.leaves[bisect_right(self.leaves, word) - 1]
            return leaf if word[: len(leaf)] == leaf else None
        return None

    def expand(self, leaf):
        """Simple expansion: replace ``leaf`` by its d children."""
        leaf = tuple(leaf)
        if leaf not in self:
            raise ValueError("leaf %r not in tree" % (leaf,))
        new = [w for w in self.leaves if w != leaf]
        new.extend(leaf + (c,) for c in admissible_child_colours(leaf, self.d))
        return CompleteSubtree._trusted(self.d, new)

    def contract(self, parent):
        """Inverse of expand: all children of ``parent`` must be leaves."""
        parent = tuple(parent)
        children = [parent + (c,) for c in admissible_child_colours(parent, self.d)]
        if not all(c in self for c in children):
            raise ValueError("not all children of %r are leaves" % (parent,))
        if not parent:
            raise IncompleteTree("the bare root is not a complete subtree")
        new = [w for w in self.leaves if w[:-1] != parent] + [parent]
        return CompleteSubtree._trusted(self.d, new)

    def __repr__(self):
        return "CompleteSubtree(d=%d, %d leaves)" % (self.d, len(self.leaves))


def _check_complete(leaves, d):
    """The list ``leaves`` sorted in plain tuple order; raise IncompleteTree
    unless it is the leaf set of a finite complete subtree.

    A type scan and ``_walks_complete`` accept a valid set.  The scan comes
    first, since the walk indexes by letters and refuses none that equals an
    int.  The rest names the first defect: the first invalid address (in the
    given order if the letters do not compare), else a repeated leaf, else
    the first defective internal vertex (strict prefix of a leaf) in
    preorder.  One pass over the leaves keeps the strict prefixes of the
    current leaf open, each with the index of its first leaf and the number
    of children met, and closes one once the next leaf no longer passes
    through it.  A vertex is keyed by (index of its first leaf, depth),
    which is preorder order (plain tuple order); only the reported vertex
    is built as a tuple.  A complete subtree is one whose leaves are not
    internal and whose internal vertices have all their children (d, the
    root d + 1).
    """
    if set(map(type, chain.from_iterable(leaves))) <= {int}:
        leaves.sort()
        if _walks_complete(leaves, d, range(d + 1)):  # a child avoids its parent's colour
            return leaves
    else:
        with suppress(TypeError):  # a letter that does not compare with an int
            leaves = sorted(leaves)
    if not leaves:
        raise IncompleteTree("empty leaf set")
    if leaves == [()]:
        raise IncompleteTree("the bare root is not a complete subtree")
    for w in leaves:
        if not is_valid_address(w, d):
            raise IncompleteTree("invalid address %r for d=%d" % (w, d))
    if len(set(leaves)) != len(leaves):
        raise IncompleteTree("repeated leaf")
    defects = []  # (first leaf, depth, colours missing); 0 missing: a leaf with descendants
    first, met = [], []  # per depth of the open vertices

    def close_deeper(depth):
        while len(first) > depth + 1:
            missing = d + (len(first) == 1) - met.pop()
            if missing:
                defects.append((first[-1], len(first) - 1, missing))
            first.pop()

    for i, w in enumerate(leaves):
        n = 0  # the length of the common prefix with the previous leaf
        while n < len(first) and leaves[i - 1][n] == w[n]:
            n += 1
        close_deeper(n)
        if len(first) > n:
            met[n] += 1
        elif i:  # the previous leaf is a strict prefix of w
            defects.append((i - 1, n, 0))
        first += [i] * (len(w) - len(first))
        met += [1] * (len(w) - len(met))
    close_deeper(-1)
    if not defects:
        return leaves
    i, k, missing = min(defects)
    v = leaves[i][:k]
    if not missing:
        raise IncompleteTree("leaf %r has descendants in the leaf set" % (v,))
    through = takewhile(lambda w: w[:k] == v, islice(leaves, i, None))
    raise IncompleteTree(
        "vertex %r is internal but covers no leaf through colours [%s]"
        % (v, ", ".join(map(str, _missing_colours(v, d, missing, {w[k] for w in through}))))
    )


def _walks_complete(words, d, avoid):
    """Whether the sorted ``words`` are the leaves of a finite complete tree
    whose root has the children (c,), c = 0..d, and whose vertex v has the
    children v + (c,), c != avoid[v[-1]], by one preorder walk: each word
    descends from the walk's next vertex by first children only, and the
    later children wait on a stack that never outgrows the words left.
    False for d < 1, which the caller's own checks decide."""
    n = len(words)
    if not 0 < d < n:
        return False
    pending = [(c,) for c in range(d, -1, -1)]
    for k, w in enumerate(words):
        if not pending:
            return False
        v = pending.pop()
        if w[: len(v)] != v:
            return False
        for c in w[len(v) :]:
            skip = avoid[v[-1]]
            first = 1 if skip == 0 else 0
            if c != first or len(pending) + d > n - k:
                return False
            pending.extend([v + (x,) for x in range(d, first, -1) if x != skip])
            v += (c,)
    return not pending


def _missing_colours(v, d, count, present):
    """The ``count`` colours c of children v + (c,) not in ``present``: all
    of them up to five, else the first three, the count left out and the
    last two, found from both ends at a cost bounded by ``present``."""

    def first(colours, n):
        gaps = (c for c in colours if (not v or c != v[-1]) and c not in present)
        return list(islice(gaps, n))

    if count <= 5:
        return first(range(d + 1), count)
    return first(range(d + 1), 3) + ["<%d more>" % (count - 5)] + first(range(d, -1, -1), 2)[::-1]


_PLANE_CACHE = weakref.WeakKeyDictionary()


def plane_for(group):
    """The PlaneOrder of a colour group.  A group keeps the first plane it is
    handed, as ``_plane``.  That is the plane of the equal group the weak
    cache is keyed by, while that group lives, so equal groups share one; a
    group that first asks after its death starts a new one."""
    plane = group.__dict__.get("_plane")
    if plane is None:
        plane = _PLANE_CACHE.get(group)
        if plane is None:
            plane = _PLANE_CACHE[group] = PlaneOrder(group)
        group._plane = plane
    return plane
