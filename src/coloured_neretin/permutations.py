"""Finite permutation groups on the colour set D = {0, ..., d}.

Everything works by full enumeration: the colour sets of interest have at
most a dozen points, so breadth-first closure over the generators is simpler
and easier to trust than a stabilizer-chain stack.  The element list of a
group is kept sorted by image tuple; all "first element such that ..."
choices made elsewhere in the library are pinned down by that order.
"""

from __future__ import annotations

import re
from math import factorial


class DegreeMismatch(ValueError):
    """Generators (or arguments) disagree about the size of the colour set."""


class NotInvariant(ValueError):
    """A colour subset was required to be invariant under the group but is not."""


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image tuple.

    Composition is ``(a * b)(x) == a(b(x))``, i.e. b acts first.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..%d: %r" % (len(images) - 1, images))
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        if self.degree != other.degree:
            raise DegreeMismatch("composing degree %d with degree %d" % (self.degree, other.degree))
        return Permutation(tuple(self.images[other.images[x]] for x in range(self.degree)))

    def inverse(self):
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(inv)

    def is_identity(self):
        return all(self.images[x] == x for x in range(self.degree))

    def fixed_points(self):
        return [x for x in range(self.degree) if self.images[x] == x]

    def moved_points(self):
        return [x for x in range(self.degree) if self.images[x] != x]

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum, sorted by minimum."""
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def parity(self):
        """+1 for even, -1 for odd."""
        sign = 1
        for cyc in self.cycles():
            if len(cyc) % 2 == 0:
                sign = -sign
        return sign

    def restriction_parity(self, subset):
        """Parity of the restriction to an invariant subset (+1 even / -1 odd)."""
        subset = set(subset)
        for x in subset:
            if self.images[x] not in subset:
                raise NotInvariant("subset %s not invariant under %s" % (sorted(subset), self))
        sign = 1
        seen = set()
        for start in subset:
            if start in seen:
                continue
            length = 0
            x = start
            while x not in seen:
                seen.add(x)
                x = self.images[x]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)

    def __str__(self):
        return cycle_string(self)


def identity(degree):
    return Permutation(range(degree))


def from_cycles(cycles, degree):
    """Build a permutation of {0..degree-1} from a list of cycles (tuples of points)."""
    images = list(range(degree))
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise ValueError("repeated point in cycle %r" % (cyc,))
        for point in cyc:
            if not 0 <= point < degree:
                raise ValueError("point %r out of range for degree %d" % (point, degree))
        for i, point in enumerate(cyc):
            if images[point] != point:
                raise ValueError("cycles are not disjoint at point %r" % (point,))
            images[point] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse cycle notation like "(1 2)(3 4)" into a Permutation.

    Accepts whitespace- or comma-separated points; "id", "()" and "" all give
    the identity.
    """
    stripped = text.strip()
    if stripped in ("", "id", "()", "e"):
        return identity(degree)
    if not re.fullmatch(r"\s*(\([^()]*\)\s*)+", text):
        raise ValueError("cannot parse cycle notation: %r" % (text,))
    cycles = []
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if points:
            cycles.append(tuple(points))
    return from_cycles(cycles, degree)


def cycle_string(perm):
    cycles = perm.cycles()
    if not cycles:
        return "id"
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles)


class ColourGroup:
    """A fully enumerated subgroup of Sym({0..d}), with its orbit data.

    Immutable after construction.  ``elements`` is sorted by image tuple, so
    element 0 is always the identity.  ``orbits`` is sorted by minimal colour;
    ``orbit_of[c]`` gives the orbit index of colour c.
    """

    def __init__(self, generators, elements, degree):
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.degree = degree
        self._element_set = frozenset(p.images for p in self.elements)
        assert self.elements[0].is_identity()

        orbits = []
        remaining = set(range(degree))
        while remaining:
            start = min(remaining)
            orbit = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for g in self.generators:
                    y = g(x)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            orbits.append(tuple(sorted(orbit)))
            remaining -= orbit
        orbits.sort(key=lambda orb: orb[0])
        self.orbits = tuple(orbits)
        self.orbit_sizes = tuple(len(orb) for orb in orbits)
        self.orbit_reps = tuple(orb[0] for orb in orbits)
        self.orbit_of = {}
        for i, orb in enumerate(orbits):
            for c in orb:
                self.orbit_of[c] = i

    @property
    def d(self):
        """Tree arity parameter: |D| = d + 1."""
        return self.degree - 1

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm):
        return isinstance(perm, Permutation) and perm.images in self._element_set

    def __eq__(self, other):
        """Groups are equal when they have the same elements, however generated."""
        return self is other or (
            isinstance(other, ColourGroup) and self._element_set == other._element_set
        )

    def __hash__(self):
        return hash(self._element_set)

    def identity(self):
        return self.elements[0]

    def is_invariant(self, subset):
        subset = set(subset)
        return all(g(x) in subset for g in self.generators for x in subset)

    def stabilizer_elements(self, point):
        return [g for g in self.elements if g(point) == point]

    def __repr__(self):
        return "ColourGroup(<%s>, order %d, orbits %s)" % (
            ", ".join(str(g) for g in self.generators) or "id",
            len(self.elements),
            list(self.orbits),
        )


def closure_enumerate(generators, degree=None):
    """Enumerate the subgroup generated by ``generators`` inside Sym({0..degree-1}).

    Breadth-first closure; fine for degree <= 12 or so.  ``degree`` may be
    omitted when there is at least one generator.
    """
    generators = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
    if degree is None:
        if not generators:
            raise ValueError("degree required for an empty generating set")
        degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatch(
                "generator %s has degree %d, expected %d" % (g, g.degree, degree)
            )
    generators = [g for g in generators if not g.is_identity()]

    cap = factorial(degree)
    elements = {identity(degree)}
    frontier = list(elements)
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g * x
                if y not in elements:
                    elements.add(y)
                    new.append(y)
        frontier = new
        assert len(elements) <= cap, "closure exceeded |Sym(D)| -- broken generator?"
    return ColourGroup(generators, elements, degree)


def trivial_group(degree):
    return closure_enumerate([], degree)


def acts_freely(group):
    """True iff no nonidentity element fixes a colour."""
    return all(g.is_identity() or not g.fixed_points() for g in group.elements)


def is_single_switch(group):
    """True iff the group is {id, t} for a single transposition t."""
    if len(group.elements) != 2:
        return False
    nontrivial = group.elements[1]
    return len(nontrivial.moved_points()) == 2


def stabilizer_restriction_in_alt(group, chi, subset):
    """Whether every group element fixing ``chi`` restricts evenly to ``subset``.

    ``subset`` must be invariant under the whole group.
    """
    subset = tuple(sorted(set(subset)))
    if not group.is_invariant(subset):
        raise NotInvariant("subset %s is not invariant under the group" % (list(subset),))
    return all(
        g.restriction_parity(subset) == 1 for g in group.stabilizer_elements(chi)
    )


def _minimal_block_partition(group, support, a, b):
    """Finest block system of a transitive action merging a and b (Atkinson).

    Returns the partition as a sorted list of sorted tuples.
    """
    parent = {x: x for x in support}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for g in group.generators:
            queue.append((g(x), g(y)))
    classes = {}
    for x in support:
        classes.setdefault(find(x), []).append(x)
    return sorted(tuple(sorted(cls)) for cls in classes.values())


def structure_report(group, support=None):
    """Transitivity / double transitivity / primitivity on an invariant support.

    Returns a dict with keys ``transitive``, ``doubly_transitive``,
    ``primitive`` and ``block_system`` (a proper nontrivial block system if
    the action is transitive but imprimitive, else None).
    """
    if support is None:
        support = range(group.degree)
    support = tuple(sorted(set(support)))
    if not group.is_invariant(support):
        raise NotInvariant("support %s is not invariant under the group" % (list(support),))
    n = len(support)
    if n == 0:
        raise ValueError("empty support")

    base = support[0]
    transitive = group.orbits[group.orbit_of[base]] == support

    doubly = False
    if transitive and n == 1:
        doubly = True
    elif transitive:
        pair = (support[0], support[1])
        pair_orbit = {pair}
        frontier = [pair]
        while frontier:
            x, y = frontier.pop()
            for g in group.generators:
                img = (g(x), g(y))
                if img not in pair_orbit:
                    pair_orbit.add(img)
                    frontier.append(img)
        doubly = len(pair_orbit) == n * (n - 1)

    primitive = False
    block_system = None
    if transitive:
        primitive = True
        for other in support[1:]:
            partition = _minimal_block_partition(group, support, base, other)
            if len(partition) > 1:
                primitive = False
                block_system = partition
                break
    return {
        "transitive": transitive,
        "doubly_transitive": doubly,
        "primitive": primitive,
        "block_system": block_system,
    }


def contains_alternating(group, support):
    """Whether the group's action contains Alt(support).

    Assumes every group element moves only points of ``support``; then the
    group embeds in Sym(support) and order comparison decides the question.
    """
    support = tuple(sorted(set(support)))
    for g in group.elements:
        for x in g.moved_points():
            assert x in support, "element moves a point outside the support"
    return 2 * len(group.elements) >= factorial(len(support))
