"""Finite permutation groups on the colour set D = {0, ..., d}.

A group is held as a stabilizer chain on the base 0, 1, ..., d (Sims 1970;
Seress, *Permutation Group Algorithms*, 2003, ch. 4): level i is the
subgroup G_i fixing 0, ..., i-1 pointwise, with a transversal of the orbit
of i under G_i.  Order, membership and the "least element such that ..."
choices made elsewhere in the library come from the chain, so no group is
ever enumerated; the least element in image-tuple order is found by a
greedy descent of the chain (Seress ch. 9).  Group arithmetic runs on raw
image tuples, and ``Permutation`` validates only values that cross the
module boundary.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import factorial, prod


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
        return (-1) ** sum(len(cyc) - 1 for cyc in self.cycles())

    def restriction_parity(self, subset):
        """Parity of the restriction to an invariant subset (+1 even / -1 odd):
        the cycles that start in the subset are the ones inside it."""
        subset = set(subset)
        for x in subset:
            if self.images[x] not in subset:
                raise NotInvariant("subset %s not invariant under %s" % (sorted(subset), self))
        return (-1) ** sum(len(cyc) - 1 for cyc in self.cycles() if cyc[0] in subset)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

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


def _mul(a, b):
    """Image tuple of a * b (b acts first)."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _check_colours(colours, d):
    """``colours`` as a tuple, each an int in 0..d (bools are not colours)."""
    colours = tuple(colours)
    for c in colours:
        if type(c) is not int or not 0 <= c <= d:
            raise ValueError("colour %r outside 0..%d" % (c, d))
    return colours


def _orbit_labels(generators, degree):
    """``labels[x]`` = least point of the orbit of x under ``generators``."""
    labels = [None] * degree
    for start in range(degree):
        if labels[start] is not None:
            continue
        labels[start] = start
        frontier = [start]
        for x in frontier:
            for g in generators:
                y = g[x]
                if labels[y] is None:
                    labels[y] = start
                    frontier.append(y)
    return labels


def _sift(transversals, g, start=0):
    """Strip g (an image tuple fixing 0..start-1) down the chain.

    Returns the residue and the level where it left the chain; the level is
    the degree exactly when g lies in the group the chain describes.
    """
    for i in range(start, len(g)):
        if g[i] != i:
            entry = transversals[i].get(g[i])
            if entry is None:
                return g, i
            g = _mul(entry[1], g)
    return g, len(g)


def _stabilizer_chain(generators, degree, bound):
    """Strong generators and transversals of <generators> on base 0..degree-1.

    Incremental Schreier-Sims: levels are completed from d back to 0.
    Level i is complete once every Schreier generator u_{s(p)}^-1 s u_p
    (p in the orbit of i, s a strong generator fixing 0..i-1) sifts through
    levels i+1..d; one that does not becomes a new strong generator at
    the level where it left the chain, and the work resumes there.
    Transversal entries are never replaced, so a pair that sifted once stays
    settled and is not tested again.

    ``bound`` is a known upper bound on the group order, and the chain stops
    as soon as the product of the transversal sizes reaches it, checked
    after each level's orbit is closed (Seress, 2003, sec. 4.5).  That is
    sound because every transversal T_i lies in the true basic orbit
    Delta_i, so prod |T_i| <= prod |Delta_i| = |G| <= bound: equality
    forces T_i = Delta_i at every level.  Each entry of T_j is a word in
    the strong generators of level j, so strong[i] then generates the
    stabilizer G_i = T_i T_(i+1) ... T_d, and sifting, the order and the
    level orbits are exact.  Other groups test every Schreier generator.
    """
    ident = tuple(range(degree))
    strong = [[] for _ in range(degree)]  # strong[i]: generators fixing 0..i-1
    transversals = [{i: (ident, ident)} for i in range(degree)]
    tested = [set() for _ in range(degree)]

    def add(g, level):
        for i in range(level + 1):
            strong[i].append(g)

    def close(level):
        """Extend level's transversal to the orbit of its strong generators."""
        gens, table = strong[level], transversals[level]
        frontier = list(table)
        for p in frontier:
            for s in gens:
                if s[p] not in table:
                    v = _mul(s, table[p][0])
                    table[s[p]] = (v, _inverse(v))
                    frontier.append(s[p])

    def unsettled(level):
        """The first Schreier generator of the closed level that leaves the
        chain, as (residue, level left), or None."""
        gens, table = strong[level], transversals[level]
        for p, (u, _) in table.items():
            for k, s in enumerate(gens):
                if (p, k) not in tested[level]:
                    tested[level].add((p, k))
                    h = _mul(table[s[p]][1], _mul(s, u))
                    h, leave = _sift(transversals, h, level + 1)
                    if leave < degree:
                        return h, leave
        return None

    for g in generators:
        g, level = _sift(transversals, g)
        if level < degree:
            add(g, level)
    order = 1  # the product of the transversal sizes
    level = degree - 1
    while level >= 0:
        before = len(transversals[level])
        close(level)
        order = order // before * len(transversals[level])
        if order == bound:
            break
        found = unsettled(level)
        if found is None:
            level -= 1
        else:
            add(*found)
            level = found[1]
    return strong, transversals


class ColourGroup:
    """A subgroup F of Sym({0..d}) as a stabilizer chain, with its orbit data.

    Immutable after construction.  ``order`` is the product of the
    transversal sizes; membership sifts through the chain.  The chain
    stops testing Schreier generators once that product reaches
    prod |O_i|! over the orbits O_i, the largest order F can have (see
    ``_stabilizer_chain``); other groups have all of theirs tested.
    ``orbits`` is sorted by minimal colour; ``orbit_of[c]`` gives the orbit
    index of colour c.
    """

    def __init__(self, generators, degree):
        self.generators = tuple(generators)
        self.degree = degree
        self._identity = identity(degree)
        images = [g.images for g in self.generators]
        orbits = {}  # least point -> the orbit's points, in increasing order
        for c, label in enumerate(_orbit_labels(images, degree)):
            orbits.setdefault(label, []).append(c)
        self.orbit_reps = tuple(orbits)
        self.orbits = tuple(map(tuple, orbits.values()))
        self.orbit_of = {c: i for i, orbit in enumerate(self.orbits) for c in orbit}
        self.orbit_sizes = tuple(len(orb) for orb in self.orbits)
        # F lies in the product of the symmetric groups of its orbits
        self._strong, self._transversals = _stabilizer_chain(
            images, degree, prod(map(factorial, self.orbit_sizes))
        )
        self.order = prod(len(table) for table in self._transversals)
        self._hash = hash((degree, self.order, self.orbits))

    @property
    def d(self):
        """Tree arity parameter: |D| = d + 1."""
        return self.degree - 1

    # kept for bench/tracing.py's len(result); len() overflows from degree 21
    def __len__(self):
        return self.order

    def __contains__(self, perm):
        return (
            isinstance(perm, Permutation)
            and perm.degree == self.degree
            and _sift(self._transversals, perm.images)[1] == self.degree
        )

    def __eq__(self, other):
        """Groups are equal when they have the same elements, however generated."""
        return self is other or (
            isinstance(other, ColourGroup)
            and self.degree == other.degree
            and self.order == other.order
            and all(g in self for g in other.generators)
        )

    def __hash__(self):
        return self._hash

    def identity(self):
        return self._identity

    def is_invariant(self, subset):
        subset = set(subset)
        return all(g(x) in subset for g in self.generators for x in subset)

    def invariant_subset(self, subset):
        """``subset`` as a sorted tuple of colours mapped to itself by F.

        The one check of a colour subset: ValueError names the first colour
        that is not an int in 0..d, NotInvariant a subset F moves off itself.
        """
        subset = tuple(sorted(set(_check_colours(subset, self.d))))
        if not self.is_invariant(subset):
            raise NotInvariant(
                "subset %s is not invariant under the colour group" % (list(subset),)
            )
        return subset

    @cached_property
    def _level_labels(self):
        """Orbit labels of level i+1 for each level i the descent chooses in."""
        levels = (i for i, table in enumerate(self._transversals) if len(table) > 1)
        return {i: _orbit_labels(self._strong[i + 1], self.degree) for i in levels}

    def least_element_mapping(self, point, image):
        """The first element in image-tuple order that sends point to image.

        Greedy descent of the chain: an element is u_0 u_1 ... u_d with u_i
        from level i's transversal, and with g = u_0 ... u_(i-1) and
        p = u_i(i) it sends i to g(p).  So each level takes the p with the
        least g(p) among those that can still send ``point`` to ``image``:
        above ``point``, p qualifies when u_p^-1 g^-1 (image) lies in the
        orbit of ``point`` under the next level; at ``point``, p is forced
        to be g^-1 (image); below it any p will do.
        """
        if self.orbit_of[point] != self.orbit_of[image]:
            raise ValueError("no element maps %d to %d" % (point, image))
        g, target = self._identity.images, image  # target = g^-1(image)
        for i, table in enumerate(self._transversals):
            if i == point:
                p = target
            elif len(table) == 1:
                continue
            elif i < point:
                labels = self._level_labels[i]
                p = min(
                    (q for q, (_, u_inv) in table.items()
                     if labels[u_inv[target]] == labels[point]),
                    key=g.__getitem__,
                )
            else:
                p = min(table, key=g.__getitem__)
            u, u_inv = table[p]
            g, target = _mul(g, u), u_inv[target]
        return Permutation(g)

    def __repr__(self):
        return "ColourGroup(<%s>, order %d, orbits %s)" % (
            ", ".join(str(g) for g in self.generators) or "id",
            self.order,
            list(self.orbits),
        )


def closure_enumerate(generators, degree=None):
    """The subgroup generated by ``generators`` inside Sym({0..degree-1}).

    Builds its stabilizer chain; ``degree`` may be omitted when there is at
    least one generator.
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
    return ColourGroup([g for g in generators if not g.is_identity()], degree)


def trivial_group(degree):
    return closure_enumerate([], degree)


def stabilizer_restriction_in_alt(group, chi, subset):
    """Whether every group element fixing ``chi`` restricts evenly to ``subset``.

    ``subset`` must be invariant under the whole group, so restriction
    parity e is a homomorphism on F.  Schreier's lemma gives the stabilizer
    of chi as generated by u_{s(p)}^-1 s u_p (p in the orbit of chi, s a
    generator, u_p the tree word sending chi to p); e of such a generator is
    e(u_{s(p)}) e(s) e(u_p), so it suffices that e(u_p) is the same along
    every generator edge of the orbit.
    """
    subset = group.invariant_subset(subset)
    _check_colours((chi,), group.d)
    parities = [(g.images, g.restriction_parity(subset)) for g in group.generators]
    signs = {chi: 1}
    frontier = [chi]
    for p in frontier:
        for g, parity in parities:
            q, sign = g[p], parity * signs[p]
            if q not in signs:
                signs[q] = sign
                frontier.append(q)
            elif signs[q] != sign:
                return False
    return True


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
    support = group.invariant_subset(range(group.degree) if support is None else support)
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

    The group must move only points of ``support`` (ValueError otherwise);
    then it embeds in Sym(support) and order comparison decides the question.
    """
    support = group.invariant_subset(support)
    if any(len(orbit) > 1 and orbit[0] not in support for orbit in group.orbits):
        raise ValueError("the group moves colours outside the support %s" % (list(support),))
    return 2 * group.order >= factorial(len(support))
