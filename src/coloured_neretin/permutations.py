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

import random
import re
from functools import cached_property
from math import factorial, prod
from operator import itemgetter


class DegreeMismatch(ValueError):
    """Generators (or arguments) disagree about the size of the colour set."""


class NotInvariant(ValueError):
    """A colour subset was required to be invariant under the group but is not."""


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image tuple of ints.

    Composition is ``(a * b)(x) == a(b(x))``, i.e. b acts first.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not set(map(type, images)) <= {int} or sorted(images) != list(range(len(images))):
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
        return Permutation(_mul(self.images, other.images))

    def inverse(self):
        return Permutation(_inverse(self.images))

    def is_identity(self):
        return all(self.images[x] == x for x in range(self.degree))

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
        the cycles that start in the subset are the ones inside it.
        ValueError names a colour that is not an int in 0..degree-1."""
        subset = set(_check_colours(subset, self.degree - 1))
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
    """Build a permutation of {0..degree-1} from a list of cycles (tuples of int points)."""
    images = list(range(degree))
    for cyc in cycles:
        for point in cyc:
            if type(point) is not int or not 0 <= point < degree:
                raise ValueError("point %r out of range for degree %d" % (point, degree))
        if len(set(cyc)) != len(cyc):
            raise ValueError("repeated point in cycle %r" % (cyc,))
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
    """Image tuple of a * b (b acts first).

    ``itemgetter`` of one index gives a bare item, not a tuple, but the one
    permutation of degree 1 is the identity.
    """
    return itemgetter(*b)(a) if len(b) > 1 else a


def _inverse(a):
    inverse = [0] * len(a)
    for x, y in enumerate(a):
        inverse[y] = x
    return tuple(inverse)


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


def _parity_vector(g, labels):
    """Bit ``labels[x]`` set for each orbit on which g is odd, in one cycle pass.

    g is odd on an orbit exactly when it has an odd number of cycles of
    even length there.
    """
    vector = 0
    seen = bytearray(len(g))
    for start, image in enumerate(g):
        if seen[start] or image == start:
            continue
        length = 1
        while image != start:
            seen[image] = 1
            image = g[image]
            length += 1
        if not length % 2:
            vector ^= 1 << labels[start]
    return vector


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


def _stabilizer_chain(generators, labels, bound):
    """The stabilizer chain of <generators> on base 0..d, as a ``_Chain``.

    ``labels`` are the generators' orbit labels and ``bound`` an upper bound
    on the group order.  The chain is certified once the product of the
    transversal sizes reaches it (Seress, 2003, sec. 4.5): every
    transversal T_i lies in the true basic orbit Delta_i, so
    prod |T_i| <= prod |Delta_i| = |G| <= bound, and equality forces
    T_i = Delta_i at every level.  Each entry of T_j is a word in the strong
    generators of level j, so strong[i] then generates the stabilizer
    G_i = T_i T_(i+1) ... T_d, and sifting, the order and the level orbits
    are exact.

    First comes random Schreier-Sims (Seress, sec. 4.3): products of the
    generators, drawn by product replacement (Celler et al., 1995) with a
    private, fixed-seed ``random.Random``, are sifted, and each residue
    becomes a strong generator at the level where it left the chain.  The
    phase ends at the bound, or after ``_RANDOM_MISSES`` products in a row
    sift through.  A group still below the bound gets the deterministic
    completion, incremental Schreier-Sims: levels are completed from d back
    to 0, and level i is complete once every Schreier generator
    u_{s(p)}^-1 s u_p (p in the orbit of i, s a strong generator fixing
    0..i-1) sifts through levels i+1..d; one that does not becomes a strong
    generator at the level where it left the chain, and the work resumes
    there.  Transversal entries are never replaced, so a (point, generator)
    pair that sifted once leaves the list of untested pairs for good.  The
    completion stops at the bound too.  It restarts from the input
    generators when the random phase added residues, whose Schreier
    generators cost more than they save, and otherwise goes on from the
    random phase's chain, which is then the input generators' own.
    """
    chain = _Chain(generators, labels)
    if chain.order < bound:
        added = chain.sift_random_products(generators, bound)
        if chain.order < bound:
            if added:
                chain = _Chain(generators, labels)
            chain.complete(bound)
    return chain


_RANDOM_SEED = 1995  # a fixed seed: the same generators build the same chain
_RANDOM_MISSES = 10  # products in a row that sift through end the random phase
_RANDOM_STATE = 5  # product replacement keeps at least this many elements


class _Chain:
    """A stabilizer chain under construction, every level closed.

    ``strong[i]`` holds the strong generators fixing 0..i-1,
    ``transversals[i]`` maps each point p of the orbit of i under them to
    (u_p, u_p^-1), and ``order`` is the product of the transversal sizes.
    ``applied[i]`` counts the generators of ``strong[i]`` already applied to
    every point of level i, so closing a level applies the new generators
    to the old points and all generators to the new points.  During the
    completion, ``pending[i]`` lists the (point, generator) pairs of level i
    that closing has examined and no Schreier generator has tested yet.
    """

    __slots__ = ("strong", "transversals", "applied", "pending", "order", "room")

    def __init__(self, generators, labels):
        degree = len(labels)
        ident = tuple(range(degree))
        # room[i]: how many of the points i..d lie in the orbit of i under the
        # generators; they hold the orbit of i under G_i, so a level with
        # that many points is full
        self.room = [0] * degree
        counts = {}
        for i in reversed(range(degree)):
            self.room[i] = counts[labels[i]] = counts.get(labels[i], 0) + 1
        self.strong = [[] for _ in range(degree)]
        self.transversals = [{i: (ident, ident)} for i in range(degree)]
        self.applied = [0] * degree
        self.pending = None
        self.order = 1
        for g in generators:
            g, level = _sift(self.transversals, g)
            if level < degree:
                self.add(g, level)

    def add(self, g, level):
        """Make g, which fixes 0..level-1, a strong generator; close levels 0..level."""
        for i in range(level + 1):
            self.strong[i].append(g)
            self.close(i)

    def close(self, level):
        """Extend level's transversal to the orbit of its strong generators."""
        gens = self.strong[level]
        done = self.applied[level]
        if done == len(gens):
            return
        self.applied[level] = len(gens)
        table = self.transversals[level]
        before = len(table)
        if before == self.room[level] and self.pending is None:
            return
        new = gens[done:]
        points = list(table)
        for k, p in enumerate(points):
            u = table[p][0]
            for s in new if k < before else gens:
                q = s[p]
                if q not in table:
                    v = _mul(s, u)
                    table[q] = v, _inverse(v)
                    points.append(q)
        if self.pending is not None:
            self.pending[level] += [(p, s) for p in points[:before] for s in new]
            self.pending[level] += [(p, s) for p in points[before:] for s in gens]
        self.order = self.order // before * len(table)

    def sift_random_products(self, generators, bound):
        """The random phase of ``_stabilizer_chain``; whether it added a
        strong generator."""
        rng = random.Random(_RANDOM_SEED)
        state = list(generators) * -(-_RANDOM_STATE // len(generators))
        size = len(state)
        degree = len(self.strong)
        x = self.transversals[0][0][0]  # the identity
        added = False
        misses = 0
        while misses < _RANDOM_MISSES:
            i = int(rng.random() * size)
            j = int(rng.random() * (size - 1))
            j += j >= i
            state[i] = _mul(state[i], state[j])
            x = _mul(x, state[i])
            h, level = _sift(self.transversals, x)
            if level == degree:
                misses += 1
                continue
            misses = 0
            added = True
            self.add(h, level)
            if self.order == bound:
                break
        return added

    def complete(self, bound):
        """The deterministic completion of ``_stabilizer_chain``."""
        self.pending = [
            [(p, s) for p in table for s in gens]
            for table, gens in zip(self.transversals, self.strong)
        ]
        degree = len(self.strong)
        ident = self.transversals[0][0][0]
        level = degree - 1
        while level >= 0 and self.order < bound:
            table, pending = self.transversals[level], self.pending[level]
            while pending:
                p, s = pending.pop()
                h = _mul(table[s[p]][1], _mul(s, table[p][0]))
                if h == ident:  # as on every edge that added a point to the table
                    continue
                h, leave = _sift(self.transversals, h, level + 1)
                if leave < degree:
                    self.add(h, leave)
                    level = leave
                    break
            else:
                level -= 1


class ColourGroup:
    """A subgroup F of Sym({0..d}) as a stabilizer chain, with its orbit data.

    Immutable after construction.  ``order`` is the product of the
    transversal sizes; membership sifts through the chain.  The chain is
    certified as soon as that product reaches an upper bound on |F| (see
    ``_stabilizer_chain``).  With k the number of orbits O_i of size >= 2
    and r the F_2-rank of the generators' parity vectors (bit i set when
    the generator is odd on O_i), |F| <= prod |O_i|! / 2^(k - r): the
    signs of the restrictions to the O_i form a homomorphism
    F -> (Z/2)^k, whose image the generators' vectors span, so it has 2^r
    elements, and whose kernel lies in prod Alt(O_i), of order
    prod |O_i|! / 2^k.  Products of symmetric and alternating groups on
    the orbits reach that bound from random products alone; other groups
    have every Schreier generator tested.  ``orbits`` is sorted by minimal
    colour; ``orbit_of[c]`` gives the orbit index of colour c.
    """

    def __init__(self, generators, degree):
        self.generators = tuple(generators)
        self.degree = degree
        self._identity = identity(degree)
        images = [g.images for g in self.generators]
        labels = _orbit_labels(images, degree)
        orbits = {}  # least point -> the orbit's points, in increasing order
        for c, label in enumerate(labels):
            orbits.setdefault(label, []).append(c)
        self.orbit_reps = tuple(orbits)
        self.orbits = tuple(map(tuple, orbits.values()))
        self.orbit_of = {c: i for i, orbit in enumerate(self.orbits) for c in orbit}
        self.orbit_sizes = tuple(len(orb) for orb in self.orbits)
        # an F_2 basis of the generators' parity vectors, in decreasing order,
        # so their leading bits differ
        basis = []
        for g in images:
            vector = _parity_vector(g, labels)
            for b in basis:
                vector = min(vector, vector ^ b)
            if vector:
                basis.append(vector)
                basis.sort(reverse=True)
        moving = sum(size > 1 for size in self.orbit_sizes)
        bound = prod(map(factorial, self.orbit_sizes)) >> (moving - len(basis))
        chain = _stabilizer_chain(images, labels, bound)
        self._strong, self._transversals = chain.strong, chain.transversals
        self.order = chain.order
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
        """Whether F maps ``subset`` to itself; ValueError names the first
        colour that is not an int in 0..d."""
        subset = set(_check_colours(subset, self.d))
        return all(g(x) in subset for g in self.generators for x in subset)

    def invariant_subset(self, subset):
        """``subset`` as a sorted tuple of colours mapped to itself by F.

        The one check of a colour subset: ValueError names the first colour
        that is not an int in 0..d, NotInvariant a subset F moves off itself.
        """
        subset = tuple(subset)
        if not self.is_invariant(subset):
            raise NotInvariant(
                "subset %s is not invariant under the colour group" % (sorted(set(subset)),)
            )
        return tuple(sorted(set(subset)))

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
    return _stabilizers_restrict_evenly(group, (chi,), subset)


def _stabilizers_restrict_evenly(group, starts, subset):
    """``stabilizer_restriction_in_alt`` for each colour of ``starts``, one
    per orbit, on a ``subset`` already checked: one walk from all of them
    visits each colour once, and each generator's parity is taken once."""
    parities = [(g.images, g.restriction_parity(subset)) for g in group.generators]
    signs = dict.fromkeys(starts, 1)
    frontier = list(starts)
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
