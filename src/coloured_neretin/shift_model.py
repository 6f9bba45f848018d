"""Bridge between almost automorphisms and the one-sided shift model.

The orbit graph of a colour group carries a one-sided shift of finite type.
Finite oriented paths whose terminal vertex is an orbit vertex correspond
bijectively to vertices of the coloured tree, and the topological full
group of the shift groupoid corresponds to the dense subgroup generated by
tree-pair elements.  This module realises that dictionary concretely:

* a path is its word of colour labels, a plain tuple with one label per
  hop between orbit vertices.  A label in the orbit of its predecessor is
  an interrupted loop through a delta vertex (one label, two graph edges),
  any other label a direct edge.  The first label picks a child of the
  path-tree root: an orbit representative is the zero-length path at its
  orbit vertex, any other colour the edge leaving a delta vertex,
* ``Omega`` translates label words to tree addresses and back, letter by
  letter, using the canonical colour transports,
* ``Bisection`` is the shift-side normal form of an element: a finite list
  of (source path, shift offset, target path) triples whose source and
  target cylinders each partition the path space.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .almost_automorphisms import make_element, random_element
from .permutations import closure_enumerate, from_cycles
from .tree import check_address, plane_for


class PathError(ValueError):
    """A label word that does not describe a path in the orbit graph."""


class InvalidBisection(ValueError):
    def __init__(self, problems):
        super().__init__("; ".join(problems) or "invalid bisection")
        self.problems = problems


def check_path(path, graph):
    if not path:
        raise PathError("empty label word does not name a path")
    orbit_of, rep_of = graph.orbit_of, graph.rep_of
    prev = None
    for c in path:
        if c not in orbit_of:
            raise PathError("label %r is not a colour of the graph" % (c,))
        if prev is not None and c == rep_of[prev]:
            raise PathError(
                "label %d after a label in the orbit of %d must avoid the "
                "representative %d" % (c, prev, c)
            )
        prev = c
    return path


def edge_length(path, graph):
    """Number of graph edges traversed by the path.

    The zero-length root child contributes 0, a delta start edge 1, a
    direct hop 1 and an interrupted loop 2; the costs are read from
    ``graph.step_costs``, which has no entry for a step that is no path's,
    so a label word that is not a path raises KeyError (IndexError when
    empty).
    """
    first, steps = graph.step_costs
    prev = path[0]
    total = first[prev]
    for c in path[1:]:
        total += steps[prev][c]
        prev = c
    return total


def cylinder_mass(path, graph):
    d = graph.d
    return Fraction(1, (d + 1) * d ** (len(path) - 1))


def path_children(path, graph):
    rep = graph.rep_of[path[-1]]
    return [path + (c,) for c in range(graph.d + 1) if c != rep]


def root_paths(graph):
    """The d+1 minimal paths, i.e. the children of the path-tree root."""
    return [(c,) for c in range(graph.d + 1)]


def _default_group(graph):
    generators = []
    degree = graph.d + 1
    for block in graph.orbit_colours:
        if len(block) >= 2:
            generators.append(from_cycles([tuple(block[:2])], degree))
        if len(block) >= 3:
            generators.append(from_cycles([tuple(block)], degree))
    return closure_enumerate(generators, degree)


class Omega:
    """The order isomorphism between the path tree and the coloured tree.

    Built letterwise: the first label is itself the first address letter,
    and afterwards a label c at a vertex x is sent to the child
    f_{col(x)}^{-1}(c), where f_chi is the canonical transport of chi to
    its orbit representative.  This is the unique root-preserving,
    plane-order-preserving tree isomorphism, and the colour of the image
    always lies in the terminal orbit of the path.
    """

    def __init__(self, graph, group=None):
        if group is None:
            group = _default_group(graph)
        expected = tuple(tuple(orbit) for orbit in group.orbits)
        if expected != graph.orbit_colours:
            raise ValueError(
                "group orbits %r do not match graph colours %r"
                % (expected, graph.orbit_colours)
            )
        self.graph = graph
        self.group = group
        self.plane = plane_for(group)

    def to_address(self, path):
        check_path(path, self.graph)
        address = self.plane.address_of(path)
        orbit_of = self.graph.orbit_of
        assert orbit_of[address[-1]] == orbit_of[path[-1]]
        return address

    def to_labels(self, address):
        address = check_address(address, self.graph.d)
        return check_path(self.plane.label_word(address), self.graph)

    def check_depth(self, depth):
        """Exhaustively verify the isomorphism on all paths of <= depth labels.

        Checks bijectivity level by level, the orbit-membership property
        col(omega(path)) in t(path) (asserted by ``to_address``), and that
        ascending label order maps to the plane order on children.
        """
        level = root_paths(self.graph)
        for _ in range(depth):
            addresses = [self.to_address(p) for p in level]
            assert len(set(addresses)) == len(addresses)
            for path, address in zip(level, addresses):
                assert self.to_labels(address) == path
            parents = {}
            for path, address in zip(level, addresses):
                parents.setdefault(path[:-1], []).append((path, address))
            for _, pairs in parents.items():
                pairs.sort()
                got = [address for _, address in pairs]
                assert got == self.plane.children(got[0][:-1])
            level = [c for path in level for c in path_children(path, self.graph)]
        return True


@dataclass(frozen=True)
class Bisection:
    """Shift-side normal form: (source path, offset, target path) triples.

    Both paths of a triple are label-word tuples.  The source paths and the
    target paths each give a clopen partition of the path space, the offset
    of a pair is the difference of the edge lengths of its paths, and
    source and target of a pair end at the same orbit vertex;
    ``validate_bisection`` checks all of this.  Pairs are kept sorted by
    source label word.
    """

    pairs: tuple

    def __post_init__(self):
        canonical = tuple(
            sorted((tuple(s), int(offset), tuple(t)) for s, offset, t in self.pairs)
        )
        object.__setattr__(self, "pairs", canonical)

    def sources(self):
        return [s for s, _, _ in self.pairs]

    def targets(self):
        return [t for _, _, t in self.pairs]


def _partition_problems(paths, ordered, graph, side):
    """Overlaps, reported for each pair i < j in that order, then the mass.

    ``ordered`` is ``paths`` sorted.  In label order the extensions of a
    path directly follow it, so a path that is a prefix of another is a
    prefix of its successor: a valid side costs one test per adjacent
    pair.  Only when one holds does the forward scan from each path, which
    stops at the first non-extension, find every overlapping pair once.
    """
    problems = []
    if any(q[: len(p)] == p for p, q in zip(ordered, ordered[1:])):
        order = sorted(range(len(paths)), key=paths.__getitem__)
        overlaps = []
        for k, i in enumerate(order):
            p = paths[i]
            for j in order[k + 1 :]:
                if paths[j][: len(p)] != p:
                    break
                overlaps.append((min(i, j), max(i, j)))
        problems = [
            "%s paths %r and %r overlap (one is a prefix of the other)"
            % (side, paths[i], paths[j])
            for i, j in sorted(overlaps)
        ]
    # each cylinder's mass over the common denominator (d+1) d^(D-1)
    d = graph.d
    lengths = Counter(map(len, paths))
    D = max(lengths, default=1)
    numerator = sum(count * d ** (D - k) for k, count in lengths.items())
    mass = Fraction(numerator, (d + 1) * d ** (D - 1))
    if mass != 1:
        problems.append("%s cylinders cover mass %s instead of 1" % (side, mass))
    return problems


def validate_bisection(bisection, graph):
    """The list of problems of the bisection, empty when it is valid.

    Never raises on mathematically bad data: bad labels, offsets and
    terminal orbits are reported per pair, and only when every pair is
    sound are the overlaps and masses of both sides checked.  The edge
    lengths are read inline from ``graph.step_costs``; ``check_path`` runs
    only on a pair whose lookup fails, to name the defect.  Per side one
    sort and a prefix test on adjacent paths decide whether any overlaps
    must be listed.
    """
    first, steps = graph.step_costs
    orbit_of = graph.orbit_of
    problems = []
    for index, (source, offset, target) in enumerate(bisection.pairs):
        try:  # edge_length(source) - edge_length(target), inlined
            prev = source[0]
            want = first[prev]
            for c in source[1:]:
                want += steps[prev][c]
                prev = c
            prev = target[0]
            want -= first[prev]
            for c in target[1:]:
                want -= steps[prev][c]
                prev = c
        except (KeyError, IndexError):  # not two paths: name each defect
            for path in (source, target):
                try:
                    check_path(path, graph)
                except PathError as exc:
                    problems.append("pair %d: %s" % (index, exc))
            continue
        if problems:
            continue
        ends = orbit_of[source[-1]], orbit_of[target[-1]]
        if ends[0] != ends[1]:
            problems.append(
                "pair %d: source ends at orbit vertex %d but target at %d"
                % ((index,) + ends)
            )
        if offset != want:
            problems.append(
                "pair %d: offset %d does not match edge length difference %d"
                % (index, offset, want)
            )
    if not problems:
        # Bisection keeps its pairs sorted by source, so only the targets
        # need a sort
        sources, targets = bisection.sources(), bisection.targets()
        problems.extend(_partition_problems(sources, sources, graph, "source"))
        problems.extend(_partition_problems(targets, sorted(targets), graph, "target"))
    return problems


def _make_pair(source, target, graph):
    return source, edge_length(source, graph) - edge_length(target, graph), target


def identity_bisection(graph):
    return Bisection(tuple(_make_pair(p, p, graph) for p in root_paths(graph)))


def bisection_to_element(bisection, omega):
    """The reduced element of a bisection.  A caller's bisection enters
    here and is validated once; its valid paths are translated unchecked."""
    problems = validate_bisection(bisection, omega.graph)
    if problems:
        raise InvalidBisection(problems)
    address = omega.plane.address_of
    pairs = {address(s): address(t) for s, _, t in bisection.pairs}
    return make_element(pairs, pairs.values(), pairs, omega.group)


def element_to_bisection(element, omega):
    """The bisection of the reduced element, its label words unchecked."""
    element = element.reduce()
    labels, graph = omega.plane.label_word, omega.graph
    return Bisection(tuple(
        _make_pair(labels(v), labels(w), graph) for v, w in element._map.items()
    ))


def compose_bisections(first, second, graph):
    """The bisection acting as `first after second` on the path space.

    A pair (s, t) acts on cylinders by replacing the prefix s with t and
    keeping the remaining labels; the terminal-vertex condition is exactly
    what makes the remaining labels legal after either prefix.  The labels
    kept cost the same edges after either prefix, so offsets add.
    """
    by_source = {}
    for s1, o1, t1 in first.pairs:
        by_source.setdefault(s1, []).append((o1, t1))
    sources = first.sources()  # sorted, as pairs are
    pairs = []
    for s2, o2, t2 in second.pairs:
        for k in range(1, len(t2) + 1):
            for o1, t1 in by_source.get(t2[:k], ()):
                pairs.append((s2, o1 + o2, t1 + t2[k:]))
        for n in range(bisect_right(sources, t2), len(sources)):
            if sources[n][: len(t2)] != t2:
                break
            _, o1, t1 = first.pairs[n]
            pairs.append((s2 + sources[n][len(t2) :], o1 + o2, t1))
    result = Bisection(tuple(pairs))
    problems = validate_bisection(result, graph)
    assert not problems, problems
    return result


def random_bisection(omega, rng, expansions=6):
    return element_to_bisection(random_element(omega.group, rng, expansions), omega)
