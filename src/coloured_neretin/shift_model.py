"""Bridge between almost automorphisms and the one-sided shift model.

The orbit graph of a colour group carries a one-sided shift of finite type.
Finite oriented paths whose terminal vertex is an orbit vertex correspond
bijectively to vertices of the coloured tree, and the topological full
group of the shift groupoid corresponds to the dense subgroup generated by
tree-pair elements.  This module realises that dictionary concretely:

* ``SftGraph`` is the orbit graph, kept as its orbit partition; its edges,
  step costs and DOT export are linear in d for a fixed number of orbits,
* a path is its word of colour labels, a plain tuple with one label per
  hop between orbit vertices.  A label in the orbit of its predecessor is
  an interrupted loop through a delta vertex (one label, two graph edges),
  any other label a direct edge.  The first label picks a child of the
  path-tree root: an orbit representative is the zero-length path at its
  orbit vertex, any other colour the edge leaving a delta vertex,
* ``Omega`` translates label words to tree addresses and back, letter by
  letter, using the canonical colour transports,
* ``Bisection`` is the shift-side normal form of an element: a finite list
  of (source path, target path) pairs whose source and target cylinders
  each partition the path space.  The lag of a pair in Matui's groupoid,
  ``edge_length(source) - edge_length(target)``, is fixed by its paths and
  not stored.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter

from .abelianization import IntMatrix, check_orbit_sizes
from .almost_automorphisms import make_element, random_element
from .permutations import closure_enumerate, from_cycles
from .tree import _walks_complete, check_address, plane_for


class PathError(ValueError):
    """A label word that does not describe a path in the orbit graph."""


class InvalidBisection(ValueError):
    def __init__(self, problems):
        super().__init__("; ".join(problems) or "invalid bisection")
        self.problems = problems


# -- the orbit graph -----------------------------------------------------------


class SftGraph(namedtuple("SftGraph", "orbit_sizes orbit_colours")):
    """Vertices: ("D", i) for each orbit, then ("delta", i, j) grouped by orbit
    i, j = 1..size-1.  One sorted colour block per orbit; ``edges()`` builds the edges.
    No ``__slots__``: the cached views below live in the instance's ``__dict__``."""

    @property
    def d(self):
        return sum(self.orbit_sizes) - 1

    @cached_property
    def vertices(self):
        return tuple([("D", i) for i in range(len(self.orbit_sizes))] + [
            ("delta", i, j) for i, size in enumerate(self.orbit_sizes) for j in range(1, size)
        ])

    @cached_property
    def matrix(self):
        """``matrix[src, dst]`` counts directed edges, all (d+1)^2 entries."""
        index = {v: n for n, v in enumerate(self.vertices)}
        entries = [[0] * len(index) for _ in index]
        for src, dst, _ in self.edges():
            entries[index[src]][index[dst]] += 1
        return IntMatrix._trusted(entries)

    @cached_property
    def orbit_of(self):
        """Colour -> index of its orbit."""
        return {c: i for i, block in enumerate(self.orbit_colours) for c in block}

    @cached_property
    def rep_of(self):
        """Colour -> least colour of its orbit."""
        return {c: block[0] for block in self.orbit_colours for c in block}

    @cached_property
    def step_costs(self):
        """(first, steps): ``first[c]`` is the number of graph edges a path's
        first label c costs, ``steps[p][c]`` that of a label c after p.
        A first label costs 0 at a representative (a zero-length path) and
        1 elsewhere; a later label costs 2 in its predecessor's orbit (an
        interrupted loop) and 1 outside it.  ``steps[p]`` is one row per orbit,
        without the orbit's representative, which no label after p may be."""
        orbit_of = self.orbit_of
        first = {c: int(c != block[0]) for block in self.orbit_colours for c in block}
        rows = [
            {c: 2 if orbit_of[c] == i else 1 for c in orbit_of if c != block[0]}
            for i, block in enumerate(self.orbit_colours)
        ]
        return first, {p: rows[i] for p, i in orbit_of.items()}

    def edges(self):
        """All directed edges as (source, target, letter) with the colour
        letter carried by the edge (None on the forced return edges out of
        delta vertices)."""
        out = []
        orbit = [("D", i) for i in range(len(self.orbit_colours))]
        for i, block in enumerate(self.orbit_colours):
            for j, colours in enumerate(self.orbit_colours):
                if i != j:
                    out.extend((orbit[i], orbit[j], c) for c in colours)
            for j, c in enumerate(block[1:], start=1):  # all but the representative
                relay = ("delta", i, j)
                out.extend(((orbit[i], relay, c), (relay, orbit[i], None)))
        return out


def build_sft_graph(orbit_sizes, orbit_colours=None):
    """The orbit graph for the given orbit sizes and colour blocks.

    ``orbit_colours`` defaults to consecutive blocks of {0..d}; pass a
    group's actual orbit partition when the colour labels matter.  Only the
    input is checked: once the sizes name d + 1 ≥ 3 colours and the blocks
    partition them, each orbit vertex D_i has out-degree Σ_{j≠i} s_j + s_i − 1
    = d ≥ 2, so the graph is no permutation matrix.  It is strongly
    connected, since every D_i has an edge to every other D_j and every delta
    vertex has an edge to and from its own D_i.
    """
    orbit_sizes, d = check_orbit_sizes(orbit_sizes)
    if orbit_colours is None:
        starts = accumulate(orbit_sizes, initial=0)
        orbit_colours = tuple(tuple(range(a, a + s)) for a, s in zip(starts, orbit_sizes))
    else:
        orbit_colours = tuple(tuple(sorted(c)) for c in orbit_colours)
        if tuple(len(c) for c in orbit_colours) != orbit_sizes:
            raise ValueError("colour blocks do not match the orbit sizes")
        if sorted(c for block in orbit_colours for c in block) != list(range(d + 1)):
            raise ValueError("colour blocks do not partition 0..%d" % d)
    return SftGraph(orbit_sizes, orbit_colours)


def sft_graph_for_group(group):
    return build_sft_graph(group.orbit_sizes, group.orbits)


def dot_export(graph):
    """GraphViz source for the orbit graph, multi-edges expanded; edge
    labels document the colour identities used by the path encoding."""

    def name(v):
        return "D%d" % v[1] if v[0] == "D" else "delta_%d_%d" % v[1:]

    lines = ["digraph orbit_graph {"]
    for v in graph.vertices:
        lines.append("  %s [shape=%s];" % (name(v), "circle" if v[0] == "D" else "point"))
    for src, dst, letter in graph.edges():
        style = "style=dashed" if letter is None else 'label="%d"' % letter
        lines.append("  %s -> %s [%s];" % (name(src), name(dst), style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_path(path, graph):
    if not path:
        raise PathError("empty label word does not name a path")
    orbit_of, rep_of = graph.orbit_of, graph.rep_of
    prev = None
    for c in path:
        if type(c) is not int or c not in orbit_of:  # True and 1.0 hash like 1
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
        labels = self.plane.label_word(check_address(address, self.graph.d))
        # later labels need no check: f_a(b) is not the representative f_a(a), b != a
        return check_path(labels[:1], self.graph) + labels[1:]

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


class Bisection(namedtuple("Bisection", "pairs")):
    """Shift-side normal form: (source path, target path) pairs.

    Both paths of a pair are label-word tuples of ints (not bools: True
    and 1.0 hash like 1); a pair of another shape, or a label of another
    type, raises InvalidBisection naming it, before the pairs are sorted
    by source label word.  The source paths and the target paths each give
    a clopen partition of the path space, and source and target of a pair
    end at the same orbit vertex; ``validate_bisection`` checks this
    against the graph.  ``_trusted`` builds, without the label scan, the
    bisections the package makes from int label words.
    """

    __slots__ = ()

    def __new__(cls, pairs):
        try:
            checked = [(tuple(s), tuple(t)) for s, t in pairs]
        except (TypeError, ValueError):
            raise InvalidBisection(_shape_problems(pairs)) from None
        labels = chain.from_iterable(chain.from_iterable(checked))
        if not set(map(type, labels)) <= {int}:
            raise InvalidBisection([
                "pair %r: label %r is not an int" % (pair, c)
                for pair in checked for c in chain(*pair) if type(c) is not int
            ])
        return cls._trusted(checked)

    @classmethod
    def _trusted(cls, pairs):
        return tuple.__new__(cls, (tuple(sorted(pairs)),))

    def sources(self):
        return [s for s, _ in self.pairs]

    def targets(self):
        return [t for _, t in self.pairs]


def _shape_problems(pairs):
    """Each pair that is not a (path, path) pair of two iterables."""
    problems = []
    for pair in pairs:
        try:
            s, t = pair
            tuple(s), tuple(t)
        except (TypeError, ValueError):
            problems.append("pair %r is not a (path, path) pair" % (pair,))
    return problems


def _partition_problems(paths, graph, side):
    """Overlaps, reported for each pair i < j in that order, then the mass.

    In label order the extensions of a path directly follow it, so a
    forward scan from each path that stops at the first non-extension
    finds every overlapping pair once.
    """
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

    Never raises on mathematically bad data.  A sound bisection passes a
    preorder walk of each side's sorted paths in the path tree (every word
    a path, the cylinders a partition) and one comparison of the terminal
    orbits.  Otherwise bad paths (named by ``check_path``) and terminal
    orbits are reported per pair, and only when every pair is sound are the
    overlaps and masses of both sides checked.
    """
    # Bisection keeps its pairs sorted by source, so only the targets need a sort
    sources, targets = bisection.sources(), bisection.targets()
    orbit, last = graph.orbit_of.__getitem__, itemgetter(-1)
    if (
        _walks_complete(sources, graph.d, graph.rep_of)
        and _walks_complete(sorted(targets), graph.d, graph.rep_of)
        and list(map(orbit, map(last, sources))) == list(map(orbit, map(last, targets)))
    ):
        return []
    problems = []
    for index, (source, target) in enumerate(bisection.pairs):
        for path in (source, target):
            try:
                check_path(path, graph)
            except PathError as exc:
                problems.append("pair %d: %s" % (index, exc))
        if problems:
            continue
        ends = orbit(source[-1]), orbit(target[-1])
        if ends[0] != ends[1]:
            problems.append(
                "pair %d: source ends at orbit vertex %d but target at %d"
                % ((index,) + ends)
            )
    if not problems:
        problems.extend(_partition_problems(sources, graph, "source"))
        problems.extend(_partition_problems(targets, graph, "target"))
    return problems


def identity_bisection(graph):
    return Bisection._trusted((p, p) for p in root_paths(graph))


def bisection_to_element(bisection, omega):
    """The reduced element of a bisection.  A caller's bisection enters
    here and is validated once; its valid paths are translated unchecked,
    the i-th source to the i-th target."""
    problems = validate_bisection(bisection, omega.graph)
    if problems:
        raise InvalidBisection(problems)
    address = omega.plane.address_of
    sources = list(map(address, bisection.sources()))
    targets = list(map(address, bisection.targets()))
    return make_element(sources, targets, range(len(sources)), omega.group)


def element_to_bisection(element, omega):
    """The bisection of the reduced element, its label words not checked as paths."""
    element = element.reduce()
    labels = omega.plane.label_words
    return Bisection._trusted(zip(labels(element.domain.leaves), labels(element._images())))


def compose_bisections(first, second, graph):
    """The bisection acting as `first after second` on the path space.

    A pair (s, t) acts on cylinders by replacing the prefix s with t and
    keeping the remaining labels; the terminal-vertex condition is exactly
    what makes the remaining labels legal after either prefix.
    """
    by_source = {}
    for s1, t1 in first.pairs:
        by_source.setdefault(s1, []).append(t1)
    sources = first.sources()  # sorted, as pairs are
    pairs = []
    for s2, t2 in second.pairs:
        for k in range(1, len(t2) + 1):
            for t1 in by_source.get(t2[:k], ()):
                pairs.append((s2, t1 + t2[k:]))
        for n in range(bisect_right(sources, t2), len(sources)):
            if sources[n][: len(t2)] != t2:
                break
            pairs.append((s2 + sources[n][len(t2) :], first.pairs[n][1]))
    result = Bisection._trusted(pairs)
    problems = validate_bisection(result, graph)
    assert not problems, problems
    return result


def random_bisection(omega, rng, expansions=6):
    return element_to_bisection(random_element(omega.group, rng, expansions), omega)
