"""The orbit graph of a colour group, Smith normal forms, and the
abelianization of V_F.

The graph has one vertex per colour orbit plus one auxiliary vertex per
"interrupted loop" (an orbit of size s contributes s-1 of them); direct
edges go between distinct orbit vertices with multiplicity the target's
orbit size, and each auxiliary vertex splits one loop into two forced
edges.  The abelianization of V_F is the cokernel of id - M^t tensored
with Z/2, computed by exact Smith normal form.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers.

    ``IntMatrix(entries)`` checks its input; the matrices this module
    derives from checked ones are built by ``_trusted`` without a second
    pass over their entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("empty matrix")
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("ragged rows")
        for i, row in enumerate(entries):
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise ValueError("entries[%d][%d] is not an integer: %r" % (i, j, x))
        self.entries = entries

    @classmethod
    def _trusted(cls, rows):
        """A matrix from nonempty rows of ints of equal length, unchecked."""
        matrix = object.__new__(cls)
        matrix.entries = tuple(map(tuple, rows))
        return matrix

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("empty matrix")
        return cls._trusted([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def transpose(self):
        return IntMatrix._trusted(zip(*self.entries))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        columns = list(zip(*other.entries))
        return IntMatrix._trusted(
            [sum(map(operator.mul, row, column)) for column in columns]
            for row in self.entries
        )

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix._trusted(
            map(operator.sub, ra, rb)
            for ra, rb in zip(self.entries, other.entries)
        )

    def __repr__(self):
        return "IntMatrix(%dx%d)" % (self.rows, self.cols)

    def __str__(self):
        width = max(len(str(x)) for row in self.entries for x in row)
        return "\n".join(
            " ".join(str(x).rjust(width) for x in row) for row in self.entries
        )


def bareiss_determinant(matrix):
    """Exact integer determinant by fraction-free Gaussian elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    a = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] == 0 and akk == prev:
                continue  # the step would leave the row as it is
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * akk - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors (positive, each dividing the next) and the free
    rank of the cokernel (rows minus rank)."""

    invariant_factors: tuple
    free_rank: int

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            assert a > 0 and b % a == 0
        assert self.free_rank >= 0


def smith_normal_form(matrix):
    """(S, invariants, T) with S*matrix*T diagonal, S and T unimodular.

    Pivoting picks the first nonzero entry of least absolute value in
    row-major order; the scan stops at a unit, and a unit pivot skips the
    search for an entry it does not divide.  Invariant factors are
    normalized nonnegative.  The factorization is re-multiplied and
    checked before returning.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    s = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        s[i1], s[i2] = s[i2], s[i1]

    def col_swap(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]
        for row in t:
            row[j1], row[j2] = row[j2], row[j1]

    def row_addmul(i1, i2, c):
        a[i1] = [x + c * y for x, y in zip(a[i1], a[i2])]
        s[i1] = [x + c * y for x, y in zip(s[i1], s[i2])]

    def col_addmul(j1, j2, c):
        for row in a:
            row[j1] += c * row[j2]
        for row in t:
            row[j1] += c * row[j2]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        s[i] = [-x for x in s[i]]

    def find_pivot(k):
        pivot, least = None, 0
        for i in range(k, m):
            row = a[i]
            for j in range(k, n):
                x = row[j]
                if x and (pivot is None or abs(x) < least):
                    pivot, least = (i, j), abs(x)
                    if least == 1:
                        return pivot
        return pivot

    for k in range(min(m, n)):
        pivot = find_pivot(k)
        if pivot is None:
            break
        row_swap(k, pivot[0])
        col_swap(k, pivot[1])
        while True:
            if a[k][k] < 0:
                row_negate(k)
            # clear row and column k; a smaller remainder becomes the new pivot
            dirty = True
            while dirty:
                dirty = False
                if a[k][k] < 0:
                    row_negate(k)
                for i in range(k + 1, m):
                    if a[i][k]:
                        row_addmul(i, k, -(a[i][k] // a[k][k]))
                        if a[i][k]:
                            row_swap(k, i)
                            dirty = True
                for j in range(k + 1, n):
                    if a[k][j]:
                        col_addmul(j, k, -(a[k][j] // a[k][k]))
                        if a[k][j]:
                            col_swap(k, j)
                            dirty = True
            # enforce that the pivot divides everything that remains
            if a[k][k] == 1:
                break
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if a[i][j] % a[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(k, offender, 1)

    diagonal = [a[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diagonal)
    nonzero = [x for x in diagonal if x]
    assert len(nonzero) + diagonal.count(0) == len(diagonal)

    s_matrix = IntMatrix._trusted(s)
    t_matrix = IntMatrix._trusted(t)
    product = s_matrix.mul(matrix).mul(t_matrix)
    for i, row in enumerate(product.entries):
        expected = tuple(diagonal[i] if j == i else 0 for j in range(n))
        assert row == expected, "S*M*T is not the computed diagonal"
    assert abs(bareiss_determinant(s_matrix)) == 1
    assert abs(bareiss_determinant(t_matrix)) == 1

    invariants = AbelianInvariants(tuple(nonzero), m - len(nonzero))
    return s_matrix, invariants, t_matrix


# -- the orbit graph -----------------------------------------------------------


@dataclass(frozen=True)
class SftGraph:
    """Vertices: ("D", i) for each orbit, then ("delta", i, j) grouped by
    orbit i, j = 1..size-1.  ``matrix[src][dst]`` counts directed edges."""

    orbit_sizes: tuple
    orbit_colours: tuple
    vertices: tuple
    matrix: IntMatrix

    @property
    def d(self):
        return sum(self.orbit_sizes) - 1

    @property
    def l(self):
        return len(self.orbit_sizes) - 1

    @cached_property
    def orbit_of(self):
        """Colour -> index of its orbit."""
        return {c: i for i, block in enumerate(self.orbit_colours) for c in block}

    @cached_property
    def rep_of(self):
        """Colour -> least colour of its orbit."""
        return {c: min(block) for block in self.orbit_colours for c in block}

    def edges(self):
        """All directed edges as (source, target, letter) with the colour
        letter carried by the edge (None on the forced return edges out of
        delta vertices)."""
        out = []
        for i, src_colours in enumerate(self.orbit_colours):
            for j, dst_colours in enumerate(self.orbit_colours):
                if i != j:
                    for c in sorted(dst_colours):
                        out.append((("D", i), ("D", j), c))
            loop_colours = sorted(src_colours)[1:]  # all but the representative
            for j, c in enumerate(loop_colours, start=1):
                out.append((("D", i), ("delta", i, j), c))
                out.append((("delta", i, j), ("D", i), None))
        return out


def _default_colours(orbit_sizes):
    blocks = []
    start = 0
    for size in orbit_sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return tuple(blocks)


def _strongly_connected(matrix):
    rows = matrix.entries

    def reachable(lines):
        seen = {0}
        frontier = [0]
        while frontier:
            for j, entry in enumerate(lines[frontier.pop()]):
                if entry and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == len(lines)

    return reachable(rows) and reachable(tuple(zip(*rows)))


def check_orbit_sizes(orbit_sizes):
    """(sizes, d) for orbit sizes that are positive ints (not bools) naming
    at least d + 1 = 3 colours; raises ValueError otherwise."""
    sizes = tuple(orbit_sizes)
    if not sizes or not all(type(x) is int and x > 0 for x in sizes):
        raise ValueError("orbit sizes must be positive integers")
    d = sum(sizes) - 1
    if d < 2:
        raise ValueError("orbit sizes must add up to at least 3 colours")
    return sizes, d


def build_sft_graph(orbit_sizes, orbit_colours=None):
    """The orbit graph for the given orbit sizes.

    ``orbit_colours`` defaults to consecutive blocks of {0..d}; pass a
    group's actual orbit partition when the colour labels matter.
    """
    orbit_sizes, d = check_orbit_sizes(orbit_sizes)
    if orbit_colours is None:
        orbit_colours = _default_colours(orbit_sizes)
    else:
        orbit_colours = tuple(tuple(sorted(c)) for c in orbit_colours)
        if tuple(len(c) for c in orbit_colours) != orbit_sizes:
            raise ValueError("colour blocks do not match the orbit sizes")
        if sorted(c for block in orbit_colours for c in block) != list(range(d + 1)):
            raise ValueError("colour blocks do not partition 0..%d" % d)

    vertices = [("D", i) for i in range(len(orbit_sizes))] + [
        ("delta", i, j)
        for i, size in enumerate(orbit_sizes)
        for j in range(1, size)
    ]
    index = {v: k for k, v in enumerate(vertices)}
    n = len(vertices)
    entries = [[0] * n for _ in range(n)]
    for i, si in enumerate(orbit_sizes):
        for j, sj in enumerate(orbit_sizes):
            if i != j:
                entries[index[("D", i)]][index[("D", j)]] = sj
        for j in range(1, si):
            entries[index[("D", i)]][index[("delta", i, j)]] = 1
            entries[index[("delta", i, j)]][index[("D", i)]] = 1
    matrix = IntMatrix._trusted(entries)

    for i in range(len(orbit_sizes)):
        row = matrix.entries[index[("D", i)]]
        assert sum(row) == d, "row sum at an orbit vertex must be d"
    if not _strongly_connected(matrix):
        raise ValueError("orbit graph is not irreducible")
    if all(sum(row) == 1 for row in matrix.entries) and all(
        sum(col) == 1 for col in zip(*matrix.entries)
    ):
        raise ValueError("orbit graph degenerates to a permutation matrix")

    graph = SftGraph(orbit_sizes, orbit_colours, tuple(vertices), matrix)
    edge_counts = {}
    for src, dst, _ in graph.edges():
        edge_counts[(src, dst)] = edge_counts.get((src, dst), 0) + 1
    for (src, dst), count in edge_counts.items():
        assert matrix[index[src], index[dst]] == count
    return graph


def sft_graph_for_group(group):
    return build_sft_graph(group.orbit_sizes, group.orbits)


@dataclass(frozen=True)
class Abelianization:
    orbit_sizes: tuple
    invariant_factors: tuple
    two_torsion_rank: int
    determinant: int
    snf_matrix: IntMatrix = field(compare=False)

    def describe(self):
        if self.two_torsion_rank == 0:
            return "trivial (perfect group)"
        return "(Z/2)^%d" % self.two_torsion_rank


def vf_abelianization(orbit_sizes):
    """Abelianization of V_F from the orbit sizes: the cokernel of
    id - M^t tensored with Z/2, with the determinant and closed form
    cross-checked."""
    graph = build_sft_graph(orbit_sizes)
    n = graph.matrix.rows
    system = IntMatrix.identity(n).sub(graph.matrix.transpose())
    det = bareiss_determinant(system)
    d, l = graph.d, graph.l
    assert det == 2 ** l * (1 - d), "determinant %d, expected %d" % (
        det,
        2 ** l * (1 - d),
    )
    _, invariants, _ = smith_normal_form(system)
    assert invariants.free_rank == 0, "id - M^t must be nonsingular"
    two_rank = sum(1 for eps in invariants.invariant_factors if eps % 2 == 0)
    expected = l + 1 if all(x % 2 == 0 for x in graph.orbit_sizes) else l
    assert two_rank == expected, (
        "SNF two-torsion rank %d disagrees with the parity closed form %d"
        % (two_rank, expected)
    )
    return Abelianization(
        orbit_sizes=graph.orbit_sizes,
        invariant_factors=tuple(
            eps for eps in invariants.invariant_factors if eps != 1
        ),
        two_torsion_rank=two_rank,
        determinant=det,
        snf_matrix=system,
    )


def dot_export(graph):
    """GraphViz source for the orbit graph, multi-edges expanded; edge
    labels document the colour identities used by the path encoding."""

    def name(v):
        if v[0] == "D":
            return "D%d" % v[1]
        return "delta_%d_%d" % (v[1], v[2])

    lines = ["digraph orbit_graph {"]
    for v in graph.vertices:
        shape = "circle" if v[0] == "D" else "point"
        lines.append('  %s [shape=%s];' % (name(v), shape))
    for src, dst, letter in graph.edges():
        if letter is None:
            lines.append('  %s -> %s [style=dashed];' % (name(src), name(dst)))
        else:
            lines.append(
                '  %s -> %s [label="%d"];' % (name(src), name(dst), letter)
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
