"""Smith normal forms and the abelianization of V_F.

The abelianization of V_F is the cokernel of id - M^t tensored with Z/2,
computed by exact Smith normal form.  M is the adjacency matrix of the
orbit graph (``shift_model.SftGraph``): one vertex per colour orbit plus
one auxiliary vertex per "interrupted loop" (an orbit of size s
contributes s-1 of them); direct edges go between distinct orbit vertices
with multiplicity the target's orbit size, and each auxiliary vertex
splits one loop into two forced edges.

With the orbit vertices first, id - M^t = [[A, B], [C, I]]: M has no edge
between auxiliary vertices, so their block is the identity.  Multiplying
by [[I, -B], [0, I]] on the left and [[I, 0], [-C, I]] on the right, integer
matrices of determinant 1, turns it into diag(A - B*C, I) exactly.  So the
(l+1)x(l+1) Schur complement K = A - B*C has the same cokernel as id - M^t,
and det(id - M^t) = det(K) * det(I) = det(K).

The blocks are fixed by the orbit sizes s_0, ..., s_l.  A[i][j] =
[i == j] - M[j][i], with M[j][i] = s_i off the diagonal and 0 on it.
(B*C)[i][j] counts the paths j -> a -> i through an auxiliary a: s_i - 1
when i == j (the loop vertices of orbit i), none otherwise.  So K[i][j] =
2 * [i == j] - s_i, that is K = 2I - s 1^t: the Smith form and the
determinant run on the orbit sizes alone, without the graph.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


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

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        columns = list(zip(*other.entries))
        return IntMatrix._trusted(
            [sum(map(operator.mul, row, column)) for column in columns]
            for row in self.entries
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


@dataclass(frozen=True)
class Abelianization:
    orbit_sizes: tuple
    invariant_factors: tuple
    two_torsion_rank: int
    determinant: int

    def describe(self):
        if self.two_torsion_rank == 0:
            return "trivial (perfect group)"
        return "(Z/2)^%d" % self.two_torsion_rank


def vf_abelianization(orbit_sizes):
    """Abelianization of V_F from the orbit sizes: the cokernel of
    id - M^t tensored with Z/2, computed on K = 2I - s 1^t (see the module
    docstring).  det(K) = det(id - M^t) is checked against 2^l (1 - d),
    the invariant factors against |det(K)|, and the two-torsion rank
    against the parity closed form."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    l = len(sizes) - 1
    schur = IntMatrix._trusted(
        [2 * (i == j) - s for j in range(l + 1)] for i, s in enumerate(sizes)
    )
    det = bareiss_determinant(schur)
    assert det == 2 ** l * (1 - d), "determinant %d, expected %d" % (
        det,
        2 ** l * (1 - d),
    )
    _, invariants, _ = smith_normal_form(schur)
    assert invariants.free_rank == 0, "id - M^t must be nonsingular"
    assert math.prod(invariants.invariant_factors) == abs(det), (
        "the invariant factors of K do not multiply to |det(id - M^t)|"
    )
    two_rank = sum(1 for eps in invariants.invariant_factors if eps % 2 == 0)
    expected = l + 1 if all(x % 2 == 0 for x in sizes) else l
    assert two_rank == expected, (
        "SNF two-torsion rank %d disagrees with the parity closed form %d"
        % (two_rank, expected)
    )
    return Abelianization(
        orbit_sizes=sizes,
        invariant_factors=tuple(
            eps for eps in invariants.invariant_factors if eps != 1
        ),
        two_torsion_rank=two_rank,
        determinant=det,
    )
