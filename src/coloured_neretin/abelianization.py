"""The abelianization of V_F in closed form, and exact Smith normal forms.

The abelianization of V_F is the cokernel of id - M^t tensored with Z/2
(Matui, Topological full groups of one-sided shifts of finite type, J. reine
angew. Math. 2015).  M is the adjacency matrix of the orbit graph
(``shift_model.SftGraph``): one vertex per colour orbit plus one auxiliary
vertex per "interrupted loop" (an orbit of size s contributes s-1 of them);
direct edges go between distinct orbit vertices with multiplicity the
target's orbit size, and each auxiliary vertex splits one loop into two
forced edges.

With the orbit vertices first, id - M^t = [[A, B], [C, I]]: M has no edge
between auxiliary vertices, so their block is the identity.  Multiplying
by [[I, -B], [0, I]] on the left and [[I, 0], [-C, I]] on the right, integer
matrices of determinant 1, turns it into diag(A - B*C, I) exactly.  So the
(l+1)x(l+1) Schur complement K = A - B*C has the same cokernel as id - M^t,
and det(id - M^t) = det(K).  With M[j][i] = s_i off the diagonal and the
s_i - 1 loops of orbit i the only paths j -> a -> i through an auxiliary a,
K[i][j] = 2 * [i == j] - s_i, that is K = 2I - s 1^t, where s_0, ..., s_l
are the orbit sizes and d + 1 = sum(s).  By the matrix determinant lemma,
det(K) = 2^(l+1) (1 - (d + 1)/2) = 2^l (1 - d).

The invariant factors of K follow.  With one orbit, K = (1 - d).  Otherwise:
K e_j - K e_0 = 2(e_j - e_0), so the columns span the lattice generated by
the 2(e_j - e_0) and by K e_0 = 2e_0 - s.  In the cokernel G the images of
the e_j - e_0 are killed by 2 and G modulo them is cyclic, so 2G is cyclic:
at most one factor exceeds 2, and the others are 1 or 2.  The first factor
is the gcd g of the entries of K: 2 when every s_i is even, else 1.  The
number of even factors is dim G/2G, the corank of K mod 2 = s 1^t mod 2:
l + 1 when g = 2, else l.  The product of the factors is |det K| =
2^l (d - 1).  Together: (g, 2, ..., 2, 2(d - 1)/g), with l - 1 twos.

``smith_normal_form`` and ``bareiss_determinant`` compute the same numbers by
elimination; the tests and ``selftest`` check the closed form against them.
"""

from __future__ import annotations

import operator
from collections import namedtuple


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

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        columns = list(zip(*other.entries))
        return IntMatrix._trusted(
            [sum(map(operator.mul, row, column)) for column in columns]
            for row in self.entries
        )

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


class AbelianInvariants(namedtuple("AbelianInvariants", "invariant_factors free_rank")):
    """Invariant factors (positive, each dividing the next) and the free
    rank of the cokernel (rows minus rank)."""

    __slots__ = ()

    def __new__(cls, invariant_factors, free_rank):
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            assert a > 0 and b % a == 0
        assert free_rank >= 0
        return super().__new__(cls, invariant_factors, free_rank)


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


class Abelianization(
    namedtuple("Abelianization", "orbit_sizes invariant_factors two_torsion_rank determinant")
):
    __slots__ = ()

    def describe(self):
        if self.two_torsion_rank == 0:
            return "trivial (perfect group)"
        return "(Z/2)^%d" % self.two_torsion_rank


def vf_abelianization(orbit_sizes):
    """Abelianization of V_F from the orbit sizes, in O(l): the invariant
    factors of K = 2I - s 1^t in closed form, factors equal to 1 dropped,
    and det(K) = det(id - M^t) = 2^l (1 - d) (see the module docstring)."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    l = len(sizes) - 1
    if l == 0:
        factors = (d - 1,)
    else:
        g = 2 if all(x % 2 == 0 for x in sizes) else 1
        factors = (g,) + (2,) * (l - 1) + (2 * (d - 1) // g,)
    return Abelianization(
        orbit_sizes=sizes,
        invariant_factors=tuple(eps for eps in factors if eps != 1),
        two_torsion_rank=sum(1 for eps in factors if eps % 2 == 0),
        determinant=2 ** l * (1 - d),
    )
