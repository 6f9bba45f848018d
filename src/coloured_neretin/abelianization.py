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

``smith_normal_form`` computes the same factors by unimodular 2x2 row and
column steps (Kannan-Bachem), and ``bareiss_determinant`` the determinant by
fraction-free elimination; the tests and ``selftest`` check the closed form
against them.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers.

    ``IntMatrix(entries)`` checks its input; the matrices this module
    derives from checked ones are built by ``_trusted`` without a second
    pass over their entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        try:
            entries = tuple(map(tuple, entries))
        except TypeError:
            raise ValueError("entries must be a sequence of rows, not %r" % (entries,)) from None
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
        texts = [list(map(_digits, row)) for row in self.entries]
        width = max(len(text) for row in texts for text in row)
        return "\n".join(" ".join(text.rjust(width) for text in row) for row in texts)


def _digits(value):
    """Exact decimal digits, past the limit on ``str(int)`` (640 digits or more)."""
    if value.bit_length() <= 2000:
        return str(value)
    import decimal

    return str(decimal.Decimal(value))


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


def _bezout(a, b):
    """(x, y, g) with x*a + y*b = g = gcd(a, b), for a != 0; (1, 0, a) when
    a divides b."""
    if b % a == 0:
        return 1, 0, a
    g = math.gcd(a, b)
    x = pow(a // g, -1, abs(b) // g)
    return x, (g - x * a) // b, g


def smith_normal_form(matrix):
    """(S, invariants, T) with S*matrix*T diagonal, S and T unimodular.

    Each step combines two rows (of the matrix and S) or two columns (of the
    matrix and T) by a unimodular 2x2 matrix: a swap, or [[x, y], [-b/g, a/g]]
    with g = x*a + y*b = gcd(a, b), which takes entries (a, b) to (g, 0)
    (Kannan and Bachem, SIAM J. Comput. 1979).  On the least nonzero entry
    of the remaining block as pivot, row and column k are cleared and a row
    with an entry the pivot does not divide is added to row k, until none
    is left.  Invariant factors are normalized nonnegative; the
    factorization is re-multiplied and checked before returning.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    s = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    # rows i1, i2 of a and s (columns j1, j2 of a and t) become x*r1 + y*r2, p*r1 + q*r2
    def rows(i1, i2, x, y, p, q):
        for w in (a, s):
            r1, r2 = w[i1], w[i2]
            w[i1] = [x * e + y * f for e, f in zip(r1, r2)]
            w[i2] = [p * e + q * f for e, f in zip(r1, r2)]

    def cols(j1, j2, x, y, p, q):
        for w in (a, t):
            for row in w:
                e, f = row[j1], row[j2]
                row[j1], row[j2] = x * e + y * f, p * e + q * f

    for k in range(min(m, n)):
        nonzero = [(abs(x), i, j) for i in range(k, m) for j, x in enumerate(a[i][k:], k) if x]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        rows(k, i, 0, 1, 1, 0)  # a swap, and the identity when i == k
        cols(k, j, 0, 1, 1, 0)
        while True:
            for i in range(k + 1, m):
                if a[i][k]:
                    x, y, g = _bezout(a[k][k], a[i][k])
                    rows(k, i, x, y, -a[i][k] // g, a[k][k] // g)
            for j in range(k + 1, n):
                if a[k][j]:
                    x, y, g = _bezout(a[k][k], a[k][j])
                    cols(k, j, x, y, -a[k][j] // g, a[k][k] // g)
            if any(a[i][k] for i in range(k + 1, m)):
                continue  # a column step that lowered the pivot refilled column k
            pivot = a[k][k]
            offender = next((i for i in range(k + 1, m) if any(x % pivot for x in a[i][k:])), None)
            if offender is None:
                break
            rows(k, offender, 1, 1, 0, 1)
        if pivot < 0:
            a[k][k], s[k] = -pivot, [-x for x in s[k]]

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
    try:
        sizes = tuple(orbit_sizes)
    except TypeError:  # not iterable: refused below as no sizes at all
        sizes = ()
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
        sizes,
        tuple(eps for eps in factors if eps != 1),
        sum(1 for eps in factors if eps % 2 == 0),
        2 ** l * (1 - d),
    )
