"""Oracles for the elimination code of ``coloured_neretin.abelianization``.

``seed_smith_normal_form`` and ``seed_bareiss_determinant`` are the module's
``smith_normal_form`` and ``bareiss_determinant`` as they were at first:
an elimination by remainders and swaps, and a Bareiss elimination that
steps every row.  The module's versions must return the same invariants
and determinants.  S and T are not unique, so the module's need not equal
these; the tests check that they factor the matrix instead.  The seed
elimination lets its entries grow without bound (a dense 7x7 matrix with
entries in [-9, 9] can take seconds), which is why the matrices it is run
on stay small.
"""

from coloured_neretin.abelianization import AbelianInvariants, IntMatrix


def seed_bareiss_determinant(matrix):
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def seed_smith_normal_form(matrix):
    """(S, invariants, T) with S*matrix*T diagonal, S and T unimodular.

    Pivoting picks the nonzero entry of least absolute value; invariant
    factors are normalized nonnegative.  The factorization is re-multiplied
    and checked before returning.
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

    for k in range(min(m, n)):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
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
    for i in range(m):
        for j in range(n):
            expected = diagonal[i] if i == j and i < len(diagonal) else 0
            assert product.entries[i][j] == expected, "S*M*T is not the computed diagonal"
    assert abs(seed_bareiss_determinant(s_matrix)) == 1
    assert abs(seed_bareiss_determinant(t_matrix)) == 1

    invariants = AbelianInvariants(tuple(nonzero), m - len(nonzero))
    return s_matrix, invariants, t_matrix
