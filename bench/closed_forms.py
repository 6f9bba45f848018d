"""The paper's closed forms, computed by the benchmark for the certify checks."""

from __future__ import annotations

from math import factorial, prod


def partitions(total, largest=None):
    """Partitions of ``total`` as descending tuples, largest part first."""
    largest = total if largest is None else largest
    if total == 0:
        return [()]
    return [
        (head,) + rest
        for head in range(min(total, largest), 0, -1)
        for rest in partitions(total - head, head)
    ]


def xi_counts(max_total):
    """(append, merge, tail) instance counts of the growth-functional claims:
    append for partitions with at most total-2 parts, merge for those with a
    trailing singleton, at least two and at most total-1 parts, and one tail
    check for each x in 2..max_total."""
    append = merge = 0
    for total in range(3, max_total + 1):
        for parts in partitions(total):
            append += len(parts) <= total - 2
            merge += 2 <= len(parts) <= total - 1 and parts[-1] == 1
    return append, merge, max_total - 1


def inequality_holds(parts):
    """The dominant-coefficient inequality holds iff l < d-1 and d > 2."""
    d, l = sum(parts) - 1, len(parts) - 1
    return l < d - 1 and d > 2


def determinant(parts):
    """det(id - M^t) = 2^l (1 - d)."""
    d, l = sum(parts) - 1, len(parts) - 1
    return 2 ** l * (1 - d)


def two_torsion_rank(parts):
    """l + 1 when every orbit has even size, else l."""
    l = len(parts) - 1
    return l + 1 if all(x % 2 == 0 for x in parts) else l


def ball_counts(parts, n):
    """(sphere, sym_product_order, aut_ball_order) of the radius-n ball.

    Every internal vertex below the root contributes |F^| / x for the orbit
    size x of its colour (criterion 8 of the acceptance suite)."""
    d = sum(parts) - 1
    local = prod(factorial(x) for x in parts)
    levels = (d ** (n - 1) - 1) // (d - 1)
    aut = local * prod((local // x) ** (x * levels) for x in parts)
    sym = prod(factorial(x * d ** (n - 1)) for x in parts)
    return (d + 1) * d ** (n - 1), sym, aut
