"""An exact integer twin of each claim that ``verify_xi_claims`` decides.

For a partition P of total x + 1, the comparison functional is

    Xi(P) = (x/(x+1)) sum p ln p - sum ln p! + (x - 1) ln(x/(x+1)),

and e^((x+1) Xi(P)) = N(P)/D(P) with

    N = prod p^(p x) * x^(x^2 - 1),    D = (prod p!)^(x+1) * (x + 1)^(x^2 - 1).

So a step claim Xi(b) > Xi(s), multiplied by (x_b + 1)(x_s + 1) and
exponentiated, is the integer comparison

    N_b^(x_s+1) * D_s^(x_b+1)  >  N_s^(x_b+1) * D_b^(x_s+1),

and the tail claim at x, multiplied by x + 2 and exponentiated, is

    (x+1)^(1 + x(x+2) + (x-1)(x+2))  >  (x-1) * (x+2)^(x(x+2)) * x^((x-1)(x+2)).

A claim's sign is that of the difference of its two sides, so an exact
zero shows as equal sides; nothing is factored.  The claims are listed
here without the package, in the order ``verify_xi_claims`` decides them.
"""

from math import factorial, prod


def partitions(total, largest=None):
    """Partitions of ``total`` into parts of at most ``largest``, as
    descending tuples in reverse lexicographic order."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def exponentiated(parts):
    """(N, D, x + 1) with e^((x+1) Xi(parts)) = N/D."""
    x = sum(parts) - 1
    n = prod(p ** (p * x) for p in parts) * x ** (x * x - 1)
    d = prod(map(factorial, parts)) ** (x + 1) * (x + 1) ** (x * x - 1)
    return n, d, x + 1


def step_sides(bigger, smaller):
    """The two sides of Xi(bigger) > Xi(smaller) as integers."""
    nb, db, kb = exponentiated(bigger)
    ns, ds, ks = exponentiated(smaller)
    return nb ** ks * ds ** kb, ns ** kb * db ** ks


def tail_sides(x):
    """The two sides of the tail claim at x as integers."""
    a, b = x * (x + 2), (x - 1) * (x + 2)
    return (x + 1) ** (1 + a + b), (x - 1) * (x + 2) ** a * x ** b


def claims(max_x):
    """(tag, operands, sign) of each claim: the tag as ``verify_xi_claims``
    reports it, the operands (bigger, smaller) of a step or (x,) of the
    tail, and the exact sign of the claim, +1, 0 or -1."""
    out = []
    for total in range(3, max_x + 1):
        for parts in partitions(total):
            steps = []
            if len(parts) <= total - 2:
                steps.append(("append", parts + (1,)))
            if 2 <= len(parts) <= total - 1 and parts[-1] == 1:
                steps.append(("merge", parts[:-2] + (parts[-2] + 1,)))
            for kind, bigger in steps:
                out.append(((kind, parts), (bigger, parts), step_sides(bigger, parts)))
    out.extend((("tail", x), (x,), tail_sides(x)) for x in range(2, max_x + 1))
    return [(tag, operands, (a > b) - (a < b)) for tag, operands, (a, b) in out]
