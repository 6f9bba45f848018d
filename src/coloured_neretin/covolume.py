"""Exact ball counts, covolume lower bounds, and the supporting estimates.

Everything that feeds the discreteness/covolume story of the coloured
groups is computed here with exact integers or rationals: automorphism
group orders of coloured balls, the index chain that lower-bounds the
covolume of a hypothetical lattice, the integer form of the comparison
inequality between dominant growth coefficients, the interval-arithmetic
verification of its logarithmic proof, the prime-window counts used for
Stirling-free arguments, and the ball counts of the related
Caprace-De Medts type groups together with a discrepancy check of their
stated closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import compress, islice
from math import factorial, prod

from .abelianization import check_orbit_sizes
from .intervals import decide_sign, default_precision, fixed_log, interval_width


def exact_div(a, b):
    q, r = divmod(a, b)
    assert r == 0, "%d is not divisible by %d" % (a, b)
    return q


def _show_int(value):
    """The decimal text of an int when it has at most 48 characters, else
    its first 12 and last 6 characters and its length.  The digit count
    comes from the bit length, raised while 10^count does not exceed the
    value, and the leading digits from one floor division, so a long value
    is never converted to decimal whole (nor refused by the interpreter's
    4 300-digit limit on ``str(int)``)."""
    sign = "-" if value < 0 else ""
    magnitude = abs(value)
    # one or two below the digit count (that of 2^(bits - 1), less one);
    # float rounding moves it by at most one, never above the count
    count = max(1, int((magnitude.bit_length() - 1) * math.log10(2)))
    power = 10 ** (count - 1)
    while magnitude >= 10 * power:
        count, power = count + 1, 10 * power
    if len(sign) + count <= 48:
        return str(value)
    head = magnitude // (power // 10 ** (11 - len(sign)))
    return "%s%d...%06d (%d digits)" % (sign, head, magnitude % 10**6, len(sign) + count)


def integer_partitions(total, max_part=None):
    """Partitions of ``total`` into parts of at most ``max_part`` (default
    ``total``) as descending tuples, in reverse lexicographic order.  A walk
    without recursion: the next partition lowers the last part above 1 by
    one and refills what follows it greedily."""
    if total == 0:
        yield ()
        return
    parts, rest, top = [], total, total if max_part is None else max_part
    while (top := min(rest, top)) >= 1:
        q, r = divmod(rest, top)
        parts += [top] * q + ([r] if r else [])
        yield tuple(parts)
        rest = parts.count(1) + 1  # the trailing ones and the unit taken below
        del parts[len(parts) + 1 - rest :]
        if not parts:
            return
        parts[-1] -= 1
        top = parts[-1]


def compositions(total):
    """Ordered decompositions of ``total`` into positive parts."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def _check_ints(**values):
    """Raise ValueError naming the first argument that is not an int (bools are not)."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError("%s must be an int, not %r" % (name, value))


def _check_radius(n):
    _check_ints(n=n)
    if n < 1:
        raise ValueError("ball radius must be at least 1")


def is_single_switch_sizes(orbit_sizes):
    sizes = sorted(orbit_sizes)
    return sizes[-1] == 2 and all(x == 1 for x in sizes[:-1])


def _kernel_factor(sizes, d):
    return prod(exact_div(factorial(x) ** (d + 1), x ** x) for x in sizes)


BallCounts = namedtuple(
    "BallCounts",
    "orbit_sizes n sphere orbit_spheres sym_product_order aut_ball_order kernel_orders",
)


def ball_counts(orbit_sizes, n):
    """Counts around the ball of radius n, computed two independent ways.

    The automorphism order is evaluated by the level recursion (root
    symmetries, then one kernel factor K^(d^k) per interior level k < n-1)
    and checked against the closed form with exponent (d^(n-1)-1)/(d-1).
    """
    sizes, d = check_orbit_sizes(orbit_sizes)
    _check_radius(n)
    m = d ** (n - 1)
    orbit_spheres = tuple(map(m.__mul__, sizes))
    root_order = prod(map(factorial, sizes))
    K = _kernel_factor(sizes, d)
    kernel_orders = tuple(K ** d ** k for k in range(n - 1))
    closed = root_order * K ** exact_div(m - 1, d - 1)
    assert root_order * prod(kernel_orders) == closed
    return BallCounts(
        sizes, n, (d + 1) * m, orbit_spheres, prod(map(factorial, orbit_spheres)),
        closed, kernel_orders,
    )


CovolumeChain = namedtuple("CovolumeChain", "orbit_sizes n gamma_order counts index_bound")


def covolume_chain(orbit_sizes, n, gamma_order):
    """Lower bound [prod Sym(sphere orbits) : Gamma_n] / |Aut(B_n)|.

    gamma_order is the order of the finite group through which the
    hypothetical cocompact lattice acts on the n-sphere.  By Lagrange it
    must divide the order of the product of symmetric groups on the
    sphere orbits; if it does not, the hypothesis is impossible and a
    ValueError says so.
    """
    _check_ints(gamma_order=gamma_order)
    counts = ball_counts(orbit_sizes, n)
    index_bound = _index_bound(counts, gamma_order)
    return CovolumeChain(counts.orbit_sizes, n, gamma_order, counts, index_bound)


def _index_bound(counts, gamma_order):
    """The index_bound of ``covolume_chain`` from the ball counts.  Aut(B_n)
    acts faithfully on the n-sphere and keeps each sphere orbit, so it is a
    subgroup of prod Sym(D_n^(i)) and, by Lagrange, its order divides
    sym_product_order: one exact division leaves gamma_order to reduce."""
    if gamma_order < 1:
        raise ValueError("gamma_order must be a positive integer")
    if counts.sym_product_order % gamma_order != 0:
        raise ValueError(
            "gamma_order %s does not divide the sphere symmetry order %s: "
            "no finite group of that order acts this way"
            % (_show_int(gamma_order), _show_int(counts.sym_product_order))
        )
    return Fraction(exact_div(counts.sym_product_order, counts.aut_ball_order), gamma_order)


def single_switch_covolume(d, n, gamma_order):
    """Closed form of the chain value for the order-2 single switch group."""
    _check_ints(d=d, n=n, gamma_order=gamma_order)
    if d < 2 or n < 1 or gamma_order < 1:
        raise ValueError("need d >= 2, n >= 1 and gamma_order >= 1")
    m = d ** (n - 1)
    numerator = factorial(2 * m) * factorial(m) ** (d - 1)
    return Fraction(numerator, 2 ** m * gamma_order)


class SmallestVerdict(namedtuple("SmallestVerdict", "orbit_sizes lhs rhs")):
    __slots__ = ()

    @property
    def holds(self):
        return self.lhs < self.rhs

    @property
    def equality(self):
        return self.lhs == self.rhs

    @property
    def verdict(self):
        if self.holds:
            return "holds"
        if self.equality:
            return "equality"
        return "reversed"

    @property
    def expected(self):
        """The verdict the paper's regime predicts for l + 1 orbits and
        d + 1 colours: holds iff l < d-1 and d > 2, equality only at (3,)."""
        l, d = len(self.orbit_sizes) - 1, sum(self.orbit_sizes) - 1
        if l < d - 1 and d > 2:
            return "holds"
        return "equality" if self.orbit_sizes == (3,) else "reversed"


def verify_smallest_inequality(orbit_sizes):
    """Integer form of the dominant-coefficient inequality.

    The logarithmic inequality
        (d-1)(ln(d+1) - ln d) < (d/(d+1)) sum x_i ln x_i - sum ln(x_i!)
    is equivalent, after multiplying by (d+1)(d-1) and exponentiating, to
        (d+1)^(d^2-1) * (prod x_i!)^(d+1)  <  d^(d^2-1) * prod x_i^(d*x_i),
    which is decided exactly.
    """
    sizes, d = check_orbit_sizes(orbit_sizes)
    fact_product = 1
    power_product = 1
    for x in sizes:
        fact_product *= factorial(x)
        power_product *= x ** (d * x)
    lhs = (d + 1) ** (d * d - 1) * fact_product ** (d + 1)
    rhs = d ** (d * d - 1) * power_product
    return SmallestVerdict(sizes, lhs, rhs)


def smallest_log_sign(orbit_sizes, start_bits=None):
    """Interval sign of the logarithmic form (rhs - lhs); independent check.

    The form is evaluated on fixed-point int pairs (see ``intervals``), its
    logarithms read from the process-wide table of ``fixed_log``.
    """
    sizes, d = check_orbit_sizes(orbit_sizes)
    if start_bits is None:
        start_bits = default_precision()

    def expression(prec):
        lo = hi = 0
        for x in sizes:
            a, b = fixed_log(x, prec)
            lo, hi = lo + x * a, hi + x * b
        lo, hi = lo * d // (d + 1), -(-hi * d // (d + 1))
        for x in sizes:
            a, b = fixed_log(factorial(x), prec)
            lo, hi = lo - b, hi - a
        (a, b), (c, e) = fixed_log(d + 1, prec), fixed_log(d, prec)
        # minus (d-1)(log(d+1) - log d)
        return lo - (d - 1) * (b - c), hi - (d - 1) * (a - e)

    return decide_sign(expression, start_bits=start_bits)


DominantCompare = namedtuple(
    "DominantCompare",
    "orbit_sizes lhs_coefficient rhs_coefficient strict_less equality single_switch boundary_case",
)


def _log_kernel_factor(orbit_sizes, d):
    return sum(
        (d + 1) * math.lgamma(x + 1) - x * math.log(x) for x in orbit_sizes
    )


def dominant_coefficient_compare(orbit_sizes):
    """Compare the d^(n-1) growth coefficients of the two sides.

    After the shared n*d^(n-1)*(d+1)*ln(d) term cancels, the coefficient on
    the automorphism side is ln(K)/(d-1) + (d+1)ln(d+1) - sum x_i ln x_i
    and on the volume side it is (d+1)ln(d); strictness is decided by the
    exact integer form, the floats are reported for inspection.
    """
    sizes, d = check_orbit_sizes(orbit_sizes)
    lhs = (
        _log_kernel_factor(sizes, d) / (d - 1)
        + (d + 1) * math.log(d + 1)
        - sum(x * math.log(x) for x in sizes)
    )
    rhs = (d + 1) * math.log(d)
    exact = verify_smallest_inequality(sizes)
    single_switch = is_single_switch_sizes(sizes)
    assert exact.verdict == exact.expected
    return DominantCompare(
        orbit_sizes=sizes,
        lhs_coefficient=lhs,
        rhs_coefficient=rhs,
        strict_less=exact.holds,
        equality=exact.equality,
        single_switch=single_switch,
        boundary_case=exact.expected == "equality",
    )


def log_ratio(orbit_sizes, n):
    """ln of |Aut(B_n)| * [Sym(S_n) : prod Sym(D_n^(i))] / d^|S_n|, the
    sphere index via lgamma."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    _check_radius(n)
    m = d ** (n - 1)
    aut_ball = sum(math.lgamma(x + 1) for x in sizes)
    aut_ball += (m - 1) / (d - 1) * _log_kernel_factor(sizes, d)
    sphere_index = math.lgamma((d + 1) * m + 1)
    for x in sizes:
        sphere_index -= math.lgamma(x * m + 1)
    return aut_ball + sphere_index - (d + 1) * m * math.log(d)


def _xi_capital():
    """The comparison functional as ``xi(parts, prec)``, a fixed-point int
    pair at prec bits (see ``intervals``).  While ``xi`` lives it keeps one
    pair of tables per precision: the running sums of p log p and of log p!
    by prefix, seeded with the empty one, and (x-1) log(x/(x+1)) by x.  A
    new prefix extends its longest known one; int sums are exact, so the
    pair does not depend on which prefixes were known, and tuples need not
    be sorted."""
    tables = {}

    def xi(parts, prec):
        sums, tails = tables.get(prec) or tables.setdefault(prec, ({(): (0, 0, 0, 0)}, {}))
        known = len(parts)
        while parts[:known] not in sums:
            known -= 1
        w_lo, w_hi, f_lo, f_hi = sums[parts[:known]]
        for k in range(known, len(parts)):
            p = parts[k]
            (a, b), (c, e) = fixed_log(p, prec), fixed_log(factorial(p), prec)
            w_lo, w_hi, f_lo, f_hi = w_lo + p * a, w_hi + p * b, f_lo + c, f_hi + e
            sums[parts[: k + 1]] = w_lo, w_hi, f_lo, f_hi
        x = sum(parts) - 1
        tail = tails.get(x)
        if tail is None:
            (a, b), (c, e) = fixed_log(x, prec), fixed_log(x + 1, prec)
            tail = tails[x] = (x - 1) * (a - e), (x - 1) * (b - c)
        return w_lo * x // (x + 1) - f_hi + tail[0], -(-w_hi * x // (x + 1)) - f_lo + tail[1]

    return xi


def _xi_step(xi, bigger, smaller):
    """The expression xi(bigger) - xi(smaller) for ``decide_sign``."""

    def expression(prec):
        (a, b), (c, e) = xi(bigger, prec), xi(smaller, prec)
        return a - e, b - c

    return expression


def _xi_tail(x, prec):
    """The single-variable tail function of the append-a-fixed-point step,
    log((x+1)/(x-1))/(x+2) - x log((x+2)/(x+1)) + (x-1) log((x+1)/x), as
    a fixed-point pair at prec bits."""
    (a0, b0), (a1, b1), (a2, b2) = (fixed_log(x + k, prec) for k in range(3))
    am, bm = fixed_log(x - 1, prec)
    lo = (a1 - bm) // (x + 2) - x * (b2 - a1) + (x - 1) * (a1 - b0)
    hi = -((am - b1) // (x + 2)) - x * (a2 - b1) + (x - 1) * (b1 - a0)
    return lo, hi


class XiClaimsReport(
    namedtuple(
        "XiClaimsReport",
        "max_x append_checked merge_checked tail_checked failures undecided max_bits boundary_note",
        defaults=("",),
    )
):
    __slots__ = ()

    @property
    def ok(self):
        return not self.failures and not self.undecided


def verify_xi_claims(max_x, start_bits=None):
    """Interval verification of the two monotonicity claims and the tail.

    Append step: appending a singleton part strictly increases the
    functional, checked for every partition with at most total-2 parts
    (the regime where the convexity bound behind the step applies; at
    total-1 parts the step genuinely fails, e.g. (2,1) -> (2,1,1)).
    Merge step: absorbing a singleton part into the smallest other part
    strictly increases the functional, checked whenever some other part
    exists.  Tail: the explicit one-variable lower bound function is
    strictly positive for 2 <= x <= max_x.  The claims are decided in that
    order: each partition's append and merge claims, then the tails.

    Within one call each value of the functional is evaluated once per
    precision: a partition met again at the same precision, say as the
    larger side of one step and the smaller side of another, reuses its
    fixed-point interval (see ``intervals``) from that precision's table.
    The functional's running sums are shared by prefix and its tail term by
    total, in tables per precision (see ``_xi_capital``); these tables live
    for the call, the logarithms in ``fixed_log``'s table for the process.
    """
    if max_x < 3:
        raise ValueError("max_x must be at least 3")
    if start_bits is None:
        start_bits = default_precision()
    capital = _xi_capital()
    values = {}

    def xi(parts, prec):
        # keyed on the tuple as given: a merged tuple need not be sorted,
        # and its order is the order of the sums
        table = values.get(prec) or values.setdefault(prec, {})
        value = table.get(parts)
        if value is None:
            value = table[parts] = capital(parts, prec)
        return value

    def claims():
        for total in range(3, max_x + 1):
            for parts in integer_partitions(total):
                if len(parts) <= total - 2:
                    yield "append", parts, _xi_step(xi, parts + (1,), parts)
                if len(parts) >= 2 and parts[-1] == 1 and len(parts) <= total - 1:
                    yield "merge", parts, _xi_step(xi, parts[:-2] + (parts[-2] + 1,), parts)
        for x in range(2, max_x + 1):
            yield "tail", x, lambda prec, x=x: _xi_tail(x, prec)

    checked = {"append": 0, "merge": 0, "tail": 0}
    failures, undecided, max_bits = [], [], 0
    for kind, subject, expression in claims():
        sign, value, bits = decide_sign(expression, start_bits=start_bits)
        checked[kind] += 1
        max_bits = max(max_bits, bits)
        if sign is None:
            undecided.append(((kind, subject), interval_width(value)))
        elif sign < 0:
            failures.append((kind, subject))
    return XiClaimsReport(
        max_x,
        *checked.values(),  # append, merge, tail
        failures,
        undecided,
        max_bits,
        "append step not asserted for partitions with total-1 parts; "
        "the underlying convexity bound needs at most total-2 parts",
    )


_SIEVE_LIMIT = 0
_SIEVE = bytearray((0, 0))


def _ensure_sieve(limit):
    global _SIEVE_LIMIT, _SIEVE
    if limit <= _SIEVE_LIMIT:
        return
    size = max(limit, 2 * _SIEVE_LIMIT, 1024)
    flags = bytearray([1]) * (size + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(size ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, size + 1, p)))
    _SIEVE_LIMIT = size
    _SIEVE = flags


def window_ends(m, k):
    """(count, least, greatest): the number of primes in (m/2, m] and the
    k least and the k greatest of them, read from the sieve in place."""
    _ensure_sieve(m)
    primes, flags = range(m // 2 + 1, m + 1), memoryview(_SIEVE)[m // 2 + 1 : m + 1]
    least = list(islice(compress(primes, flags), k))
    greatest = list(islice(compress(reversed(primes), reversed(flags)), k))[::-1]
    return _SIEVE.count(1, m // 2 + 1, m + 1), least, greatest


class PrimeWindowReport(namedtuple("PrimeWindowReport", "min_m max_m least_count least_at")):
    __slots__ = ()

    @property
    def always_at_least_three(self):
        return self.least_count >= 3


def verify_prime_windows(max_m, min_m=17):
    """Count primes in (m/2, m] for every m in [min_m, max_m].

    One count is updated from the sieve as m steps up: a prime p enters
    the window at m = p and leaves it at m = 2p."""
    _check_ints(max_m=max_m, min_m=min_m)
    if min_m < 1:
        raise ValueError("min_m must be at least 1")
    if max_m < min_m:
        raise ValueError("max_m must be at least %d" % min_m)
    _ensure_sieve(max_m)
    sieve = _SIEVE
    count = least_count = sum(sieve[min_m // 2 + 1 : min_m + 1])
    least_at = min_m
    for m in range(min_m + 1, max_m + 1):
        count += sieve[m]
        if not m & 1:
            count -= sieve[m >> 1]
        if count < least_count:
            least_count = count
            least_at = m
    return PrimeWindowReport(
        min_m=min_m, max_m=max_m, least_count=least_count, least_at=least_at
    )


AppendixCounts = namedtuple(
    "AppendixCounts",
    "d k n sphere aut_ball_order overcount_value overcount_matches bound bound_ok"
    " overcount_bound_ok",
)


def appendix_counts(d, k, n):
    """Ball automorphism counts for trees with a k-regular root and
    d-regular deeper levels.

    The level recursion gives a_1 = k! and a_m = a_(m-1) * d!^(k d^(m-2)),
    i.e. a_n = k! * d!^(k (d^(n-1)-1)/(d-1)).  The exponent is easy to get
    wrong by one level, so the value for the off-by-one exponent
    k (d^n - 1)/(d-1) is reported alongside, together with the bound
    k! * d^(k d^(n-1)): the recursion value always satisfies the bound,
    the off-by-one value already violates it at d = k = n = 2.
    """
    _check_ints(d=d, k=k, n=n)
    if d < 2 or k < 2:
        raise ValueError("d and k must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    sphere = k * d ** (n - 1)
    value = factorial(k)
    for m in range(2, n + 1):
        value *= factorial(d) ** (k * d ** (m - 2))
    closed = factorial(k) * factorial(d) ** (
        k * exact_div(d ** (n - 1) - 1, d - 1)
    )
    assert value == closed
    overcount = factorial(k) * factorial(d) ** (
        k * exact_div(d ** n - 1, d - 1)
    )
    bound = factorial(k) * d ** (k * d ** (n - 1))
    return AppendixCounts(
        d=d,
        k=k,
        n=n,
        sphere=sphere,
        aut_ball_order=value,
        overcount_value=overcount,
        overcount_matches=(overcount == value),
        bound=bound,
        bound_ok=(value <= bound),
        overcount_bound_ok=(overcount <= bound),
    )


def covolume_table_rows(orbit_sizes, max_n, gamma_order=None):
    """Rows for the covolume table: one per radius 1..max_n.  Given a
    gamma_order, each row also holds the ``index_bound`` of
    ``covolume_chain`` at its radius, from the same ball counts, so an
    order refused at any radius is refused before a row is returned."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    _check_ints(max_n=max_n)
    if gamma_order is not None:
        _check_ints(gamma_order=gamma_order)
    verdict = verify_smallest_inequality(sizes).verdict
    rows = []
    for n in range(1, max_n + 1):
        counts = ball_counts(sizes, n)
        row = {
            "d": d,
            "orbit_sizes": " ".join(str(x) for x in sizes),
            "n": n,
            "sphere": counts.sphere,
            "sym_product_order": counts.sym_product_order,
            "aut_ball_order": counts.aut_ball_order,
            "bound_ratio": "%.6f" % log_ratio(sizes, n),
            "inequality_verdict": verdict,
        }
        if gamma_order is not None:
            row["index_bound"] = _index_bound(counts, gamma_order)
        rows.append(row)
    return rows
