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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_log, mpi_mul, mpi_sub, mpi_zero

from .abelianization import check_orbit_sizes
from .intervals import _int_interval, decide_sign, default_precision, interval_width, memoised_log


def exact_div(a, b):
    q, r = divmod(a, b)
    assert r == 0, "%d is not divisible by %d" % (a, b)
    return q


def integer_partitions(total, max_part=None):
    """Partitions of ``total`` as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, max_part), 0, -1):
        for rest in integer_partitions(total - head, head):
            yield (head,) + rest


def compositions(total):
    """Ordered decompositions of ``total`` into positive parts."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def is_single_switch_sizes(orbit_sizes):
    sizes = sorted(orbit_sizes)
    return sizes[-1] == 2 and all(x == 1 for x in sizes[:-1])


def kernel_factor(orbit_sizes):
    """Order of the kernel contribution of one interior vertex level."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    value = 1
    for x in sizes:
        value *= exact_div(factorial(x) ** (d + 1), x ** x)
    return value


@dataclass(frozen=True)
class BallCounts:
    orbit_sizes: tuple
    n: int
    sphere: int
    orbit_spheres: tuple
    sym_product_order: int
    aut_ball_order: int
    kernel_orders: tuple


def ball_counts(orbit_sizes, n):
    """Counts around the ball of radius n, computed two independent ways.

    The automorphism order is evaluated by the level recursion (root
    symmetries, then one kernel factor per interior level) and checked
    against the closed form with exponent (d^(n-1)-1)/(d-1).
    """
    sizes, d = check_orbit_sizes(orbit_sizes)
    if n < 1:
        raise ValueError("ball radius must be at least 1")
    sphere = (d + 1) * d ** (n - 1)
    orbit_spheres = tuple(x * d ** (n - 1) for x in sizes)
    sym_product_order = 1
    for m in orbit_spheres:
        sym_product_order *= factorial(m)

    root_order = 1
    for x in sizes:
        root_order *= factorial(x)
    K = kernel_factor(sizes)

    aut = root_order
    kernel_orders = []
    for m in range(2, n + 1):
        ker = K ** (d ** (m - 2))
        kernel_orders.append(ker)
        aut *= ker

    closed = root_order * K ** exact_div(d ** (n - 1) - 1, d - 1)
    assert aut == closed
    return BallCounts(
        orbit_sizes=sizes,
        n=n,
        sphere=sphere,
        orbit_spheres=orbit_spheres,
        sym_product_order=sym_product_order,
        aut_ball_order=closed,
        kernel_orders=tuple(kernel_orders),
    )


@dataclass(frozen=True)
class CovolumeChain:
    orbit_sizes: tuple
    n: int
    gamma_order: int
    counts: BallCounts
    index_bound: Fraction


def covolume_chain(orbit_sizes, n, gamma_order):
    """Lower bound [prod Sym(sphere orbits) : Gamma_n] / |Aut(B_n)|.

    gamma_order is the order of the finite group through which the
    hypothetical cocompact lattice acts on the n-sphere.  By Lagrange it
    must divide the order of the product of symmetric groups on the
    sphere orbits; if it does not, the hypothesis is impossible and a
    ValueError says so.
    """
    counts = ball_counts(orbit_sizes, n)
    gamma_order = int(gamma_order)
    if gamma_order < 1:
        raise ValueError("gamma_order must be a positive integer")
    if counts.sym_product_order % gamma_order != 0:
        raise ValueError(
            "gamma_order %d does not divide the sphere symmetry order %d: "
            "no finite group of that order acts this way"
            % (gamma_order, counts.sym_product_order)
        )
    index_bound = Fraction(
        counts.sym_product_order, gamma_order * counts.aut_ball_order
    )
    return CovolumeChain(
        orbit_sizes=counts.orbit_sizes,
        n=n,
        gamma_order=gamma_order,
        counts=counts,
        index_bound=index_bound,
    )


def single_switch_covolume(d, n, gamma_order):
    """Closed form of the chain value for the order-2 single switch group."""
    m = d ** (n - 1)
    numerator = factorial(2 * m) * factorial(m) ** (d - 1)
    return Fraction(numerator, 2 ** m * gamma_order)


@dataclass(frozen=True)
class SmallestVerdict:
    orbit_sizes: tuple
    lhs: int
    rhs: int

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
    return SmallestVerdict(orbit_sizes=sizes, lhs=lhs, rhs=rhs)


def smallest_log_sign(orbit_sizes, start_bits=None):
    """Interval sign of the logarithmic form (rhs - lhs); independent check.

    Each logarithm is evaluated once per precision within the call (see
    ``memoised_log``); the expression and its order of operations are those
    of the form itself, so the interval is the one the plain form gives.
    """
    sizes, d = check_orbit_sizes(orbit_sizes)
    if start_bits is None:
        start_bits = default_precision()
    log = memoised_log()

    def expression(prec):
        rhs = mpi_zero
        for x in sizes:
            rhs = mpi_add(rhs, mpi_mul(_int_interval(x, prec), log(x, prec), prec), prec)
        ratio = mpi_div(_int_interval(d, prec), _int_interval(d + 1, prec), prec)
        rhs = mpi_mul(rhs, ratio, prec)
        for x in sizes:
            rhs = mpi_sub(rhs, log(factorial(x), prec), prec)
        gap = mpi_sub(log(d + 1, prec), log(d, prec), prec)
        lhs = mpi_mul(_int_interval(d - 1, prec), gap, prec)
        return mpi_sub(rhs, lhs, prec)

    return decide_sign(expression, start_bits=start_bits)


@dataclass(frozen=True)
class DominantCompare:
    orbit_sizes: tuple
    lhs_coefficient: float
    rhs_coefficient: float
    strict_less: bool
    equality: bool
    single_switch: bool
    boundary_case: bool


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
    l = len(sizes) - 1
    lhs = (
        _log_kernel_factor(sizes, d) / (d - 1)
        + (d + 1) * math.log(d + 1)
        - sum(x * math.log(x) for x in sizes)
    )
    rhs = (d + 1) * math.log(d)
    exact = verify_smallest_inequality(sizes)
    single_switch = is_single_switch_sizes(sizes)
    if l < d - 1 and d > 2:
        expected = "holds"
    elif d == 2 and l == 0:
        expected = "equality"
    else:
        expected = "reversed"
    assert exact.verdict == expected
    return DominantCompare(
        orbit_sizes=sizes,
        lhs_coefficient=lhs,
        rhs_coefficient=rhs,
        strict_less=exact.holds,
        equality=exact.equality,
        single_switch=single_switch,
        boundary_case=(d == 2 and l == 0),
    )


def log_aut_ball(orbit_sizes, n):
    sizes, d = check_orbit_sizes(orbit_sizes)
    base = sum(math.lgamma(x + 1) for x in sizes)
    return base + (d ** (n - 1) - 1) / (d - 1) * _log_kernel_factor(sizes, d)


def log_sphere_index(orbit_sizes, n):
    """ln [Sym(sphere) : prod Sym(sphere orbits)] via lgamma."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    m = d ** (n - 1)
    value = math.lgamma((d + 1) * m + 1)
    for x in sizes:
        value -= math.lgamma(x * m + 1)
    return value


def log_ratio(orbit_sizes, n):
    """ln of |Aut(B_n)| * [Sym(S_n) : prod Sym(D_n^(i))] / d^|S_n|."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    return (
        log_aut_ball(sizes, n)
        + log_sphere_index(sizes, n)
        - (d + 1) * d ** (n - 1) * math.log(d)
    )


def _xi_capital(log):
    """The comparison functional as ``xi(parts, prec)``, an endpoint pair at
    prec bits; ``log`` is a ``memoised_log``.  While ``xi`` lives it keeps
    the running sums of p log p (p > 1) and of log p! by (prefix, prec), and
    x/(x+1) and (x-1) log(x/(x+1)) by (x, prec).  A new prefix extends its
    longest known one by the rounded steps of the literal sum, in its order,
    so every endpoint is the literal one, for unsorted tuples too."""
    sums = {}
    ends = {}

    def xi(parts, prec):
        known = len(parts)
        while known and (parts[:known], prec) not in sums:
            known -= 1
        weighted, log_facts = sums.get((parts[:known], prec), (mpi_zero, mpi_zero))
        for k in range(known, len(parts)):
            p = parts[k]
            if p > 1:
                weighted = mpi_add(
                    weighted, mpi_mul(_int_interval(p, prec), log(p, prec), prec), prec
                )
            log_facts = mpi_add(log_facts, log(factorial(p), prec), prec)
            sums[(parts[: k + 1], prec)] = weighted, log_facts
        x = sum(parts) - 1
        if (x, prec) not in ends:
            ends[x, prec] = (
                mpi_div(_int_interval(x, prec), _int_interval(x + 1, prec), prec),
                mpi_mul(_int_interval(x - 1, prec), log(Fraction(x, x + 1), prec), prec),
            )
        ratio, tail = ends[x, prec]
        return mpi_add(mpi_sub(mpi_mul(ratio, weighted, prec), log_facts, prec), tail, prec)

    return xi


def _xi_small_iv(x, prec):
    """The single-variable tail function of the append-a-fixed-point step,
    as an endpoint pair at prec bits."""
    one = _int_interval(1, prec)
    x = _int_interval(x, prec)
    up = mpi_add(x, one, prec)
    down = mpi_sub(x, one, prec)
    up2 = mpi_add(x, _int_interval(2, prec), prec)
    first = mpi_div(mpi_log(mpi_div(up, down, prec), prec), up2, prec)
    second = mpi_mul(x, mpi_log(mpi_div(up2, up, prec), prec), prec)
    third = mpi_mul(down, mpi_log(mpi_div(up, x, prec), prec), prec)
    return mpi_add(mpi_sub(first, second, prec), third, prec)


@dataclass
class XiClaimsReport:
    max_x: int
    append_checked: int
    merge_checked: int
    tail_checked: int
    failures: list
    undecided: list
    max_bits: int
    boundary_note: str = ""

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
    strictly positive for 2 <= x <= max_x.

    Within one call each logarithm and each value of the functional is
    evaluated once per precision: a partition met again at the same
    precision, say as the larger side of one step and the smaller side of
    another, reuses its interval, which is the one the literal expression
    gives.  The functional's running sums are shared by prefix and its
    ratio and tail terms by total (see ``_xi_capital``); like the
    logarithms, these tables are made afresh for each call and dropped
    when it returns.
    """
    if max_x < 3:
        raise ValueError("max_x must be at least 3")
    if start_bits is None:
        start_bits = default_precision()
    capital = _xi_capital(memoised_log())
    values = {}

    def xi(parts, prec):
        # keyed on the tuple as given: a merged tuple need not be sorted,
        # and its order is the order of the sums
        key = (parts, prec)
        value = values.get(key)
        if value is None:
            value = values[key] = capital(parts, prec)
        return value

    failures = []
    undecided = []
    append_checked = 0
    merge_checked = 0
    tail_checked = 0
    max_bits = 0

    def record(tag, sign, bits, value):
        nonlocal max_bits
        max_bits = max(max_bits, bits)
        if sign is None:
            undecided.append((tag, interval_width(value)))
        elif sign < 0:
            failures.append(tag)

    for total in range(3, max_x + 1):
        for parts in integer_partitions(total):
            if len(parts) <= total - 2:
                bigger = parts + (1,)
                sign, value, bits = decide_sign(
                    lambda prec, a=bigger, b=parts: mpi_sub(xi(a, prec), xi(b, prec), prec),
                    start_bits=start_bits,
                )
                append_checked += 1
                record(("append", parts), sign, bits, value)
            if len(parts) >= 2 and parts[-1] == 1 and len(parts) <= total - 1:
                merged = parts[:-2] + (parts[-2] + 1,)
                sign, value, bits = decide_sign(
                    lambda prec, a=merged, b=parts: mpi_sub(xi(a, prec), xi(b, prec), prec),
                    start_bits=start_bits,
                )
                merge_checked += 1
                record(("merge", parts), sign, bits, value)
    for x in range(2, max_x + 1):
        sign, value, bits = decide_sign(
            lambda prec, x=x: _xi_small_iv(x, prec), start_bits=start_bits
        )
        tail_checked += 1
        record(("tail", x), sign, bits, value)
    return XiClaimsReport(
        max_x=max_x,
        append_checked=append_checked,
        merge_checked=merge_checked,
        tail_checked=tail_checked,
        failures=failures,
        undecided=undecided,
        max_bits=max_bits,
        boundary_note=(
            "append step not asserted for partitions with total-1 parts; "
            "the underlying convexity bound needs at most total-2 parts"
        ),
    )


_SIEVE_LIMIT = 0
_SIEVE = bytearray((0, 0))
_PRIME_COUNTS = [0, 0]


def _ensure_sieve(limit):
    global _SIEVE_LIMIT, _SIEVE, _PRIME_COUNTS
    if limit <= _SIEVE_LIMIT:
        return
    size = max(limit, 2 * _SIEVE_LIMIT, 1024)
    flags = bytearray([1]) * (size + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(size ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    counts = [0] * (size + 1)
    running = 0
    for i in range(size + 1):
        running += flags[i]
        counts[i] = running
    _SIEVE_LIMIT = size
    _SIEVE = flags
    _PRIME_COUNTS = counts


def window_primes(m):
    """Primes p with m/2 < p <= m."""
    if m < 2:
        return []
    _ensure_sieve(m)
    return [p for p in range(m // 2 + 1, m + 1) if _SIEVE[p]]


@dataclass(frozen=True)
class PrimeWindowReport:
    min_m: int
    max_m: int
    least_count: int
    least_at: int

    @property
    def always_at_least_three(self):
        return self.least_count >= 3


def verify_prime_windows(max_m, min_m=17):
    """Count primes in (m/2, m] for every m in [min_m, max_m]."""
    if max_m < min_m:
        raise ValueError("max_m must be at least %d" % min_m)
    _ensure_sieve(max_m)
    least_count = None
    least_at = min_m
    for m in range(min_m, max_m + 1):
        count = _PRIME_COUNTS[m] - _PRIME_COUNTS[m // 2]
        if least_count is None or count < least_count:
            least_count = count
            least_at = m
    return PrimeWindowReport(
        min_m=min_m, max_m=max_m, least_count=least_count, least_at=least_at
    )


@dataclass(frozen=True)
class AppendixCounts:
    d: int
    k: int
    n: int
    sphere: int
    aut_ball_order: int
    overcount_value: int
    overcount_matches: bool
    bound: int
    bound_ok: bool
    overcount_bound_ok: bool


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


def covolume_table_rows(orbit_sizes, max_n):
    """Rows for the covolume table: one per radius 1..max_n."""
    sizes, d = check_orbit_sizes(orbit_sizes)
    verdict = verify_smallest_inequality(sizes).verdict
    rows = []
    for n in range(1, max_n + 1):
        counts = ball_counts(sizes, n)
        rows.append(
            {
                "d": d,
                "orbit_sizes": " ".join(str(x) for x in sizes),
                "n": n,
                "sphere": counts.sphere,
                "sym_product_order": counts.sym_product_order,
                "aut_ball_order": counts.aut_ball_order,
                "bound_ratio": "%.6f" % log_ratio(sizes, n),
                "inequality_verdict": verdict,
            }
        )
    return rows
