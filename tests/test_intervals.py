"""Adaptive-precision sign decisions: escalation, caps, environment knob."""

import math
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import (
    from_int,
    mpf_neg,
    mpf_pi,
    round_ceiling,
    round_floor,
    to_fixed,
    to_rational,
)
from mpmath.libmp.libmpi import mpi_log

from coloured_neretin import (
    decide_sign,
    default_precision,
    integer_partitions,
    interval_width,
    smallest_log_sign,
    verify_xi_claims,
)
from coloured_neretin import covolume, intervals
from coloured_neretin.intervals import LOG_TABLE_SIZE, MAX_BITS, fixed_log


def exact(n, bits):
    """The int n as a one-point fixed-point pair at bits, unrounded."""
    return n << bits, n << bits


def test_decide_sign_clearly_positive():
    sign, value, bits = decide_sign(lambda bits: fixed_log(2, bits), start_bits=64)
    assert sign == 1
    assert value[0] > 0
    assert bits == 64  # no escalation needed


def test_decide_sign_clearly_negative():
    def expr(bits):
        lo, hi = fixed_log(3, bits)
        return -hi, -lo

    sign, value, bits = decide_sign(expr, start_bits=64)
    assert sign == -1
    assert value[1] < 0
    assert bits == 64


def test_decide_sign_escalates_precision_for_tiny_differences():
    # log(10^50 + 1) - 50*log(10) is about 1e-50; 16 bits cannot resolve it.
    def expr(bits):
        (a, b), (c, e) = fixed_log(10 ** 50 + 1, bits), fixed_log(10, bits)
        return a - 50 * e, b - 50 * c

    sign, value, bits = decide_sign(expr, start_bits=16)
    assert sign == 1
    assert bits > 16
    assert interval_width(value) < 1e-45


def test_decide_sign_exact_zero_is_undecided():
    def expr(bits):
        a, b = fixed_log(2, bits)
        return a - b, b - a  # log 2 - log 2

    sign, value, bits = decide_sign(expr, start_bits=32, max_bits=128)
    assert sign is None
    assert value[0] <= 0 <= value[1]
    assert bits == 128  # the last precision tried, the cap


def test_undecided_reports_the_last_precision_tried():
    sign, value, bits = decide_sign(lambda bits: (0, 0), max_bits=256)
    assert (sign, value, bits) == (None, (0, 0, 256), 256)


def test_decide_sign_boundary_is_exact():
    # at each precision p, an interval touching zero is undecided however
    # narrow, and one a single unit 2^-p above or below zero is decided
    for prec in (1, 2, 16, 53, 128, 1024, MAX_BITS):
        for k in (0, 1, 1 << prec):
            for pair in ((0, k), (-k, 0)):
                result = decide_sign(lambda bits: pair, start_bits=prec, max_bits=prec)
                assert result == (None, pair + (prec,), prec), (prec, pair)
        for pair, expected in (((1, 1), 1), ((-1, -1), -1)):
            result = decide_sign(lambda bits: pair, start_bits=prec)
            assert result == (expected, pair + (prec,), prec), (prec, pair)


def test_no_interval_call_sets_the_global_precision(monkeypatch):
    context = type(iv)
    prec = context.prec
    writes = []

    def spy(ctx, value):
        writes.append(value)
        prec.fset(ctx, value)

    monkeypatch.setattr(context, "prec", property(prec.fget, spy))
    verify_xi_claims(12)
    verify_xi_claims(9, start_bits=4)
    smallest_log_sign((2, 2, 3))
    assert writes == []
    decide_sign(lambda bits: fixed_log(2, bits), start_bits=333)
    assert writes == []


def test_decide_sign_reads_default_precision(monkeypatch):
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "512")
    seen = []

    def expr(bits):
        seen.append(bits)
        return exact(1, bits)

    sign, _, bits = decide_sign(expr)
    assert sign == 1
    assert bits == 512
    assert seen[0] == 512


def test_default_precision_parsing(monkeypatch):
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "256")
    assert default_precision() == 256
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "not-a-number")
    assert default_precision() == 128
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "4")
    assert default_precision() == 16  # the floor
    monkeypatch.delenv("COLOURED_NERETIN_PRECISION")
    assert default_precision() == 128


def test_interval_width():
    assert interval_width((1 << 7, 2 << 7, 7)) == 1.0
    assert interval_width(exact(3, 7) + (7,)) == 0.0
    # a decimal that is not a binary fraction has a genuine, tiny width
    tenth = (1 << 64) // 10, -(-(1 << 64) // 10), 64
    assert 0 < interval_width(tenth) < 1e-15
    # a width above the largest float rounds up to inf
    assert interval_width((-(1 << 5000), 1 << 5000, 16)) == math.inf


def test_interval_width_below_the_smallest_float():
    # the equality case (3,) stays undecided at the cap, on an interval
    # narrower than any positive float: its width must still read positive
    sign, value, bits = smallest_log_sign((3,), start_bits=16384)
    assert sign is None and bits == 16384
    assert value[0] < value[1]
    assert interval_width(value) > 0


def test_interval_width_of_an_undecided_result():
    # a wide interval whose width needs more than 53 bits: the exact width
    # 2 + 2^-64 is rounded up, not to the nearest float 2.0
    sign, value, bits = decide_sign(
        lambda bits: (-(1 << bits), (1 << bits) + 1), start_bits=16, max_bits=64
    )
    assert sign is None and bits == 64
    width = interval_width(value)
    assert type(width) is float and math.isfinite(width)
    assert 2 < width < 2 + 1e-15


def test_public_calls_read_the_default_precision_once(monkeypatch):
    reads = []

    def counted():
        reads.append(None)
        return 128

    monkeypatch.setattr(intervals, "default_precision", counted)
    monkeypatch.setattr(covolume, "default_precision", counted)
    verify_xi_claims(12)
    assert len(reads) == 1
    smallest_log_sign((2, 2, 3))
    assert len(reads) == 2


def test_decide_sign_reports_the_settling_interval():
    def expr(bits):
        lo = to_fixed(mpf_pi(bits, round_floor), bits)
        hi = -to_fixed(mpf_neg(mpf_pi(bits, round_ceiling)), bits)
        return lo - (3 << bits), hi - (3 << bits)

    sign, (lo, hi, _), bits = decide_sign(expr, start_bits=53)
    assert sign == 1
    assert 0.1415 < Fraction(lo, 1 << bits) <= Fraction(hi, 1 << bits) < 0.1416


# -- the table of logarithms ---------------------------------------------------------


def test_each_logarithm_is_evaluated_once_per_process(monkeypatch):
    # the smallest forms twice over, then the Xi claims: every (n, prec) the
    # table is asked for is evaluated by the kernel exactly once, so a second
    # sweep of the same forms evaluates nothing
    keys = []
    kernel = intervals._log

    def counted(n, prec):
        keys.append((n, prec))
        return kernel(n, prec)

    fixed_log.cache_clear()
    monkeypatch.setattr(intervals, "_log", counted)
    partitions = [sizes for d in range(2, 9) for sizes in integer_partitions(d + 1)]
    assert len(partitions) == 93
    sweeps = []
    for _ in range(2):
        for sizes in partitions:
            smallest_log_sign(sizes)
        sweeps.append(len(keys))
    verify_xi_claims(12)
    assert sweeps[0] == sweeps[1] > 0
    assert len(keys) > sweeps[1]
    assert len(keys) == len(set(keys)) == fixed_log.cache_info().currsize
    fixed_log.cache_clear()


def test_the_log_table_keeps_its_bound():
    fixed_log.cache_clear()
    for n in range(1, LOG_TABLE_SIZE + 101):
        fixed_log(n, 16)
        assert fixed_log.cache_info().currsize <= LOG_TABLE_SIZE
    assert fixed_log.cache_info().currsize == LOG_TABLE_SIZE
    misses = fixed_log.cache_info().misses
    fixed_log(1, 16)  # the oldest entry was dropped
    assert fixed_log.cache_info().misses == misses + 1
    fixed_log.cache_clear()


def fixed_mpi_log(n, prec):
    """mpmath's enclosure of ln n at prec bits as a fixed-point pair: its
    lower end rounded down to a multiple of 2^-prec, its upper end up."""
    ends = mpi_log((from_int(n), from_int(n)), prec)
    lower, upper = (Fraction(*to_rational(end)) * (1 << prec) for end in ends)
    return math.floor(lower), math.ceil(upper)


LOG_CASES = [(1, 16), (2, 3), (3, 128), (720, 256), (10 ** 50 + 1, 1024), (2, MAX_BITS)]
# every n ≤ 300 and 2^64 ± 1 at precisions from 2 to 1 024 bits, and every
# 13th n of them at 4 096 bits
LOG_N = [*range(1, 301), 2 ** 64 - 1, 2 ** 64 + 1]
LOG_GRID = [
    (n, prec)
    for prec in (2, 3, 4, 5, 8, 16, 31, 53, 64, 127, 128, 256, 512, 1024)
    for n in LOG_N
] + [(n, 4096) for n in LOG_N[::13]]


def test_a_table_pair_encloses_ln_n_no_wider_than_mpi_log():
    fixed_log.cache_clear()
    cases = list(dict.fromkeys(LOG_CASES + LOG_GRID))
    for n, prec in cases:
        lo, hi = fixed_log(n, prec)  # computed
        assert fixed_log(n, prec) == (lo, hi)  # read from the table
        # ln n lies in mpmath's enclosure at 64 more bits, which lies in the pair
        lower, upper = fixed_mpi_log(n, prec + 64)
        assert lo << 64 <= lower <= upper <= hi << 64, (n, prec)
        # and the pair is no wider than mpmath's at prec bits
        mpmath_lo, mpmath_hi = fixed_mpi_log(n, prec)
        assert hi - lo <= mpmath_hi - mpmath_lo, (n, prec)
        assert lo < hi or n == 1
    assert fixed_log.cache_info().hits == len(cases)
    fixed_log.cache_clear()
