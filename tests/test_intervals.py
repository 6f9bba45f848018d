"""Adaptive-precision sign decisions: escalation, caps, environment knob."""

import math
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import mpf_neg, mpf_pi, round_ceiling, round_floor, to_fixed

from coloured_neretin import (
    decide_sign,
    default_precision,
    interval_width,
    smallest_log_sign,
    verify_xi_claims,
)
from coloured_neretin import covolume, intervals
from coloured_neretin.intervals import MAX_BITS, fixed_log


def exact(n, bits):
    """The int n as a one-point fixed-point pair at bits, unrounded."""
    return n << bits, n << bits


def test_decide_sign_clearly_positive():
    log = fixed_log()
    sign, value, bits = decide_sign(lambda bits: log(2, bits), start_bits=64)
    assert sign == 1
    assert value[0] > 0
    assert bits == 64  # no escalation needed


def test_decide_sign_clearly_negative():
    log = fixed_log()

    def expr(bits):
        lo, hi = log(3, bits)
        return -hi, -lo

    sign, value, bits = decide_sign(expr, start_bits=64)
    assert sign == -1
    assert value[1] < 0
    assert bits == 64


def test_decide_sign_escalates_precision_for_tiny_differences():
    # log(10^50 + 1) - 50*log(10) is about 1e-50; 16 bits cannot resolve it.
    log = fixed_log()

    def expr(bits):
        (a, b), (c, e) = log(10 ** 50 + 1, bits), log(10, bits)
        return a - 50 * e, b - 50 * c

    sign, value, bits = decide_sign(expr, start_bits=16)
    assert sign == 1
    assert bits > 16
    assert interval_width(value) < 1e-45


def test_decide_sign_exact_zero_is_undecided():
    log = fixed_log()

    def expr(bits):
        a, b = log(2, bits)
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
    log = fixed_log()
    decide_sign(lambda bits: log(2, bits), start_bits=333)
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
    assert default_precision() == 16  # floor keeps mpmath workable
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
