"""Adaptive-precision sign decisions: escalation, caps, environment knob."""

import math

from mpmath import iv
from mpmath.libmp import from_int, from_man_exp, mpf_pi, round_ceiling, round_floor
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sub,
    mpi_zero,
)

from coloured_neretin import (
    decide_sign,
    default_precision,
    interval_width,
    smallest_log_sign,
    verify_xi_claims,
)
from coloured_neretin import covolume, intervals


def exact(n):
    """The int n as a one-point endpoint pair, unrounded."""
    value = from_int(n)
    return value, value


def test_decide_sign_clearly_positive():
    sign, value, bits = decide_sign(lambda bits: mpi_log(exact(2), bits), start_bits=64)
    assert sign == 1
    assert value.a > 0
    assert bits == 64  # no escalation needed


def test_decide_sign_clearly_negative():
    sign, value, bits = decide_sign(
        lambda bits: mpi_neg(mpi_exp(exact(1), bits), bits), start_bits=64
    )
    assert sign == -1
    assert value.b < 0
    assert bits == 64


def test_decide_sign_escalates_precision_for_tiny_differences():
    # log(10^50 + 1) - 50*log(10) is about 1e-50; 16 bits cannot resolve it.
    def expr(bits):
        big = mpi_add(mpi_pow_int(exact(10), 50, bits), exact(1), bits)
        tens = mpi_mul(exact(50), mpi_log(exact(10), bits), bits)
        return mpi_sub(mpi_log(big, bits), tens, bits)

    sign, value, bits = decide_sign(expr, start_bits=16)
    assert sign == 1
    assert bits > 16
    assert interval_width(value) < 1e-45


def test_decide_sign_exact_zero_is_undecided():
    sign, value, bits = decide_sign(lambda bits: mpi_sub(exact(1), exact(1), bits),
                                    start_bits=32, max_bits=128)
    assert sign is None
    assert value.a <= 0 <= value.b
    assert bits == 128  # the last precision tried, the cap


def test_undecided_reports_the_last_precision_tried():
    sign, value, bits = decide_sign(lambda bits: mpi_zero, max_bits=256)
    assert (sign, value, bits) == (None, iv.mpf(0), 256)


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
    decide_sign(lambda bits: mpi_log(exact(2), bits), start_bits=333)
    assert writes == []


def test_decide_sign_reads_default_precision(monkeypatch):
    monkeypatch.setenv("COLOURED_NERETIN_PRECISION", "512")
    seen = []

    def expr(bits):
        seen.append(bits)
        return exact(1)

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
    assert interval_width(iv.mpf([1, 2])) == 1.0
    assert interval_width(iv.mpf(3)) == 0.0
    # a decimal that is not a binary fraction has a genuine, tiny width
    assert 0 < interval_width(iv.mpf("0.1")) < 1e-15


def test_interval_width_of_an_undecided_result():
    # a wide interval whose endpoints need more than 53 bits: the width is
    # taken from the endpoints, rounded up, whatever iv.prec is
    sign, value, bits = decide_sign(
        lambda bits: (from_int(-1), from_man_exp(2**100 + 1, -100)), start_bits=16, max_bits=64
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
        pi = mpf_pi(bits, round_floor), mpf_pi(bits, round_ceiling)
        return mpi_sub(pi, exact(3), bits)

    sign, value, bits = decide_sign(expr, start_bits=53)
    assert sign == 1
    assert 0.1415 < float(value.a) <= float(value.b) < 0.1416
