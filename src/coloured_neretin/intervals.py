"""Adaptive-precision interval sign decisions.

Inequalities that mix incommensurable logarithms are decided in interval
arithmetic on mpmath's endpoint pairs (``mpmath.libmp.libmpi``): an
expression takes the working precision in bits and returns a pair (a, b)
of mpf endpoints built with ``mpi_add``, ``mpi_sub``, ``mpi_mul``,
``mpi_div`` and ``mpi_log`` at that precision, an int n entering as
``_int_interval(n, bits)``.  The precision doubles until the interval
excludes zero.  Precision is always passed explicitly: no decision reads
or writes the global ``iv.prec`` of mpmath's interval context, so
decisions may nest.  The starting precision comes from the
COLOURED_NERETIN_PRECISION environment variable (bits, default 128); an
inequality that stays undecided at the precision cap is reported as
undecided, never as true or false.
"""

from __future__ import annotations

import os
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import from_int, mpf_sign, mpf_sub, round_ceiling, round_floor, to_float
from mpmath.libmp.libmpi import mpi_div, mpi_log

MAX_BITS = 1 << 14


def default_precision():
    try:
        bits = int(os.environ.get("COLOURED_NERETIN_PRECISION", "128"))
    except ValueError:
        bits = 128
    return max(16, bits)


def _int_interval(n, prec):
    """The int n as an endpoint pair at prec bits, rounded outwards; the
    pair mpmath's interval context makes of an int at that precision."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def decide_sign(expression, start_bits=None, max_bits=MAX_BITS):
    """Sign of the interval expression(bits).

    ``expression`` is called with the working precision in bits and returns
    an endpoint pair (a, b) computed at that precision (see the module
    docstring); ``iv.prec`` is never read or written.  Returns (sign, value,
    bits) where sign is +1, -1 or None (undecided at max_bits), value is the
    last pair as an ``mpmath.iv`` interval and bits is the precision that
    settled the question, or the last one tried when none did.  A start
    above max_bits is lowered to max_bits.
    """
    bits = min(start_bits if start_bits is not None else default_precision(), max_bits)
    while True:
        a, b = expression(bits)
        sign = 1 if mpf_sign(a) > 0 else -1 if mpf_sign(b) < 0 else None
        if sign is not None or 2 * bits > max_bits:
            return sign, iv.make_mpf((a, b)), bits
        bits *= 2


def memoised_log():
    """A fresh interval logarithm that evaluates each argument once per
    precision.

    The returned ``log(x, prec)`` takes an int or a Fraction and returns
    the endpoint pair ``mpi_log`` gives at prec bits for the int x (for a
    Fraction n/m, for ``mpi_div`` of n by m), kept under the key (x, prec);
    a later call with the same key returns the same pair.  The table lives
    as long as the returned function, so make one per public call: no
    interval outlives the call that decides with it.
    """
    values = {}

    def log(x, prec):
        key = (x, prec)
        value = values.get(key)
        if value is None:
            if type(x) is Fraction:
                value = mpi_div(
                    _int_interval(x.numerator, prec),
                    _int_interval(x.denominator, prec),
                    prec,
                )
            else:
                value = _int_interval(x, prec)
            value = values[key] = mpi_log(value, prec)
        return value

    return log


def interval_width(value):
    """Width b - a of an ``mpmath.iv`` interval as a float, rounded up:
    the endpoints are subtracted at 53 bits, not at ``iv.prec``."""
    a, b = value._mpi_
    return to_float(mpf_sub(b, a, 53, round_ceiling), rnd=round_ceiling)
