"""Adaptive-precision interval sign decisions.

Inequalities that mix incommensurable logarithms are decided by evaluating
the difference in mpmath interval arithmetic, doubling the working
precision until the interval excludes zero.  The starting precision comes
from the COLOURED_NERETIN_PRECISION environment variable (bits, default
128); an inequality that stays undecided at the precision cap is reported
as undecided, never as true or false.
"""

from __future__ import annotations

import os
from fractions import Fraction

from mpmath import iv

MAX_BITS = 1 << 14


def default_precision():
    try:
        bits = int(os.environ.get("COLOURED_NERETIN_PRECISION", "128"))
    except ValueError:
        bits = 128
    return max(16, bits)


def decide_sign(expression, start_bits=None, max_bits=MAX_BITS):
    """Sign of expression() evaluated in interval arithmetic.

    ``expression`` is called with no arguments and must build its value from
    the ``mpmath.iv`` context.  Returns (sign, interval, bits) where sign is
    +1, -1 or None (undecided at max_bits) and bits is the precision that
    settled the question, or the last one tried when none did.  A start
    above max_bits is lowered to max_bits.
    """
    bits = min(start_bits if start_bits is not None else default_precision(), max_bits)
    while True:
        saved = iv.prec
        try:
            iv.prec = bits
            value = expression()
        finally:
            iv.prec = saved
        if value.a > 0:
            return 1, value, bits
        if value.b < 0:
            return -1, value, bits
        if 2 * bits > max_bits:
            return None, value, bits
        bits *= 2


def memoised_log():
    """A fresh interval logarithm that evaluates each argument once per
    precision.

    The returned ``log(x)`` takes an int or a Fraction and returns
    ``iv.log(iv.mpf(x))`` (for a Fraction n/m, ``iv.log(iv.mpf(n) / m)``)
    at the current ``iv.prec``, kept under the key (x, iv.prec); a later
    call with the same key returns the same interval.  The table lives as
    long as the returned function, so make one per public call: no
    interval outlives the call that decides with it.
    """
    values = {}

    def log(x):
        key = (x, iv.prec)
        value = values.get(key)
        if value is None:
            if type(x) is Fraction:
                value = iv.log(iv.mpf(x.numerator) / x.denominator)
            else:
                value = iv.log(iv.mpf(x))
            values[key] = value
        return value

    return log


def interval_width(value):
    return float(value.b - value.a)
