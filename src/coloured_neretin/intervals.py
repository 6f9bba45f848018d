"""Adaptive-precision interval sign decisions.

An interval expression takes the working precision p in bits and returns
a fixed-point pair (lo, hi) of Python ints: the interval [lo, hi]·2⁻ᵖ,
which contains the exact value.  ``decide_sign`` doubles the precision
until the interval excludes zero.  Precision is always passed explicitly:
no decision reads or writes the global ``iv.prec`` of mpmath's interval
context, so decisions may nest.  The starting precision comes from the
COLOURED_NERETIN_PRECISION environment variable (bits, default 128); an
inequality that stays undecided at the precision cap is reported as
undecided, never as true or false.

A sum adds endpoints, a difference subtracts each endpoint from the
other's opposite one, and a product with an int k ≥ 0 is (k·lo, k·hi): all
exact.  Every rounding is outwards, a floor on lo and a ceiling on hi: a
product with a positive rational n/m is (⌊lo·n/m⌋, ⌈hi·n/m⌉), and the
logarithm of an int (``fixed_log``) is mpmath's ``mpi_log`` enclosure at p
bits with its lower end floored and its upper end ceiled to multiples of
2⁻ᵖ; log(n/m) is log n − log m.  One bounded table of these logarithms
serves the whole process: a pair depends only on (n, p), so every caller
gets the same pair whether or not it was already in the table.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

MAX_BITS = 1 << 14
LOG_TABLE_SIZE = 4096


def default_precision():
    try:
        bits = int(os.environ.get("COLOURED_NERETIN_PRECISION", "128"))
    except ValueError:
        bits = 128
    return max(16, bits)


def decide_sign(expression, start_bits=None, max_bits=MAX_BITS):
    """Sign of the interval expression(bits).

    ``expression`` is called with the working precision p in bits and
    returns the fixed-point pair (lo, hi) computed at that precision (see
    the module docstring).  Returns (sign, value, bits) where sign is +1,
    -1 or None (undecided at max_bits), value is the last pair as the
    triple (lo, hi, bits) and bits is the precision that settled the
    question, or the last one tried when none did.  A start above max_bits
    is lowered to max_bits.
    """
    bits = min(start_bits if start_bits is not None else default_precision(), max_bits)
    while True:
        lo, hi = expression(bits)
        sign = 1 if lo > 0 else -1 if hi < 0 else None
        if sign is not None or 2 * bits > max_bits:
            return sign, (lo, hi, bits), bits
        bits *= 2


@lru_cache(maxsize=LOG_TABLE_SIZE)
def fixed_log(n, prec):
    """The int pair (lo, hi) with ln n in [lo, hi]·2^-prec, for an int n ≥ 1
    (see the module docstring).

    Pairs are kept in one process-wide table under the key (n, prec), of at
    most ``LOG_TABLE_SIZE`` entries, the least recently used dropped first;
    pass both arguments by position, so that a pair has one key.  mpmath is
    imported here, on a miss, so that a process that takes no logarithm
    never loads it.
    """
    from mpmath.libmp import from_int, mpf_neg, to_fixed
    from mpmath.libmp.libmpi import mpi_log

    a, b = mpi_log((from_int(n), from_int(n)), prec)
    return to_fixed(a, prec), -to_fixed(mpf_neg(b), prec)


def interval_width(value):
    """Width (hi - lo)·2^-bits of a ``decide_sign`` value (lo, hi, bits) as
    a float, rounded up: a positive width never reads 0.0, and one above
    the largest float reads inf."""
    lo, hi, bits = value
    exact = Fraction(hi - lo, 1 << bits)
    try:
        width = float(exact)
    except OverflowError:
        return math.inf
    return math.nextafter(width, math.inf) if width < exact else width
