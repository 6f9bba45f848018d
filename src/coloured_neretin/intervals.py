"""Adaptive-precision interval sign decisions.

An interval expression takes the working precision p in bits and returns
a fixed-point pair (lo, hi) of Python ints: the interval [lo, hi]·2⁻ᵖ,
which contains the exact value.  ``decide_sign`` doubles the precision
until the interval excludes zero.  Precision is always passed explicitly,
never held in a global, so decisions may nest.  The starting precision
comes from the COLOURED_NERETIN_PRECISION environment variable (bits,
default 128); an inequality that stays undecided at the precision cap is
reported as undecided, never as true or false.

A sum adds endpoints, a difference subtracts each endpoint from the
other's opposite one, and a product with an int k ≥ 0 is (k·lo, k·hi): all
exact.  Every rounding is outwards, a floor on lo and a ceiling on hi: a
product with a positive rational n/m is (⌊lo·n/m⌋, ⌈hi·n/m⌉), and the
logarithm of an int n ≥ 2 (``fixed_log``) is (⌊2ᵖ ln n⌋, ⌊2ᵖ ln n⌋ + 1),
ln n being irrational, and that of 1 is (0, 0); log(n/m) is log n − log m.
The logarithms are computed in ints alone (``_log``).  One bounded table of
them serves the whole process: a pair depends only on (n, p), so every
caller gets the same pair whether or not it was already in the table.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache, partial

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
    pass both arguments by position, so that a pair has one key.
    """
    return _log(n, prec)


def _log(n, prec):
    """The pair of ``fixed_log``: ln n = k·ln 2 + 2·atanh((n − 2^k)/(n + 2^k))
    for 2^k ≤ n < 2^(k+1), and ln 2 = 2·atanh(1/3) (``_half_ln2``, once per
    precision), summed at prec + guard bits.  The guard doubles until the
    sum and the sum plus its error bound lie between the same two multiples
    of 2^-prec; as ln n is irrational, some guard does it."""
    if n == 1:
        return 0, 0
    k = n.bit_length() - 1
    guard = k.bit_length() + prec.bit_length() + 12
    while True:
        bits = prec + guard
        (l2, e2), (s, e) = _half_ln2(bits), _atanh(n - (1 << k), n + (1 << k), bits)
        low = 2 * (k * l2 + s)
        lo = low >> guard
        if (low + 2 * (k * e2 + e)) >> guard == lo:
            return lo, lo + 1
        guard *= 2


def _atanh(a, b, bits):
    """(s, e) with 2^bits·atanh(a/b) in [s, s + e), for ints 0 ≤ 3a ≤ b.

    The series of x^(2j+1)/(2j+1), x = a/b, in fixed point: each power is
    the previous one times x², floored, so it lies below the exact power
    by less than 1 + x² + x⁴ + ... ≤ 9/8, and each term floors it once more.
    The sum stops at the first power that floors to 0; the terms after it
    add less than 1/8.  So 2^bits·atanh(a/b) exceeds s by less than 1 for
    the first term, 1 + 3/8 for each later one and 1/8 for the rest, which
    e, 2 per term summed, bounds.
    """
    s = power = (a << bits) // b
    a2, b2, j = a * a, b * b, 1
    while power:
        power = power * a2 // b2
        s += power // (2 * j + 1)
        j += 1
    return s, 2 * j


_half_ln2 = lru_cache(maxsize=64)(partial(_atanh, 1, 3))


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
