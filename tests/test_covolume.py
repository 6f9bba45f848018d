import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import iv
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_mul, mpi_sub, mpi_zero
from sympy import primerange

from coloured_neretin import (
    appendix_counts,
    ball_counts,
    compositions,
    covolume_chain,
    covolume_table_rows,
    decide_sign,
    dominant_coefficient_compare,
    integer_partitions,
    interval_width,
    kernel_factor,
    log_ratio,
    single_switch_covolume,
    smallest_log_sign,
    verify_prime_windows,
    verify_smallest_inequality,
    verify_xi_claims,
    window_primes,
)
from coloured_neretin import covolume
from coloured_neretin.covolume import _xi_capital, exact_div
from coloured_neretin.intervals import MAX_BITS, _int_interval, default_precision, memoised_log


# -- oracles ------------------------------------------------------------------


def orbit_blocks(orbit_sizes):
    blocks, start = [], 0
    for size in orbit_sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def orbit_preserving_permutations(orbit_sizes):
    d = sum(orbit_sizes) - 1
    blocks = orbit_blocks(orbit_sizes)
    for parts in itertools.product(*[itertools.permutations(b) for b in blocks]):
        images = [0] * (d + 1)
        for block, perm in zip(blocks, parts):
            for c, img in zip(block, perm):
                images[c] = img
        yield tuple(images)


def brute_aut_ball(orbit_sizes, n):
    """Count ball automorphisms whose local colour action preserves every
    orbit, by explicit backtracking over one local permutation per internal
    vertex.  No product formula is assumed."""
    d = sum(orbit_sizes) - 1
    fhat = list(orbit_preserving_permutations(orbit_sizes))

    def admissible(word):
        return (
            list(range(d + 1))
            if not word
            else [c for c in range(d + 1) if c != word[-1]]
        )

    internal = [()]
    frontier = [()]
    for _ in range(n - 1):
        frontier = [w + (c,) for w in frontier for c in admissible(w)]
        internal.extend(frontier)

    def count(index, image):
        if index == len(internal):
            return 1
        v = internal[index]
        total = 0
        for sigma in fhat:
            if v and sigma[v[-1]] != image[v][-1]:
                continue
            extended = dict(image)
            for c in admissible(v):
                extended[v + (c,)] = image[v] + (sigma[c],)
            total += count(index + 1, extended)
        return total

    return count(0, {(): ()})


def xi_float(parts):
    x = sum(parts) - 1
    weighted = sum(p * math.log(p) for p in parts)
    log_facts = sum(math.lgamma(p + 1) for p in parts)
    return (x / (x + 1)) * weighted - log_facts + (x - 1) * math.log(x / (x + 1))


def wreath_aut_order(d, k, n):
    """|Aut| of the k-regular-root, d-regular tree ball, via plain wreath
    recursion on subtree heights."""
    t = 1
    for _ in range(n - 1):
        t = math.factorial(d) * t ** d
    return math.factorial(k) * t ** k


# -- partitions and small helpers --------------------------------------------------


def test_integer_partitions_counts():
    assert len(list(integer_partitions(6))) == 11
    assert len(list(integer_partitions(10))) == 42
    for parts in integer_partitions(7):
        assert sum(parts) == 7
        assert all(a >= b for a, b in zip(parts, parts[1:]))
    assert list(integer_partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_compositions_counts():
    assert len(list(compositions(5))) == 16
    assert sorted(set(tuple(sorted(c, reverse=True)) for c in compositions(5))) == sorted(
        integer_partitions(5)
    )


def test_exact_div():
    assert exact_div(12, 4) == 3
    with pytest.raises(AssertionError):
        exact_div(12, 5)  # an internal-contract helper, so it asserts


def test_kernel_factor_values():
    assert kernel_factor((3,)) == 8  # 6^3 / 27
    assert kernel_factor((2, 2)) == 16  # (2*2)^4 / (4*4)
    assert kernel_factor((1, 3)) == 48  # 6^4 / 27
    assert kernel_factor((1, 1, 1)) == 1


# -- ball counts against the backtracking oracle -------------------------------------


def test_aut_ball_order_matches_backtracking():
    cases = [
        ((3,), 1), ((3,), 2), ((3,), 3),
        ((1, 2), 1), ((1, 2), 2), ((1, 2), 3), ((1, 2), 4),
        ((1, 1, 1), 2), ((1, 1, 1), 3),
        ((2, 2), 2), ((1, 3), 2), ((1, 1, 2), 2), ((1, 1, 1, 1), 2),
        ((4,), 2), ((1, 1, 3), 2),
    ]
    for sizes, n in cases:
        assert ball_counts(sizes, n).aut_ball_order == brute_aut_ball(sizes, n)


def test_sphere_and_symmetric_orders():
    for sizes in ((3,), (1, 2), (2, 2), (1, 3, 2)):
        d = sum(sizes) - 1
        for n in (1, 2, 3):
            counts = ball_counts(sizes, n)
            assert counts.sphere == (d + 1) * d ** (n - 1)
            assert counts.orbit_spheres == tuple(x * d ** (n - 1) for x in sizes)
            expected = 1
            for m in counts.orbit_spheres:
                expected *= math.factorial(m)
            assert counts.sym_product_order == expected
            assert sum(counts.orbit_spheres) == counts.sphere


def test_kernel_orders_multiply_to_aut_order():
    counts = ball_counts((1, 3), 4)
    product = math.factorial(1) * math.factorial(3)
    for ker in counts.kernel_orders:
        product *= ker
    assert product == counts.aut_ball_order


def test_ball_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        ball_counts((3,), 0)
    with pytest.raises(ValueError):
        ball_counts((1, 1), 2)  # d + 1 = 2 too small


# -- covolume chains -----------------------------------------------------------------


def test_covolume_chain_exact_value():
    chain = covolume_chain((1, 2), 2, 1)
    # sphere orbits of sizes 2 and 4: index bound 2! * 4! / (4 * 1)
    assert chain.index_bound == Fraction(
        math.factorial(2) * math.factorial(4), 4
    )
    assert chain.counts.aut_ball_order == 4


def test_single_switch_closed_form_matches_chain():
    for d in (2, 3):
        sizes = (1,) * (d - 1) + (2,)
        for n in (1, 2, 3):
            for gamma in (1, 2):
                chain = covolume_chain(sizes, n, gamma)
                assert chain.index_bound == single_switch_covolume(d, n, gamma)


def test_covolume_chain_is_monotone():
    values = [covolume_chain((1, 2), n, 1).index_bound for n in range(1, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lagrange_rejection():
    counts = ball_counts((1, 2), 2)
    bad = 7
    assert counts.sym_product_order % bad != 0
    with pytest.raises(ValueError, match="no finite group"):
        covolume_chain((1, 2), 2, bad)
    with pytest.raises(ValueError):
        covolume_chain((1, 2), 2, 0)


# -- the dominant-coefficient inequality ----------------------------------------------


def test_smallest_inequality_frozen_integers():
    # d = 2 single orbit: exact equality 5832 = 5832
    verdict = verify_smallest_inequality((3,))
    assert (verdict.lhs, verdict.rhs) == (5832, 5832)
    assert verdict.verdict == "equality" and verdict.lhs == verdict.rhs
    # d = 3 twin orbits: strict
    verdict = verify_smallest_inequality((2, 2))
    assert (verdict.lhs, verdict.rhs) == (16777216, 26873856)
    assert verdict.verdict == "holds"
    # single switch and all-ones are reversed
    assert verify_smallest_inequality((1, 2)).verdict == "reversed"
    assert verify_smallest_inequality((1, 1, 1)).verdict == "reversed"
    assert verify_smallest_inequality((1, 1, 2)).verdict == "reversed"


def test_smallest_trichotomy_sweep():
    for d in range(2, 9):
        for sizes in integer_partitions(d + 1):
            l = len(sizes) - 1
            verdict = verify_smallest_inequality(sizes)
            if l < d - 1 and d > 2:
                assert verdict.verdict == "holds"
            elif d == 2 and l == 0:
                assert verdict.verdict == "equality"
            else:
                assert verdict.verdict == "reversed"
            compare = dominant_coefficient_compare(sizes)
            assert compare.strict_less == verdict.holds
            assert compare.equality == verdict.equality
            assert compare.boundary_case == (sizes == (3,))
            # float coefficients point the same way as the exact integers
            gap = compare.rhs_coefficient - compare.lhs_coefficient
            if verdict.verdict == "holds":
                assert gap > 1e-9
            elif verdict.verdict == "reversed":
                assert gap < -1e-9
            else:
                assert abs(gap) < 1e-9


def test_interval_sign_agrees_with_exact_verdict():
    for sizes in ((2, 2), (1, 2), (1, 1, 1), (2, 3), (1, 2, 2), (3, 3, 3)):
        verdict = verify_smallest_inequality(sizes)
        sign, value, _ = smallest_log_sign(sizes, start_bits=256)
        assert sign == (1 if verdict.holds else -1)
        assert interval_width(value) < 1e-20


def test_ratio_slope_approaches_coefficient_gap():
    for sizes in ((2, 2), (1, 2), (2, 3), (1, 1, 3)):
        compare = dominant_coefficient_compare(sizes)
        gap = compare.lhs_coefficient - compare.rhs_coefficient
        # the slope of ln(ratio) against d^(n-1) between n = 8 and n = 12
        d = sum(sizes) - 1
        rise = log_ratio(sizes, 12) - log_ratio(sizes, 8)
        slope = rise / (d ** 11 - d ** 7)
        assert abs(slope - gap) < 2e-2 * max(1.0, abs(gap))
        # the log-ratio itself eventually moves in the direction of the gap
        assert (rise > 0) == (gap > 0)


# -- the Xi functional ------------------------------------------------------------------


def test_xi_claims_hold_through_twelve():
    report = verify_xi_claims(12)
    assert report.ok
    assert report.failures == [] and report.undecided == []
    assert report.append_checked > 0
    assert report.merge_checked > 0
    assert report.tail_checked == 11
    assert "total-2" in report.boundary_note


def test_xi_interval_signs_match_float_oracle():
    xi = _xi_capital(memoised_log())
    for total in range(3, 10):
        for parts in integer_partitions(total):
            if len(parts) > total - 2:
                continue
            bigger = parts + (1,)
            expected = xi_float(bigger) - xi_float(parts)
            sign, _, _ = decide_sign(
                lambda prec, a=bigger, b=parts: mpi_sub(xi(a, prec), xi(b, prec), prec)
            )
            assert sign == (1 if expected > 0 else -1)
            assert abs(expected) > 1e-9  # floats are safely away from zero


def test_xi_append_fails_at_the_boundary():
    # appending a singleton to (2, 1) decreases the functional: the append
    # step is only valid with at most total-2 parts
    assert xi_float((2, 1, 1)) < xi_float((2, 1))
    xi = _xi_capital(memoised_log())
    sign, _, _ = decide_sign(lambda prec: mpi_sub(xi((2, 1, 1), prec), xi((2, 1), prec), prec))
    assert sign == -1
    report = verify_xi_claims(12)
    assert ("append", (2, 1)) not in [tag for tag in report.failures]


def test_merge_step_special_value_is_exact():
    # the merge-step comparison at x = 2 reduces to (1 + 1/2)^4 > 3
    assert Fraction(3, 2) ** 4 == Fraction(81, 16)
    assert Fraction(81, 16) > 3


def test_xi_claims_rejects_tiny_bound():
    with pytest.raises(ValueError):
        verify_xi_claims(2)


# -- endpoint-pair intervals against the literal expressions -----------------------------


def literal_decide_sign(expression, start_bits=None, max_bits=MAX_BITS):
    """The escalation loop on mpmath's interval context: sets the global
    iv.prec and evaluates a zero-argument iv expression."""
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


def literal_xi_capital(parts):
    """The functional as written, with a fresh iv.log for every logarithm."""
    x = sum(parts) - 1
    weighted = iv.mpf(0)
    for p in parts:
        if p > 1:
            weighted += p * iv.log(iv.mpf(p))
    log_facts = iv.mpf(0)
    for p in parts:
        log_facts += iv.log(iv.mpf(math.factorial(p)))
    ratio = iv.mpf(x) / (x + 1)
    return ratio * weighted - log_facts + (x - 1) * iv.log(ratio)


def literal_xi_small(x):
    """The tail function of the append step as written."""
    x = iv.mpf(x)
    return (
        iv.log((x + 1) / (x - 1)) / (x + 2)
        - x * iv.log((x + 2) / (x + 1))
        + (x - 1) * iv.log((x + 1) / x)
    )


def literal_smallest_log(sizes):
    """The logarithmic form of the smallest inequality as written."""
    d = sum(sizes) - 1
    rhs = iv.mpf(0)
    for x in sizes:
        rhs += x * iv.log(iv.mpf(x))
    rhs *= iv.mpf(d) / (d + 1)
    for x in sizes:
        rhs -= iv.log(iv.mpf(math.factorial(x)))
    lhs = (d - 1) * (iv.log(iv.mpf(d + 1)) - iv.log(iv.mpf(d)))
    return rhs - lhs


def literal_xi_decisions(max_x, evaluated):
    """The expressions verify_xi_claims decides, in its order; every value
    of the functional they compute is added to ``evaluated`` as
    (partition, precision)."""

    def capital(parts):
        evaluated.add((parts, iv.prec))
        return literal_xi_capital(parts)

    expressions = []
    for total in range(3, max_x + 1):
        for parts in integer_partitions(total):
            if len(parts) <= total - 2:
                expressions.append(lambda a=parts + (1,), b=parts: capital(a) - capital(b))
            if len(parts) >= 2 and parts[-1] == 1 and len(parts) <= total - 1:
                merged = parts[:-2] + (parts[-2] + 1,)
                expressions.append(lambda a=merged, b=parts: capital(a) - capital(b))
    expressions.extend(lambda x=x: literal_xi_small(x) for x in range(2, max_x + 1))
    return expressions


@pytest.fixture
def decisions(monkeypatch):
    """Every (start_bits, sign, a, b, bits) that covolume's decide_sign returns."""
    seen = []

    def recording(expression, start_bits=None):
        sign, value, bits = decide_sign(expression, start_bits=start_bits)
        seen.append((start_bits, sign, value.a, value.b, bits))
        return sign, value, bits

    monkeypatch.delenv("COLOURED_NERETIN_PRECISION", raising=False)
    monkeypatch.setattr(covolume, "decide_sign", recording)
    return seen


def literal_decision(expression, start_bits):
    """The literal decision, with the start precision that covolume's public
    calls resolve once and pass to every decision."""
    if start_bits is None:
        start_bits = default_precision()
    sign, value, bits = literal_decide_sign(expression, start_bits=start_bits)
    return (start_bits, sign, value.a, value.b, bits)


def counting_xi(monkeypatch, calls):
    """Make every functional that ``covolume`` builds append each
    (partition, precision) it evaluates to ``calls``."""

    def counting(log):
        xi = _xi_capital(log)

        def counted(parts, prec):
            calls.append((parts, prec))
            return xi(parts, prec)

        return counted

    monkeypatch.setattr(covolume, "_xi_capital", counting)


@pytest.mark.parametrize("max_x, start_bits", [(12, None), (14, 4), (12, 3), (9, 5)])
def test_xi_claims_match_the_literal_expressions(decisions, monkeypatch, max_x, start_bits):
    calls = []
    counting_xi(monkeypatch, calls)
    report = verify_xi_claims(max_x, start_bits=start_bits)
    assert report.ok
    evaluated = set()
    expected = [
        literal_decision(expression, start_bits)
        for expression in literal_xi_decisions(max_x, evaluated)
    ]
    assert decisions == expected
    assert report.max_bits == max(bits for *_, bits in expected)
    # each value of the functional is computed once per precision
    assert sorted(calls) == sorted(evaluated)
    if start_bits is None:
        assert len(calls) == 441 and report.max_bits == 128
    else:
        assert report.max_bits > start_bits  # the decisions escalate


@pytest.mark.parametrize("start_bits", [None, 3, 5])
def test_smallest_log_sign_matches_the_literal_expression(decisions, start_bits):
    expected = []
    for d in range(2, 10):
        for sizes in integer_partitions(d + 1):
            smallest_log_sign(sizes, start_bits=start_bits)
            expected.append(literal_decision(lambda: literal_smallest_log(sizes), start_bits))
    assert decisions == expected
    if start_bits is not None:
        assert any(bits > start_bits for *_, bits in decisions)


# -- prime windows -------------------------------------------------------------------


def test_window_primes_match_sympy():
    for m in (17, 18, 25, 100, 541, 1000, 4096):
        assert window_primes(m) == list(primerange(m // 2 + 1, m + 1))


def test_window_primes_smallest_case():
    assert window_primes(17) == [11, 13, 17]
    assert window_primes(16) == [11, 13]  # m = 16 only has two


def test_prime_window_report():
    report = verify_prime_windows(20000)
    assert report.always_at_least_three
    assert report.least_count == 3
    assert report.least_at == 17
    with pytest.raises(ValueError):
        verify_prime_windows(10)


# -- appendix counts ------------------------------------------------------------------


def test_appendix_recursion_matches_wreath_oracle():
    for d in (2, 3, 4):
        for k in (2, 3, 4):
            for n in (1, 2, 3, 4):
                counts = appendix_counts(d, k, n)
                assert counts.aut_ball_order == wreath_aut_order(d, k, n)
                assert counts.sphere == k * d ** (n - 1)


def test_appendix_bound_and_discrepancy():
    counts = appendix_counts(2, 2, 2)
    assert counts.aut_ball_order == 8
    assert counts.overcount_value == 128
    assert counts.bound == 32
    assert counts.bound_ok
    assert not counts.overcount_bound_ok
    assert not counts.overcount_matches
    for d in (2, 3):
        for k in (2, 3):
            for n in (1, 2, 3, 4, 5):
                counts = appendix_counts(d, k, n)
                assert counts.bound_ok
                assert not counts.overcount_matches


def test_appendix_counts_validation():
    with pytest.raises(ValueError):
        appendix_counts(1, 2, 2)
    with pytest.raises(ValueError):
        appendix_counts(2, 2, 0)


# -- table rows -----------------------------------------------------------------------


def test_covolume_table_rows_columns():
    rows = covolume_table_rows((1, 3), 4)
    assert len(rows) == 4
    expected_columns = [
        "d",
        "orbit_sizes",
        "n",
        "sphere",
        "sym_product_order",
        "aut_ball_order",
        "bound_ratio",
        "inequality_verdict",
    ]
    for row in rows:
        assert list(row) == expected_columns
        assert row["d"] == 3
        assert row["orbit_sizes"] == "1 3"
        assert row["inequality_verdict"] == "holds"
    assert [row["n"] for row in rows] == [1, 2, 3, 4]
    counts = ball_counts((1, 3), 2)
    assert rows[1]["aut_ball_order"] == counts.aut_ball_order
    assert rows[1]["bound_ratio"] == "%.6f" % log_ratio((1, 3), 2)


def direct_xi_capital(parts, log, prec):
    """The functional summed over the whole tuple, with no shared sums."""
    x = sum(parts) - 1
    weighted = mpi_zero
    for p in parts:
        if p > 1:
            weighted = mpi_add(weighted, mpi_mul(_int_interval(p, prec), log(p, prec), prec), prec)
    log_facts = mpi_zero
    for p in parts:
        log_facts = mpi_add(log_facts, log(math.factorial(p), prec), prec)
    ratio = mpi_div(_int_interval(x, prec), _int_interval(x + 1, prec), prec)
    tail = mpi_mul(_int_interval(x - 1, prec), log(Fraction(x, x + 1), prec), prec)
    return mpi_add(mpi_sub(mpi_mul(ratio, weighted, prec), log_facts, prec), tail, prec)


def test_shared_xi_tables_give_the_fresh_endpoints(monkeypatch):
    calls = []
    counting_xi(monkeypatch, calls)
    verify_xi_claims(12)
    tuples = list(dict.fromkeys(parts for parts, _ in calls))
    assert len(tuples) == 441
    assert (3, 1, 2) in tuples  # merged tuples need not be sorted
    for prec in (3, 128, 256):
        shared = _xi_capital(memoised_log())
        for parts in tuples:
            got = shared(parts, prec)
            assert got == _xi_capital(memoised_log())(parts, prec), (parts, prec)
            assert got == direct_xi_capital(parts, memoised_log(), prec), (parts, prec)
