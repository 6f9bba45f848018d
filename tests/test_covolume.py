import decimal
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import iv
from mpmath.libmp import from_man_exp, mpf_le
from sympy import primepi, primerange

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
    log_ratio,
    single_switch_covolume,
    smallest_log_sign,
    verify_prime_windows,
    verify_smallest_inequality,
    verify_xi_claims,
)
from coloured_neretin import covolume
from coloured_neretin.covolume import _xi_capital, _xi_step, exact_div, window_ends
from coloured_neretin.intervals import MAX_BITS, default_precision


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


def recursive_partitions(total, max_part=None):
    """The partitions as the recursive generator gave them: largest head
    first, then the partitions of the rest with parts at most the head."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, max_part), 0, -1):
        for rest in recursive_partitions(total - head, head):
            yield (head,) + rest


@pytest.mark.parametrize("max_part", [None, 0, 1, 2, 3, 5, 14])
def test_integer_partitions_match_the_recursive_walk(max_part):
    for total in range(15):
        assert list(integer_partitions(total, max_part)) == list(
            recursive_partitions(total, max_part)
        )


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
    # the kernel factor of one interior level: the kernel order of the radius-2 ball
    assert ball_counts((3,), 2).kernel_orders[0] == 8  # 6^3 / 27
    assert ball_counts((2, 2), 2).kernel_orders[0] == 16  # (2*2)^4 / (4*4)
    assert ball_counts((1, 3), 2).kernel_orders[0] == 48  # 6^4 / 27
    assert ball_counts((1, 1, 1), 2).kernel_orders[0] == 1


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


# every orbit partition of the benchmark's certificate bundle (d <= 8), in
# descending and in ascending order
CERTIFY_SIZES = [
    sizes
    for total in range(3, 10)
    for parts in integer_partitions(total)
    for sizes in dict.fromkeys((parts, parts[::-1]))
]


def test_sphere_and_symmetric_orders():
    for sizes in CERTIFY_SIZES + [(1, 3, 2)]:
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
    # an interior vertex at depth j >= 1 whose edge from its parent has
    # colour c in an orbit of size x fixes c and permutes the other colours
    # within their orbits: prod x! / x choices; d^(j-1) vertices at depth j
    # end in each colour
    for sizes, radii in [((1, 3), (4,))] + [(sizes, (1, 2, 3)) for sizes in CERTIFY_SIZES]:
        d = sum(sizes) - 1
        root = math.prod(math.factorial(x) for x in sizes)
        for n in radii:
            counts = ball_counts(sizes, n)
            assert counts.kernel_orders == tuple(
                math.prod((root // x) ** (x * d ** (j - 1)) for x in sizes)
                for j in range(1, n)
            ), (sizes, n)
            product = root
            for ker in counts.kernel_orders:
                product *= ker
            assert product == counts.aut_ball_order


def test_ball_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        ball_counts((3,), 0)
    with pytest.raises(ValueError):
        ball_counts((1, 1), 2)  # d + 1 = 2 too small
    # log_ratio refuses the radii that ball_counts refuses, with its message
    for radius in (0, -3):
        for call in (ball_counts, log_ratio):
            with pytest.raises(ValueError) as info:
                call((2, 1), radius)
            assert str(info.value) == "ball radius must be at least 1"


# -- covolume chains -----------------------------------------------------------------


def test_covolume_chain_exact_value():
    chain = covolume_chain((1, 2), 2, 1)
    # sphere orbits of sizes 2 and 4: index bound 2! * 4! / (4 * 1)
    assert chain.index_bound == Fraction(
        math.factorial(2) * math.factorial(4), 4
    )
    assert chain.counts.aut_ball_order == 4
    # the index bound is sym / (gamma * aut), reduced, for every partition
    # with d <= 7 and n <= 3 and each gamma_order that acts
    for d in range(2, 8):
        for sizes in integer_partitions(d + 1):
            for n in (1, 2, 3):
                counts = ball_counts(sizes, n)
                for gamma in (1, 2, 3, 8, 11):
                    if counts.sym_product_order % gamma:
                        continue
                    chain = covolume_chain(sizes, n, gamma)
                    assert chain.index_bound == Fraction(
                        counts.sym_product_order, gamma * counts.aut_ball_order
                    ), (sizes, n, gamma)
                    assert chain.counts == counts


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
    # a long order is shown as the table shows it, not refused by str(int)'s
    # limit: the sphere symmetry order has 27 720 digits here, and 1000003
    # is a prime larger than every sphere orbit
    counts = ball_counts((2, 2, 3), 5)
    text = str(decimal.Decimal(counts.sym_product_order))
    assert len(text) == 27720
    with pytest.raises(ValueError) as info:
        covolume_chain((2, 2, 3), 5, 1000003)
    assert str(info.value) == (
        "gamma_order 1000003 does not divide the sphere symmetry order "
        "%s...%s (%d digits): no finite group of that order acts this way"
        % (text[:12], text[-6:], len(text))
    )


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
            assert verdict.expected == verdict.verdict
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


def test_undecided_xi_claims_report_their_widths(monkeypatch):
    # with the precision capped at the start, no claim of total 5 is decided:
    # each is reported as undecided with its interval's width, none as failed;
    # the logarithms' pairs are one unit 2^-3 wide, so a width can be below 1
    monkeypatch.setattr(covolume, "decide_sign", functools.partial(decide_sign, max_bits=3))
    report = verify_xi_claims(5, start_bits=3)
    assert not report.ok and report.failures == [] and report.max_bits == 3
    assert [tag for tag, _ in report.undecided][-4:] == [("tail", x) for x in range(2, 6)]
    assert len(report.undecided) == (
        report.append_checked + report.merge_checked + report.tail_checked
    )
    assert all(0 < width < 8 for _, width in report.undecided)


def test_xi_interval_signs_match_float_oracle():
    xi = _xi_capital()
    for total in range(3, 10):
        for parts in integer_partitions(total):
            if len(parts) > total - 2:
                continue
            bigger = parts + (1,)
            expected = xi_float(bigger) - xi_float(parts)
            sign, _, _ = decide_sign(_xi_step(xi, bigger, parts))
            assert sign == (1 if expected > 0 else -1)
            assert abs(expected) > 1e-9  # floats are safely away from zero


def test_xi_append_fails_at_the_boundary():
    # appending a singleton to (2, 1) decreases the functional: the append
    # step is only valid with at most total-2 parts
    assert xi_float((2, 1, 1)) < xi_float((2, 1))
    xi = _xi_capital()
    sign, _, _ = decide_sign(_xi_step(xi, (2, 1, 1), (2, 1)))
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


def literal_xi_decisions(max_x):
    """The expressions verify_xi_claims decides, in its order, each with
    the partitions whose functional it evaluates."""
    pairs = []
    for total in range(3, max_x + 1):
        for parts in integer_partitions(total):
            if len(parts) <= total - 2:
                pairs.append((parts + (1,), parts))
            if len(parts) >= 2 and parts[-1] == 1 and len(parts) <= total - 1:
                pairs.append((parts[:-2] + (parts[-2] + 1,), parts))
    expressions = [
        (pair, lambda a=pair[0], b=pair[1]: literal_xi_capital(a) - literal_xi_capital(b))
        for pair in pairs
    ]
    expressions.extend(((), lambda x=x: literal_xi_small(x)) for x in range(2, max_x + 1))
    return expressions


@pytest.fixture
def decisions(monkeypatch):
    """Every (start_bits, sign, value, bits) that covolume's decide_sign returns."""
    seen = []

    def recording(expression, start_bits=None):
        sign, value, bits = decide_sign(expression, start_bits=start_bits)
        seen.append((start_bits, sign, value, bits))
        return sign, value, bits

    monkeypatch.delenv("COLOURED_NERETIN_PRECISION", raising=False)
    monkeypatch.setattr(covolume, "decide_sign", recording)
    return seen


def check_literal_decisions(seen, expressions, start_bits):
    """Each recorded decision against the literal expression it stands for.

    The start precision is the one covolume's public calls resolve once and
    pass to every decision.  The sign is the literal one at every start,
    and at the default start so is the settling precision (at a low start,
    fixed point and floating point may settle at different precisions).  The
    returned interval contains the literal value at four times its settling
    precision."""
    default = start_bits is None
    if default:
        start_bits = default_precision()
    assert len(seen) == len(expressions)
    for decision, expression in zip(seen, expressions):
        start, sign, value, bits = decision
        literal_sign, _, literal_bits = literal_decide_sign(expression, start_bits=start_bits)
        assert (start, sign) == (start_bits, literal_sign), decision
        if default:
            assert bits == literal_bits, decision
        saved = iv.prec
        try:
            iv.prec = 4 * bits
            fine = expression()
        finally:
            iv.prec = saved
        (a, b), (lo, hi) = [from_man_exp(end, -value[2]) for end in value[:2]], fine._mpi_
        assert mpf_le(a, lo) and mpf_le(hi, b), decision


def precisions(start, bits):
    """The precisions a decision tries, from start to the settling one."""
    while start <= bits:
        yield start
        start *= 2


def counting_xi(monkeypatch, calls):
    """Make every functional that ``covolume`` builds append each
    (partition, precision) it evaluates to ``calls``."""

    def counting():
        xi = _xi_capital()

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
    literal = literal_xi_decisions(max_x)
    check_literal_decisions(decisions, [expression for _, expression in literal], start_bits)
    assert report.max_bits == max(bits for *_, bits in decisions)
    # each value of the functional is computed once per precision it is decided at
    evaluated = {
        (parts, prec)
        for (pair, _), (start, *_, bits) in zip(literal, decisions)
        for prec in precisions(start, bits)
        for parts in pair
    }
    assert sorted(calls) == sorted(evaluated)
    if start_bits is None:
        assert len(calls) == 441 and report.max_bits == 128
    else:
        assert report.max_bits > start_bits  # the decisions escalate


@pytest.mark.parametrize("start_bits", [None, 3, 5])
def test_smallest_log_sign_matches_the_literal_expression(decisions, start_bits):
    expressions = []
    for d in range(2, 10):
        for sizes in integer_partitions(d + 1):
            smallest_log_sign(sizes, start_bits=start_bits)
            expressions.append(lambda sizes=sizes: literal_smallest_log(sizes))
    check_literal_decisions(decisions, expressions, start_bits)
    if start_bits is not None:
        assert any(bits > start_bits for *_, bits in decisions)


# -- prime windows -------------------------------------------------------------------


def test_window_primes_match_sympy():
    for m in (17, 18, 25, 100, 541, 1000, 4096):
        assert window_ends(m, m)[1] == list(primerange(m // 2 + 1, m + 1))


def test_window_primes_smallest_case():
    assert window_ends(17, 17)[1] == [11, 13, 17]
    assert window_ends(16, 16)[1] == [11, 13]  # m = 16 only has two


def test_prime_window_report():
    report = verify_prime_windows(20000)
    assert report.always_at_least_three
    assert report.least_count == 3
    assert report.least_at == 17
    with pytest.raises(ValueError):
        verify_prime_windows(10)
    for min_m in (0, -5):  # once indexed the sieve from its end
        with pytest.raises(ValueError) as info:
            verify_prime_windows(17, min_m)
        assert str(info.value) == "min_m must be at least 1"
    assert verify_prime_windows(2, 1) == (1, 2, 0, 1)


@pytest.mark.parametrize(
    "min_m, max_m", [(18, 60), (19, 400), (23, 200), (500, 2000), (1001, 3000), (4006, 4008)]
)
def test_prime_window_report_matches_primepi(min_m, max_m):
    # windows that start past m = 17, whose least count is not the one at 17
    counts = [primepi(m) - primepi(m // 2) for m in range(min_m, max_m + 1)]
    report = verify_prime_windows(max_m, min_m)
    assert report.least_count == min(counts)
    assert report.least_at == min_m + counts.index(min(counts))


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


def test_single_switch_covolume_validation():
    for args in ((1, 2, 1), (2, 0, 1), (2, 2, 0), (2, 2, -2)):
        with pytest.raises(ValueError) as info:
            single_switch_covolume(*args)
        assert str(info.value) == "need d >= 2, n >= 1 and gamma_order >= 1"


def test_appendix_counts_validation():
    with pytest.raises(ValueError):
        appendix_counts(1, 2, 2)
    with pytest.raises(ValueError):
        appendix_counts(2, 2, 0)


@pytest.mark.parametrize(
    "name, call",
    [
        ("gamma_order", lambda v: covolume_chain((1, 2), 2, v)),
        ("n", lambda v: covolume_chain((1, 2), v, 2)),
        ("n", lambda v: ball_counts((1, 2), v)),
        ("d", lambda v: appendix_counts(v, 2, 2)),
        ("k", lambda v: appendix_counts(2, v, 2)),
        ("n", lambda v: appendix_counts(2, 2, v)),
        ("max_n", lambda v: covolume_table_rows((1, 2), v)),
        ("d", lambda v: single_switch_covolume(v, 2, 1)),
        ("n", lambda v: single_switch_covolume(2, v, 1)),
        ("gamma_order", lambda v: single_switch_covolume(2, 2, v)),
        ("n", lambda v: log_ratio((2, 1), v)),
        ("max_m", lambda v: verify_prime_windows(v)),
        ("min_m", lambda v: verify_prime_windows(100, v)),
    ],
    ids=[
        "chain-gamma_order", "chain-n", "ball_counts-n", "appendix-d",
        "appendix-k", "appendix-n", "table-max_n", "single_switch-d",
        "single_switch-n", "single_switch-gamma_order", "log_ratio-n",
        "prime_windows-max_m", "prime_windows-min_m",
    ],
)
def test_integer_arguments_must_be_ints(name, call):
    # a float, str or bool is named, not truncated, read as 1 or left to
    # a bare TypeError further in
    for value in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == "%s must be an int, not %r" % (name, value)


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


def test_shared_xi_tables_give_the_fresh_endpoints(monkeypatch):
    calls = []
    counting_xi(monkeypatch, calls)
    verify_xi_claims(12)
    tuples = list(dict.fromkeys(parts for parts, _ in calls))
    assert len(tuples) == 441
    assert (3, 1, 2) in tuples  # merged tuples need not be sorted
    for prec in (3, 128, 256):
        shared = _xi_capital()
        for parts in tuples:
            assert shared(parts, prec) == _xi_capital()(parts, prec), (parts, prec)
