"""Acceptance suite: the project's numbered verification checklist.

One test per criterion, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line per criterion.  Every check is exact (integer or interval
arithmetic with certified signs); the stated wall-clock budgets are asserted
inside the tests that carry them.
"""

import itertools
import math
import random
import time

from coloured_neretin import (
    IntMatrix,
    Omega,
    Permutation,
    appendix_counts,
    ball_counts,
    bareiss_determinant,
    bisection_to_element,
    build_sft_graph,
    closure_enumerate,
    compose,
    compose_bisections,
    contains_alternating,
    element_to_bisection,
    find_sign_violation,
    from_cycles,
    identity_element,
    integer_partitions,
    interval_width,
    is_prefix,
    is_sign_well_defined,
    purely_infinite_witness,
    random_bisection,
    random_element,
    sign,
    smallest_log_sign,
    smith_normal_form,
    structure_report,
    validate_bisection,
    verify_prime_windows,
    verify_smallest_inequality,
    verify_xi_claims,
    vf_abelianization,
)

from conftest import (
    assert_complete,
    four_orbit_group,
    group_from,
    random_complete_tree,
    rotation_group,
    small_trivial,
    switch_group,
    transitive_group,
)


def configs_d_at_most_4():
    return [
        small_trivial(2),
        switch_group(),
        rotation_group(),
        group_from(["(0 1)", "(2 3)"], 4),
        transitive_group(5),
    ]


def random_address(rng, d, length):
    word = []
    for _ in range(length):
        options = [c for c in range(d + 1) if not word or c != word[-1]]
        word.append(rng.choice(options))
    return tuple(word)


def expand_randomly(element, rng, steps):
    for _ in range(steps):
        element = element.expand_at(rng.choice(element.domain.leaves))
    return element


def orbit_block(parts):
    # K = 2I - s 1^t, the orbit block of id - M^t with its cokernel and
    # determinant (the derivation is in the abelianization module docstring)
    return IntMatrix(
        [[2 * (i == j) - s for j in range(len(parts))] for i, s in enumerate(parts)]
    )


# -- criterion 1 --------------------------------------------------------------


def test_criterion_01_abelianization_closed_form():
    start = time.perf_counter()
    for d in range(2, 10):
        for parts in integer_partitions(d + 1):
            result = vf_abelianization(parts)
            # vf_abelianization is a closed form: the Smith form is its oracle
            _, invariants, _ = smith_normal_form(orbit_block(parts))
            factors = invariants.invariant_factors
            assert invariants.free_rank == 0
            assert result.invariant_factors == tuple(f for f in factors if f != 1)
            assert result.two_torsion_rank == sum(1 for f in factors if f % 2 == 0)
            expected = (
                len(parts)
                if all(x % 2 == 0 for x in parts)
                else len(parts) - 1
            )
            snf_rank = sum(1 for f in result.invariant_factors if f % 2 == 0)
            assert snf_rank == expected
            assert result.two_torsion_rank == expected
            if expected:
                assert result.describe() == "(Z/2)^%d" % expected
            else:
                assert result.describe().startswith("trivial")
    assert time.perf_counter() - start < 10.0


# -- criterion 2 --------------------------------------------------------------


def test_criterion_02_determinant_identity():
    for d in range(2, 10):
        for parts in integer_partitions(d + 1):
            result = vf_abelianization(parts)
            exponent = len(parts) - 1
            assert result.determinant == 2 ** exponent * (1 - d)
            assert result.determinant == bareiss_determinant(orbit_block(parts))


# -- criterion 3 --------------------------------------------------------------


def test_criterion_03_four_orbit_worked_example():
    group = four_orbit_group()
    sizes = tuple(len(orbit) for orbit in group.orbits)
    assert sizes == (1, 2, 2, 2)
    result = vf_abelianization(sizes)
    # the abelianization has order 8, i.e. the derived subgroup has index 8
    assert 2 ** result.two_torsion_rank == 8
    assert result.describe() == "(Z/2)^3"
    well = []
    for mask in range(1, 1 << len(group.orbits)):
        subset = tuple(
            sorted(
                colour
                for index, orbit in enumerate(group.orbits)
                if mask >> index & 1
                for colour in orbit
            )
        )
        if is_sign_well_defined(group, subset, target="nf"):
            well.append(subset)
    assert well == [(1, 2, 3, 4)]
    value = sign(
        identity_element(group), (1, 2, 3, 4), mode="class", target="nf"
    )
    assert value == 1


# -- criterion 4 --------------------------------------------------------------


def test_criterion_04_sign_expansion_dichotomy():
    rng = random.Random(20260404)
    pool = [
        small_trivial(2),
        switch_group(),
        rotation_group(),
        group_from(["(0 1)", "(2 3)"], 4),
        transitive_group(5),
        four_orbit_group(),
    ]
    assert all(group.d <= 6 for group in pool)
    stable = violated = 0
    for _ in range(200):
        group = rng.choice(pool)
        mask = rng.randrange(1, 1 << len(group.orbits))
        subset = tuple(
            sorted(
                colour
                for index, orbit in enumerate(group.orbits)
                if mask >> index & 1
                for colour in orbit
            )
        )
        element = random_element(group, rng, rng.randrange(5))
        assert_complete(element)
        if is_sign_well_defined(group, subset, target="vf"):
            reference = sign(element, subset, mode="honest")
            current = element
            for _ in range(rng.randrange(1, 5)):
                current = current.expand_at(
                    rng.choice(current.domain.leaves)
                )
                assert sign(current, subset, mode="honest") == reference
            stable += 1
        else:
            one, other = find_sign_violation(group, subset)
            assert_complete(one, other)
            assert one.reduce() == other.reduce()
            assert (
                sign(one, subset, mode="honest")
                != sign(other, subset, mode="honest")
            )
            violated += 1
    assert stable + violated == 200
    assert stable > 0 and violated > 0


# -- criterion 5 --------------------------------------------------------------


def test_criterion_05_apply_to_prefix_homomorphism():
    rng = random.Random(20260405)
    for group in configs_d_at_most_4():
        for _ in range(1000):
            a = random_element(group, rng, 3)
            b = random_element(group, rng, 3)
            word = random_address(rng, group.d, 8)
            assert compose(b, a).apply_to_prefix(word) == b.apply_to_prefix(
                a.apply_to_prefix(word)
            )


# -- criterion 6 --------------------------------------------------------------


def test_criterion_06_reduction_confluence():
    rng = random.Random(20260406)
    for group in configs_d_at_most_4():
        for _ in range(1000):
            base = random_element(group, rng, 3)
            canonical = base.reduce()
            first = expand_randomly(base, rng, rng.randrange(1, 5))
            second = expand_randomly(base, rng, rng.randrange(1, 5))
            assert first.reduce() == canonical
            assert second.reduce() == canonical


# -- criterion 7 --------------------------------------------------------------


def test_criterion_07_sft_bridge_round_trip_and_composition():
    rng = random.Random(20260407)
    for sizes in ((1, 3, 2), (2, 2), (4,)):
        omega = Omega(build_sft_graph(sizes))
        for _ in range(200):
            b1 = random_bisection(omega, rng, 3)
            b2 = random_bisection(omega, rng, 3)
            e1 = bisection_to_element(b1, omega)
            e2 = bisection_to_element(b2, omega)
            assert bisection_to_element(element_to_bisection(e1, omega), omega) == e1
            assert bisection_to_element(element_to_bisection(e2, omega), omega) == e2
            composed = compose_bisections(b1, b2, omega.graph)
            assert validate_bisection(composed, omega.graph) == []
            assert bisection_to_element(composed, omega) == compose(e1, e2)


# -- criterion 8 --------------------------------------------------------------


def test_criterion_08_cardinality_recursion_vs_closed_form():
    start = time.perf_counter()
    for d in range(2, 7):
        for parts in integer_partitions(d + 1):
            local_order = math.prod(math.factorial(x) for x in parts)
            for n in range(1, 7):
                counts = ball_counts(parts, n)
                assert counts.sphere == (d + 1) * d ** (n - 1)
                # every internal vertex below the root contributes the
                # stabilizer count |F^| / x of its colour's orbit
                levels = (d ** (n - 1) - 1) // (d - 1)
                closed = local_order
                for x in parts:
                    closed *= (local_order // x) ** (x * levels)
                assert counts.aut_ball_order == closed
    assert time.perf_counter() - start < 30.0


# -- criterion 9 --------------------------------------------------------------


def test_criterion_09_dominant_inequality_trichotomy():
    for d in range(2, 13):
        for parts in integer_partitions(d + 1):
            verdict = verify_smallest_inequality(parts)
            orbits_above_one = len(parts) - 1
            assert verdict.holds == (orbits_above_one < d - 1 and d > 2)
            assert verdict.equality == (parts == (3,))
            if sorted(parts) == [1] * (d - 1) + [2]:
                assert verdict.verdict == "reversed"
            if not verdict.equality:
                interval_sign, interval, _ = smallest_log_sign(parts, 256)
                assert interval_sign == (1 if verdict.holds else -1)
                assert interval_width(interval) < 1e-20


# -- criterion 10 -------------------------------------------------------------


def test_criterion_10_xi_claims_fully_decided():
    report = verify_xi_claims(20)
    assert report.ok
    assert not report.failures
    assert not report.undecided
    assert report.append_checked > 0
    assert report.merge_checked > 0
    assert report.tail_checked > 0


# -- criterion 11 -------------------------------------------------------------


def test_criterion_11_prime_windows():
    start = time.perf_counter()
    report = verify_prime_windows(100000)
    elapsed = time.perf_counter() - start
    assert report.always_at_least_three
    assert report.least_count >= 3
    assert elapsed < 5.0


# -- criterion 12 -------------------------------------------------------------


def _pair_orbit_is_full(cycles, degree):
    """Independent double-transitivity check: BFS the orbit of (0, 1)."""
    moves = []
    for cycle in cycles:
        images = list(range(degree))
        for position, point in enumerate(cycle):
            images[point] = cycle[(position + 1) % len(cycle)]
        moves.append(images)
    seen = {(0, 1)}
    frontier = [(0, 1)]
    while frontier:
        x, y = frontier.pop()
        for images in moves:
            step = (images[x], images[y])
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return len(seen) == degree * (degree - 1)


def test_criterion_12_prime_cycle_and_jordan_checks():
    # Part 1: two prime cycles whose supports overlap without containment
    # generate a doubly transitive group on the support union.  With the
    # first cycle normalized to (0 1 ... p-1), enumerating every overlap
    # subset and every ordering of the second cycle covers all instances
    # with union size <= 7 up to relabelling.
    primes = (2, 3, 5, 7)
    instances = 0
    for p in primes:
        for q in [q for q in primes if q >= p]:
            for t in range(1, p):
                union = p + q - t
                if union > 7:
                    continue
                sigma = tuple(range(p))
                for overlap in itertools.combinations(range(p), t):
                    support = sorted(overlap) + list(range(p, union))
                    head, tail = support[0], support[1:]
                    for ordering in itertools.permutations(tail):
                        tau = (head,) + ordering
                        group = closure_enumerate(
                            [
                                from_cycles([sigma], union),
                                from_cycles([tau], union),
                            ]
                        )
                        assert structure_report(group)["doubly_transitive"]
                        assert _pair_orbit_is_full([sigma, tau], union)
                        instances += 1
    assert instances == 570

    # Part 2 (randomized): a primitive group containing a p-cycle with
    # p <= |K| - 3 prime contains the full alternating group.
    rng = random.Random(20260412)
    for _ in range(100):
        k = rng.choice((5, 6, 7, 8))
        p = rng.choice([q for q in (2, 3, 5) if q <= k - 3])
        support = tuple(rng.sample(range(k), p))
        generators = [from_cycles([support], k)]
        for _ in range(40):
            images = list(range(k))
            rng.shuffle(images)
            generators.append(Permutation(images))
            group = closure_enumerate(generators)
            report = structure_report(group)
            if report["transitive"] and report["primitive"]:
                break
        else:
            raise AssertionError("random generators never became primitive")
        assert contains_alternating(group, tuple(range(k)))


# -- criterion 13 -------------------------------------------------------------


def _clopen_image(element, cylinders):
    """Range leaves covering the image of the clopen union of cylinders."""
    refined = element
    cylinders = [tuple(u) for u in cylinders]
    while True:
        for v in refined.domain.leaves:
            if any(is_prefix(v, u) and v != u for u in cylinders):
                refined = refined.expand_at(v)
                break
        else:
            break
    inside = [
        v
        for v in refined.domain.leaves
        if any(is_prefix(u, v) for u in cylinders)
    ]
    return [refined.leaf_image(v) for v in inside]


def test_criterion_13_purely_infinite_witnesses():
    rng = random.Random(20260413)
    pool = configs_d_at_most_4()
    for trial in range(50):
        group = pool[trial % len(pool)]
        tree = random_complete_tree(group.d, rng, rng.randrange(1, 4))
        leaves = list(tree.leaves)
        cylinders = rng.sample(leaves, rng.randrange(1, len(leaves)))
        g, h = purely_infinite_witness(group, cylinders)
        g_image = _clopen_image(g, cylinders)
        h_image = _clopen_image(h, cylinders)
        for image in (g_image, h_image):
            assert image
            for w in image:
                assert any(is_prefix(u, w) for u in cylinders)
        for w1 in g_image:
            for w2 in h_image:
                assert not is_prefix(w1, w2) and not is_prefix(w2, w1)


# -- criterion 14 -------------------------------------------------------------


def test_criterion_14_appendix_counts_and_bound():
    rows = []
    for d in range(2, 6):
        for k in range(2, 6):
            for n in range(1, 6):
                counts = appendix_counts(d, k, n)
                assert counts.bound_ok
                assert not counts.overcount_matches
                assert counts.overcount_value > counts.aut_ball_order
                rows.append(counts)
    assert len(rows) == 80
    print()
    print("discrepancy report: recursion value vs the extra-level closed form")
    print("   d  k  n   recursion bits   closed-form bits   within bound")
    for counts in rows:
        print(
            "  %2d %2d %2d   %14d   %16d   %s"
            % (
                counts.d,
                counts.k,
                counts.n,
                counts.aut_ball_order.bit_length(),
                counts.overcount_value.bit_length(),
                counts.bound_ok,
            )
        )
