import os
import random
import subprocess
import sys
import time
from itertools import permutations as all_permutations
from math import factorial, prod

import pytest
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from coloured_neretin import (
    DegreeMismatch,
    NotInvariant,
    Permutation,
    PlaneOrder,
    closure_enumerate,
    contains_alternating,
    cycle_string,
    from_cycles,
    is_sign_well_defined,
    parse_cycles,
    stabilizer_restriction_in_alt,
    structure_report,
)
from coloured_neretin.covolume import is_single_switch_sizes
from colour_calls import BAD_COLOURS, colour_calls
from conftest import closure_oracle, group_from, four_orbit_group, switch_group


# -- oracles ------------------------------------------------------------------


def sym_group(perms, degree):
    return SymGroup([SymPerm(list(p.images), size=degree) for p in perms])


def random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)


def even_permutations(points):
    points = list(points)
    for images in all_permutations(points):
        inversions = sum(
            1
            for i in range(len(images))
            for j in range(i + 1, len(images))
            if images[i] > images[j]
        )
        if inversions % 2 == 0:
            yield dict(zip(points, images))


# -- single permutations --------------------------------------------------------


def test_parity_matches_sympy():
    rng = random.Random(101)
    for _ in range(200):
        degree = rng.randrange(2, 9)
        p = random_permutation(rng, degree)
        expected = 1 if SymPerm(list(p.images)).is_even else -1
        assert p.parity() == expected


def test_multiplication_order_and_inverse():
    rng = random.Random(102)
    for _ in range(100):
        degree = rng.randrange(2, 8)
        p = random_permutation(rng, degree)
        q = random_permutation(rng, degree)
        # (p * q)(x) = p(q(x))
        for x in range(degree):
            assert (p * q)(x) == p(q(x))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_cycle_string_round_trip():
    rng = random.Random(103)
    for _ in range(100):
        degree = rng.randrange(2, 9)
        p = random_permutation(rng, degree)
        assert parse_cycles(cycle_string(p), degree) == p


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(0 1", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 0)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 7)", 3)
    assert parse_cycles("", 3).is_identity()


def test_from_cycles_and_fixed_points():
    p = from_cycles([(1, 2), (3, 4)], 6)
    same = from_cycles([(3, 4), (2, 1)], 6)
    assert p == same and hash(p) == hash(same)
    assert repr(p) == "Permutation((0, 2, 1, 4, 3, 5))"
    assert [x for x in range(6) if p(x) == x] == [0, 5]
    assert p.parity() == 1
    assert from_cycles([(0, 1, 2)], 4).parity() == 1
    assert from_cycles([(0, 1)], 4).parity() == -1


def test_permutation_points_must_be_ints():
    # a bool or a float equals the right point, but a generator holding one
    # would print as "(0 True)", which parse_cycles refuses
    for images in ((1.0, 0), (True, 0, 2), (0, 1, 2.0)):
        with pytest.raises(ValueError, match="not a permutation of 0..%d" % (len(images) - 1)):
            Permutation(images)
    with pytest.raises(ValueError, match="not a permutation"):
        closure_enumerate([(True, 0, 2)])
    for point in (True, 1.0):
        with pytest.raises(ValueError) as info:
            from_cycles([(point, 2)], 3)
        assert str(info.value) == "point %r out of range for degree 3" % (point,)


def test_from_cycles_names_a_bad_point_before_looking_for_repeats():
    # True equals 1 and a list cannot be hashed, so a repeat check run first
    # would call (1, True) a repeat and fail on [0] with a bare TypeError
    for cycle, point in (((1, True), True), (([0], 1), [0]), ((2, 2.0), 2.0)):
        with pytest.raises(ValueError) as info:
            from_cycles([cycle], 3)
        assert str(info.value) == "point %r out of range for degree 3" % (point,)
    with pytest.raises(ValueError, match=r"repeated point in cycle \(1, 2, 1\)"):
        from_cycles([(1, 2, 1)], 3)


def test_restriction_parity_hand_values():
    p = from_cycles([(1, 2), (3, 4)], 7)
    assert p.restriction_parity((1, 2)) == -1
    assert p.restriction_parity((1, 2, 3, 4)) == 1
    assert p.restriction_parity((5, 6)) == 1
    q = from_cycles([(5, 6)], 7)
    assert q.restriction_parity((1, 2, 3, 4)) == 1
    assert q.restriction_parity((5, 6)) == -1
    with pytest.raises(ValueError):
        p.restriction_parity((1, 3))  # not invariant under p


def test_degree_mismatch():
    p = random_permutation(random.Random(0), 4)
    q = random_permutation(random.Random(0), 5)
    with pytest.raises(DegreeMismatch):
        p * q


# -- closure against sympy -------------------------------------------------------


def test_closure_order_matches_sympy():
    rng = random.Random(104)
    for _ in range(60):
        degree = rng.randrange(2, 7)
        gens = [random_permutation(rng, degree) for _ in range(rng.randrange(1, 3))]
        group = closure_enumerate(gens, degree)
        assert group.order == sym_group(gens, degree).order()


def test_closure_is_closed_and_has_inverses():
    rng = random.Random(105)
    for _ in range(20):
        degree = rng.randrange(2, 6)
        gens = [random_permutation(rng, degree) for _ in range(2)]
        group = closure_enumerate(gens, degree)
        elements = [Permutation(g) for g in closure_oracle(gens, degree)]
        for g in elements:
            assert g.inverse() in group
        for g in elements[:10]:
            for h in elements[:10]:
                assert g * h in group


def test_orbits_match_sympy():
    rng = random.Random(106)
    for _ in range(40):
        degree = rng.randrange(2, 8)
        gens = [random_permutation(rng, degree) for _ in range(2)]
        group = closure_enumerate(gens, degree)
        expected = sorted(
            tuple(sorted(orbit)) for orbit in sym_group(gens, degree).orbits()
        )
        assert sorted(group.orbits) == expected
        assert group.orbit_sizes == tuple(len(orb) for orb in group.orbits)
        for index, orbit in enumerate(group.orbits):
            assert group.orbit_reps[index] == min(orbit)
            assert all(group.orbit_of[c] == index for c in orbit)


def test_groups_compare_by_their_elements():
    rotation = group_from(["(1 2 3)"], 4)
    same = group_from(["(1 3 2)"], 4)
    assert rotation == same and hash(rotation) == hash(same)
    assert repr(rotation) == "ColourGroup(<(1 2 3)>, order 3, orbits [(0,), (1, 2, 3)])"
    assert rotation != switch_group()
    assert closure_enumerate([], 3) != closure_enumerate([], 4)
    assert rotation != closure_oracle(rotation.generators, 4)


def test_trivial_group():
    group = closure_enumerate([], 5)
    assert group.order == 1
    assert group.orbits == ((0,), (1,), (2,), (3,), (4,))
    assert group.d == 4


def test_groups_of_large_degree_build_in_linear_time():
    # the orbit data and the chain's stop test cost O(degree) per group:
    # quadratic costs would take minutes here
    degree = 50001
    start = time.perf_counter()
    trivial = closure_enumerate([], degree)
    switch = closure_enumerate([from_cycles([(0, 1)], degree)], degree)
    assert time.perf_counter() - start < 5
    assert trivial.order == 1 and switch.order == 2
    assert trivial.orbits == tuple((c,) for c in range(degree))
    assert switch.orbits == ((0, 1),) + tuple((c,) for c in range(2, degree))
    assert switch.orbit_reps == (0,) + tuple(range(2, degree))
    assert switch.orbit_of[1] == 0 and switch.orbit_of[degree - 1] == degree - 2


def test_group_membership_and_stabilizer():
    group = four_orbit_group()
    assert parse_cycles("(1 2)(3 4)", 7) in group
    assert parse_cycles("(1 2)", 7) not in group
    stab = [Permutation(g) for g in closure_oracle(group.generators, 7) if g[5] == 5]
    assert all(g in group for g in stab)
    assert len(stab) == 2  # id and (1 2)(3 4)


def test_invariant_subsets():
    group = four_orbit_group()
    assert group.is_invariant((1, 2))
    assert group.is_invariant((1, 2, 3, 4))
    assert not group.is_invariant((1, 3))
    assert group.is_invariant(())
    assert group.invariant_subset([4, 2, 1, 3, 3]) == (1, 2, 3, 4)
    assert group.invariant_subset(()) == ()
    with pytest.raises(NotInvariant, match=r"subset \[1, 3\] is not invariant"):
        group.invariant_subset((3, 1))
    # the range is checked before invariance
    with pytest.raises(ValueError, match=r"colour -1 outside 0..6"):
        structure_report(group, (-1, 0))


# -- the stabilizer chain against a brute-force closure --------------------------


def random_generators(rng, degree):
    """0-3 generators, each a random transposition or a full shuffle."""
    gens = []
    for _ in range(rng.randrange(4)):
        images = list(range(degree))
        if rng.random() < 0.5:
            a, b = rng.sample(range(degree), 2)
            images[a], images[b] = images[b], images[a]
        else:
            rng.shuffle(images)
        gens.append(Permutation(images))
    return gens


def test_chain_matches_brute_force_closure():
    rng = random.Random(108)
    for _ in range(500):
        degree = rng.randrange(3, 8)
        gens = random_generators(rng, degree)
        group = closure_enumerate(gens, degree)
        oracle = closure_oracle(gens, degree)
        oracle_set = set(oracle)
        assert group.order == len(oracle)
        assert group.order == sym_group(gens or [Permutation(range(degree))], degree).order()
        assert all(Permutation(g) in group for g in oracle)
        orbits = sorted({tuple(sorted({g[c] for g in oracle})) for c in range(degree)})
        assert list(group.orbits) == orbits

        maps = PlaneOrder(group).canonical_maps
        for chi in range(degree):
            rep = group.orbit_reps[group.orbit_of[chi]]
            assert maps[chi].images == min(g for g in oracle if g[chi] == rep)

        for _ in range(5):
            inside = Permutation(rng.choice(oracle))
            outside = random_permutation(rng, degree)
            assert inside in group
            assert (outside in group) == (outside.images in oracle_set)

        other = [g.inverse() for g in reversed(gens)] + [Permutation(rng.choice(oracle))]
        same = closure_enumerate(other, degree)
        assert same == group and hash(same) == hash(group)
        smaller = closure_enumerate(gens[:-1], degree)
        smaller_order = sym_group(gens[:-1] or [Permutation(range(degree))], degree).order()
        assert (smaller == group) == (group == smaller) == (smaller_order == len(oracle))
        # a conjugate has the same order, so it is the group iff it lies inside
        h = random_permutation(rng, degree)
        conjugate_gens = [h * g * h.inverse() for g in gens]
        conjugate = closure_enumerate(conjugate_gens, degree)
        assert (conjugate == group) == all(g.images in oracle_set for g in conjugate_gens)

        assert is_single_switch_sizes(group.orbit_sizes) == (
            len(oracle) == 2 and sum(x != y for x, y in zip(*oracle)) == 2
        )
        # Alt(support) is generated by the 3-cycles on support
        moved = tuple(c for orbit in group.orbits if len(orbit) > 1 for c in orbit)
        for support in {tuple(range(degree)), moved}:
            three_cycles = (
                from_cycles([cycle], degree).images for cycle in all_permutations(support, 3)
            )
            assert contains_alternating(group, support) == all(
                cycle in oracle_set for cycle in three_cycles
            )

        for mask in range(1 << len(group.orbits)):
            subset = [c for k, orb in enumerate(group.orbits) if mask >> k & 1 for c in orb]
            if len(subset) % 2:
                continue
            even_there = {g: Permutation(g).restriction_parity(subset) == 1 for g in oracle}
            per_colour = []
            for chi in range(degree):
                per_colour.append(stabilizer_restriction_in_alt(group, chi, subset))
                assert per_colour[-1] == all(
                    even_there[g] for g in oracle if g[chi] == chi
                )
            # one colour per orbit decides the nf test
            assert is_sign_well_defined(group, subset, target="nf") == all(per_colour)


def test_chain_handles_large_symmetric_groups():
    for degree in (8, 12, 16):
        gens = [from_cycles([(0, 1)], degree), from_cycles([tuple(range(degree))], degree)]
        group = closure_enumerate(gens, degree)
        assert group.order == factorial(degree)
        assert from_cycles([tuple(range(1, degree))], degree) in group
        assert contains_alternating(group, range(degree))
        maps = PlaneOrder(group).canonical_maps
        # the least element sending chi to 0 is the cycle (0 1 ... chi)
        for chi in range(1, degree):
            assert maps[chi] == from_cycles([tuple(range(chi + 1))], degree)


# -- the chain's stop at the orbit-product bound, sharpened by parity -----------


def cycles_on(degree, *cycle_texts):
    return [parse_cycles(text, degree) for text in cycle_texts]


def full_symmetric(degree):
    return [from_cycles([(0, 1)], degree), from_cycles([tuple(range(degree))], degree)]


def full_alternating(degree):
    """(0 1 2) and a cycle of odd length through the other points."""
    rest = tuple(range(degree)) if degree % 2 else tuple(range(1, degree))
    return [from_cycles([(0, 1, 2)], degree), from_cycles([rest], degree)]


def wreath_with_cyclic_top(base_cycles, block, blocks):
    """The base group on block 0 of ``blocks`` blocks of size ``block``,
    and the shift of block i to block i + 1."""
    degree = block * blocks
    shift = [tuple(b * block + x for b in range(blocks)) for x in range(block)]
    return [from_cycles(cycles, degree) for cycles in base_cycles + [shift]]


def affine_line(p, root):
    """x -> x + 1 and x -> root * x on Z/p, for a primitive root mod p."""
    assert len({pow(root, k, p) for k in range(p - 1)}) == p - 1
    scale = tuple(pow(root, k, p) for k in range(p - 1))
    return [from_cycles([tuple(range(p))], p), from_cycles([scale], p)]


def f2_rank(rows):
    """Rank over F_2 of 0/1 rows, by plain row reduction."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def parity_bound(group):
    """prod |O_i|! / 2^(k - r), the order bound the chain stops at: k orbits
    of size >= 2, r the F_2-rank of the generators' parity vectors on them
    (taken here from ``restriction_parity``, orbit by orbit)."""
    moving = [orbit for orbit in group.orbits if len(orbit) > 1]
    rank = f2_rank(
        [[g.restriction_parity(orbit) == -1 for orbit in moving] for g in group.generators]
    )
    return prod(factorial(len(orbit)) for orbit in group.orbits) // 2 ** (len(moving) - rank)


def criterion_12_groups():
    """The groups criterion 12's random part builds, in its order: a prime
    cycle, then random shuffles added one at a time."""
    rng = random.Random(20260412)
    for _ in range(30):
        k = rng.choice((5, 6, 7, 8))
        p = rng.choice([q for q in (2, 3, 5) if q <= k - 3])
        generators = [from_cycles([tuple(rng.sample(range(k), p))], k)]
        for _ in range(3):
            yield list(generators), k
            generators.append(random_permutation(rng, k))


# (generators, degree): the parity map F -> (Z/2)^k onto the span of the
# generators' vectors has its kernel in prod Alt(O_i), and here it is all
# of prod Alt(O_i), so the chain stops once its order reaches the bound
REACH_THE_BOUND = (
    [pytest.param(full_symmetric(n), n, id="Sym(%d)" % n) for n in range(3, 9)]
    + [
        pytest.param(cycles_on(n, "(0 1)", "(2 3)", "(2 3 4)"), n, id="S2xS3-on-%d" % n)
        for n in (5, 6)
    ]
    + [pytest.param([], n, id="trivial-%d" % n) for n in (1, 4)]
    + [pytest.param(cycles_on(5, "(0 1 2)", "(0 1 2 3 4)"), 5, id="Alt(5)")]
    + [pytest.param(full_alternating(n), n, id="Alt(%d)" % n) for n in (4, 6, 7, 8)]
    + [pytest.param(list(four_orbit_group().generators), 7, id="four-orbit")]
    + [pytest.param(cycles_on(7, "(0 1)(2 3)", "(4 5 6)"), 7, id="diagonal-S2-x-A3")]
)
# F is a proper subgroup of that kernel times the image, so every Schreier
# generator is tested
BELOW_THE_BOUND = [
    pytest.param(cycles_on(6, "(0 1 2 3 4 5)"), 6, id="C6"),
    pytest.param(cycles_on(4, "(0 1 2 3)", "(0 2)"), 4, id="D4"),
    pytest.param(cycles_on(6, "(0 1 2)(3 4 5)", "(0 3)(1 4)(2 5)"), 6, id="C3-wr-C2"),
]


def check_chain(gens, degree, rng):
    """Order and membership against sympy; for degree <= 6, every least
    element mapping against the brute-force closure."""
    group = closure_enumerate(gens, degree)
    oracle_group = sym_group(gens or [Permutation(range(degree))], degree)
    assert group.order == oracle_group.order()
    for _ in range(10):
        outside = random_permutation(rng, degree)
        inside = Permutation(range(degree))
        for g in rng.choices(gens, k=6) if gens else ():
            inside = inside * g
        assert inside in group
        assert (outside in group) == oracle_group.contains(
            SymPerm(list(outside.images), size=degree)
        )
    if degree <= 6:
        oracle = closure_oracle(gens, degree)
        for chi in range(degree):
            for image in group.orbits[group.orbit_of[chi]]:
                least = min(g for g in oracle if g[chi] == image)
                assert group.least_element_mapping(chi, image).images == least
    return group


@pytest.mark.parametrize("gens, degree", REACH_THE_BOUND)
def test_chain_stops_at_the_orbit_product_bound(gens, degree):
    group = check_chain(gens, degree, random.Random(109))
    assert group.order == parity_bound(group)


@pytest.mark.parametrize("gens, degree", BELOW_THE_BOUND)
def test_chain_below_the_orbit_product_bound(gens, degree):
    group = check_chain(gens, degree, random.Random(110))
    assert group.order < parity_bound(group)


# (generators, degree, order by its closed form): the random phase gives up
# on these and the deterministic completion builds the chain
BELOW_THE_BOUND_PANEL = [
    pytest.param(
        wreath_with_cyclic_top([[(0, 1)]], 2, 30), 60, 2**30 * 30, id="C2-wr-C30"
    ),
    pytest.param(
        wreath_with_cyclic_top([[(0, 1)], [tuple(range(6))]], 6, 10), 60, 720**10 * 10,
        id="Sym(6)-wr-C10",
    ),
    pytest.param(
        wreath_with_cyclic_top([[(0, 1)], [(0, 1, 2)]], 3, 20), 60, 6**20 * 20,
        id="Sym(3)-wr-C20",
    ),
    pytest.param(affine_line(61, 2), 61, 61 * 60, id="AGL(1,61)"),
    pytest.param([from_cycles([tuple(range(2001))], 2001)], 2001, 2001, id="C2001"),
]


@pytest.mark.parametrize("gens, degree, order", BELOW_THE_BOUND_PANEL)
def test_chain_below_the_bound_panel(gens, degree, order):
    rng = random.Random(112)
    group = closure_enumerate(gens, degree)
    assert group.order == order < parity_bound(group)
    for _ in range(5):
        inside = Permutation(range(degree))
        for g in rng.choices(gens, k=8):
            inside = inside * g
        assert inside in group
    # a transposition fixes too many points for the affine and cyclic
    # groups, and moves 0 and 6 between blocks of the wreath products
    assert from_cycles([(0, 6)], degree) not in group


@pytest.mark.parametrize("make, order", [(full_symmetric, factorial), (full_alternating,
                         lambda n: factorial(n) // 2)], ids=["Sym(100)", "Alt(100)"])
def test_large_symmetric_and_alternating_groups_build_fast(make, order):
    rng = random.Random(113)
    gens = make(100)
    start = time.perf_counter()
    group = closure_enumerate(gens, 100)
    assert time.perf_counter() - start < 3
    assert group.order == order(100) == parity_bound(group)
    odd = from_cycles([(0, 1)], 100)
    assert (odd in group) == (make is full_symmetric)
    for _ in range(5):
        images = list(range(100))
        rng.shuffle(images)
        p = Permutation(images)
        assert (p in group) == (make is full_symmetric or p.parity() == 1)


def test_closure_leaves_the_global_random_state_alone():
    state = random.getstate()
    for gens, degree in [(full_symmetric(12), 12), (cycles_on(6, "(0 1 2 3 4 5)"), 6)]:
        closure_enumerate(gens, degree)
    assert random.getstate() == state


def test_chain_on_criterion_12_groups():
    rng = random.Random(111)
    for gens, degree in criterion_12_groups():
        check_chain(gens, degree, rng)


# -- structural predicates --------------------------------------------------------


def test_structure_report_matches_sympy():
    rng = random.Random(107)
    for _ in range(40):
        degree = rng.randrange(3, 8)
        gens = [random_permutation(rng, degree) for _ in range(2)]
        group = closure_enumerate(gens, degree)
        oracle = sym_group(gens, degree)
        report = structure_report(group)
        assert report["transitive"] == oracle.is_transitive()
        if report["transitive"]:
            assert report["primitive"] == oracle.is_primitive()
            pair_orbits = degree * (degree - 1)
            doubly = oracle.orbit((0, 1), "tuples")
            assert report["doubly_transitive"] == (len(doubly) == pair_orbits)
        else:
            assert not report["doubly_transitive"]
            assert not report["primitive"]
            assert report["block_system"] is None


def test_structure_report_block_system():
    group = group_from(["(0 1 2 3)"], 4)
    report = structure_report(group)
    assert report["transitive"]
    assert not report["primitive"]
    blocks = report["block_system"]
    assert blocks is not None
    union = sorted(x for block in blocks for x in block)
    assert union == [0, 1, 2, 3]
    sizes = {len(block) for block in blocks}
    assert len(sizes) == 1  # blocks of equal size
    for g in closure_oracle(group.generators, 4):
        for block in blocks:
            image = tuple(sorted(g[x] for x in block))
            assert image in blocks


def test_structure_report_invalid_support():
    group = four_orbit_group()
    with pytest.raises(NotInvariant):
        structure_report(group, support=(1, 3))
    with pytest.raises(ValueError):
        structure_report(closure_enumerate([], 3), support=())


def test_contains_alternating_matches_enumeration():
    cases = [
        (["(0 1 2)", "(0 1)"], 3, (0, 1, 2)),
        (["(0 1 2)"], 3, (0, 1, 2)),
        (["(0 1 2 3 4)", "(0 1)"], 5, (0, 1, 2, 3, 4)),
        (["(0 1 2 3 4)"], 5, (0, 1, 2, 3, 4)),
        (["(1 2 3)", "(2 3 4)"], 5, (1, 2, 3, 4)),
    ]
    for texts, degree, support in cases:
        group = group_from(texts, degree)
        oracle = sym_group(group.generators, degree)
        expected = all(
            oracle.contains(SymPerm([image[x] for x in range(degree)], size=degree))
            for image in (
                {**{x: x for x in range(degree)}, **even}
                for even in even_permutations(support)
            )
        )
        assert contains_alternating(group, support) == expected


def test_contains_alternating_requires_support():
    with pytest.raises(ValueError):
        contains_alternating(group_from(["(0 1 2)"], 4), (0, 1))  # not invariant
    # invariant, but the group moves 0 and 1 outside it
    with pytest.raises(ValueError, match="moves colours outside the support"):
        contains_alternating(group_from(["(0 1)"], 4), (2, 3))


@pytest.mark.parametrize("bad", BAD_COLOURS)
def test_functions_taking_colours_name_a_bad_colour(bad):
    group = four_orbit_group()  # d = 6
    for name, call in colour_calls(group, bad).items():
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "colour %r outside 0..6" % (bad,), name


def test_colour_checks_hold_without_asserts():
    # python -O strips assert statements; no check of a colour argument is one
    code = """
from coloured_neretin import contains_alternating, is_sign_well_defined
from conftest import four_orbit_group, group_from
from colour_calls import BAD_COLOURS, colour_calls
group = four_orbit_group()
calls = [lambda: contains_alternating(group_from(["(0 1)"], 4), (2, 3))]
for bad in BAD_COLOURS:
    calls += colour_calls(group, bad).values()
    calls.append(lambda bad=bad: is_sign_well_defined(group, (1, 2, bad), target="nf"))
for call in calls:
    try:
        call()
    except ValueError as exc:
        print(exc)
"""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(here), "src"), here, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "the group moves colours outside the support [2, 3]"
    expected = [
        "colour %r outside 0..6" % (bad,) for bad in BAD_COLOURS for _ in range(8)
    ]
    assert lines[1:] == expected


def test_stabilizer_restriction_four_orbit_example():
    group = four_orbit_group()
    # the even four-element union passes at every colour
    for chi in range(7):
        assert stabilizer_restriction_in_alt(group, chi, (1, 2, 3, 4))
    # each two-element orbit fails at some colour
    for subset in ((1, 2), (3, 4), (5, 6), (1, 2, 3, 4, 5, 6)):
        assert not all(
            stabilizer_restriction_in_alt(group, chi, subset) for chi in range(7)
        )
    with pytest.raises(NotInvariant):
        stabilizer_restriction_in_alt(group, 0, (1, 3))

