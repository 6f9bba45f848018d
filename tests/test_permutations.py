import random
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
    parse_cycles,
    stabilizer_restriction_in_alt,
    structure_report,
    trivial_group,
)
from coloured_neretin.covolume import is_single_switch_sizes
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
    assert list(p.moved_points()) == [1, 2, 3, 4]
    assert [x for x in range(6) if p(x) == x] == [0, 5]
    assert p.parity() == 1
    assert from_cycles([(0, 1, 2)], 4).parity() == 1
    assert from_cycles([(0, 1)], 4).parity() == -1


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
    assert rotation != switch_group()
    assert trivial_group(3) != trivial_group(4)
    assert rotation != closure_oracle(rotation.generators, 4)


def test_trivial_group():
    group = trivial_group(5)
    assert group.order == 1
    assert group.orbits == ((0,), (1,), (2,), (3,), (4,))
    assert group.d == 4


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
            for chi in range(degree):
                assert stabilizer_restriction_in_alt(group, chi, subset) == all(
                    even_there[g] for g in oracle if g[chi] == chi
                )


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


# -- the chain's stop at the orbit-product bound ---------------------------------


def cycles_on(degree, *cycle_texts):
    return [parse_cycles(text, degree) for text in cycle_texts]


def full_symmetric(degree):
    return [from_cycles([(0, 1)], degree), from_cycles([tuple(range(degree))], degree)]


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


# (generators, degree): F is the full product of the symmetric groups on its
# orbits, so the chain stops once its order reaches prod |O_i|!
REACH_THE_BOUND = (
    [pytest.param(full_symmetric(n), n, id="Sym(%d)" % n) for n in range(3, 9)]
    + [
        pytest.param(cycles_on(n, "(0 1)", "(2 3)", "(2 3 4)"), n, id="S2xS3-on-%d" % n)
        for n in (5, 6)
    ]
    + [pytest.param([], n, id="trivial-%d" % n) for n in (1, 4)]
)
# F is a proper subgroup of that product, so every Schreier generator is tested
BELOW_THE_BOUND = [
    pytest.param(cycles_on(5, "(0 1 2)", "(0 1 2 3 4)"), 5, id="Alt(5)"),
    pytest.param(cycles_on(6, "(0 1 2 3 4 5)"), 6, id="C6"),
    pytest.param(list(four_orbit_group().generators), 7, id="four-orbit"),
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
    assert group.order == prod(factorial(size) for size in group.orbit_sizes)


@pytest.mark.parametrize("gens, degree", BELOW_THE_BOUND)
def test_chain_below_the_orbit_product_bound(gens, degree):
    group = check_chain(gens, degree, random.Random(110))
    assert group.order < prod(factorial(size) for size in group.orbit_sizes)


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
        structure_report(trivial_group(3), support=())


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
    group = group_from(["(0 1 2)"], 4)
    with pytest.raises(AssertionError):
        contains_alternating(group, (0, 1))


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

