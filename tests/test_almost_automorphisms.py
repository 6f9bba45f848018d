import enum
import gc
import json
import random
import time
import weakref

import pytest

from coloured_neretin import (
    CompleteSubtree,
    NotInvariant,
    NotWellDefined,
    OrbitViolation,
    PrefixTooShort,
    SizeMismatch,
    TreePairElement,
    admissible_child_colours,
    closure_enumerate,
    compose,
    element_from_dict,
    element_from_local_data,
    element_to_dict,
    find_sign_violation,
    from_cycles,
    identity_element,
    is_prefix,
    is_sign_well_defined,
    make_element,
    parse_cycles,
    plane_for,
    purely_infinite_witness,
    random_element,
    sign,
    sphere,
    stabilizer_restriction_in_alt,
    translation_element,
)
from coloured_neretin.cli import main
from conftest import (
    assert_complete,
    four_orbit_group,
    group_from,
    random_complete_tree,
    random_word,
    rotation_group,
    small_trivial,
    switch_group,
    sym_group,
    tree_depth,
)
from random_element_oracle import seed_random_element


# -- oracles ------------------------------------------------------------------


def free_reduce(*words):
    """Concatenation in the free product of involutions, with cancellation."""
    stack = []
    for word in words:
        for c in word:
            if stack and stack[-1] == c:
                stack.pop()
            else:
                stack.append(c)
    return tuple(stack)


def leafset_parity(mapping):
    """Parity of a permutation of a finite set, by cycle counting."""
    assert sorted(mapping) == sorted(mapping.values())
    seen, transpositions = set(), 0
    for start in mapping:
        if start in seen:
            continue
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x = mapping[x]
            length += 1
        transpositions += length - 1
    return -1 if transpositions % 2 else 1


def apply_deep(e, word):
    """apply_to_prefix after extending the word legally if it is too short."""
    while True:
        try:
            return e.apply_to_prefix(word), word
        except PrefixTooShort:
            word = word + (admissible_child_colours(word, e.group.d)[0],)


ALL_GROUPS = [
    closure_enumerate([], 3),
    switch_group(),
    rotation_group(),
    four_orbit_group(),
    group_from(["(0 1)", "(2 3)"], 4),
]


# -- group laws against the boundary action ---------------------------------------


def test_compose_matches_boundary_action():
    rng = random.Random(21)
    for group in ALL_GROUPS:
        for _ in range(40):
            a = random_element(group, rng, 4)
            b = random_element(group, rng, 4)
            ab = compose(a, b)
            word = random_word(rng, group.d, 14)
            via_b = b.apply_to_prefix(word)
            lhs = ab.apply_to_prefix(word)
            rhs = a.apply_to_prefix(via_b)
            # both describe the image cylinder of the same boundary word
            k = min(len(lhs), len(rhs))
            assert lhs[:k] == rhs[:k]


def test_associativity():
    rng = random.Random(22)
    for group in ALL_GROUPS:
        for _ in range(15):
            a = random_element(group, rng, 3)
            b = random_element(group, rng, 3)
            c = random_element(group, rng, 3)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_identity_and_inverses():
    rng = random.Random(23)
    for group in ALL_GROUPS:
        e = identity_element(group)
        assert e.is_identity()
        for _ in range(15):
            a = random_element(group, rng, 4)
            assert compose(a, e.reduce()) == a
            assert compose(e.reduce(), a) == a
            assert compose(a, a.inverse()).is_identity()
            assert compose(a.inverse(), a).is_identity()
            assert a.inverse().inverse() == a


def test_inverse_reverses_boundary_action():
    rng = random.Random(24)
    group = rotation_group()
    for _ in range(30):
        a = random_element(group, rng, 5)
        word = random_word(rng, group.d, 16)
        forward = a.apply_to_prefix(word)
        assert a.inverse().apply_to_prefix(forward)[: len(word)] == word


# -- reduction ---------------------------------------------------------------------


def test_reduce_confluence_under_random_expansion():
    rng = random.Random(26)
    for group in ALL_GROUPS:
        for _ in range(25):
            e = random_element(group, rng, 4)
            assert e.reduce() is e
            blown = e
            for _ in range(rng.randrange(1, 7)):
                leaf = blown.domain.leaves[rng.randrange(len(blown.domain))]
                blown = blown.expand_at(leaf)
            assert blown.reduce() == e
            # expansion never changes the boundary action
            word = random_word(rng, group.d, 16)
            assert blown.apply_to_prefix(word) == e.apply_to_prefix(word)


def test_identity_reduces_to_first_ball():
    group = rotation_group()
    ball = CompleteSubtree.ball(group.d, 2)
    e = TreePairElement(group, ball, ball, {w: w for w in ball.leaves}).reduce()
    assert len(e.domain) == group.d + 1
    assert e.is_identity()


def test_expand_at_requires_domain_leaf():
    e = identity_element(switch_group())
    with pytest.raises(ValueError):
        e.expand_at((0, 1))


# -- validation --------------------------------------------------------------------


def test_make_element_size_mismatch():
    group = switch_group()
    ball1 = sphere(3, 1)
    ball2 = sphere(3, 2)
    with pytest.raises(SizeMismatch):
        make_element(ball1, ball2, {}, group)


def test_make_element_orbit_violation():
    group = switch_group()  # orbits {0}, {1,2}, {3}
    leaves = sphere(3, 1)
    mapping = {(0,): (3,), (1,): (1,), (2,): (2,), (3,): (0,)}
    with pytest.raises(OrbitViolation):
        make_element(leaves, leaves, mapping, group)


def test_make_element_rejects_non_bijections(tmp_path, capsys):
    group = switch_group()
    leaves = sphere(3, 1)
    with pytest.raises(ValueError, match="duplicate index 0"):
        make_element(leaves, leaves, [0, 0, 1, 2], group)
    with pytest.raises(ValueError, match="not a bijection"):
        make_element(leaves, leaves, {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (2,)}, group)
    # element files over trivial F at d = 2 whose kappa is no permutation of 0..2
    for kappa, message in (
        ([0, 1, 5], "kappa[2] = 5 is out of range"),
        ([0, 1, -1], "kappa[2] = -1 is out of range"),
        ([0, 1], "kappa has 2 entries, expected 3"),
    ):
        data = {
            "d": 2,
            "F_generators": [],
            "domain": [[0], [1], [2]],
            "range": [[0], [1], [2]],
            "kappa": kappa,
        }
        with pytest.raises(ValueError) as info:
            element_from_dict(data)
        assert str(info.value) == message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["reduce", str(path)]) == 1
        err = capsys.readouterr().err
        assert "bad.json: %s" % message in err
        assert "Traceback" not in err


def test_a_duplicate_kappa_entry_is_named_in_linear_time():
    # the repeat is at the end of 49 152 entries, where a count per entry
    # would be quadratic
    leaves = sphere(2, 15)
    kappa = list(range(len(leaves)))
    kappa[-2] = kappa[-1]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="duplicate index 49151$"):
        make_element(leaves, leaves, kappa, small_trivial(2))
    assert time.perf_counter() - start < 1.0


def test_prefix_too_short_reports_needed_depth():
    group = rotation_group()
    e = translation_element(group, (0, 1, 2))
    with pytest.raises(PrefixTooShort) as info:
        e.apply_to_prefix((2,))
    needed = info.value.needed_depth
    deep = (2, 1, 0, 1, 0, 1, 0, 1)[:needed]
    assert e.apply_to_prefix(deep)  # deep enough now


# -- signs --------------------------------------------------------------------------


def test_sign_of_identity_and_multiplicativity():
    rng = random.Random(27)
    group = four_orbit_group()
    subset = (1, 2, 3, 4)
    assert sign(identity_element(group).reduce(), subset) == 1
    for _ in range(30):
        a = random_element(group, rng, 4)
        b = random_element(group, rng, 4)
        sa = sign(a, subset)
        sb = sign(b, subset)
        assert sign(compose(a, b), subset) == sa * sb
        assert sign(a.inverse(), subset) == sa


def quadratic_sign(e, subset):
    """The honest sign as first computed: both whole leaf lists in plane
    order, filtered to the subset's colours, and the inversions of the
    matched positions counted pair by pair."""
    plane = e.plane
    dom = [v for v in plane.lex_sorted(e.domain.leaves) if v[-1] in subset]
    ran = [w for w in plane.lex_sorted(e.range.leaves) if w[-1] in subset]
    position = {w: k for k, w in enumerate(ran)}
    seq = [position[e.leaf_image(v)] for v in dom]
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def test_sign_matches_the_inversion_count_on_random_pairs():
    rng = random.Random(29)
    cases = [
        (four_orbit_group(), [(1, 2), (3, 4), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)]),
        (switch_group(), [(1, 2), (0, 3)]),
        (small_trivial(3), [(0, 1), (0, 1, 2, 3)]),
    ]
    odd = 0
    for group, subsets in cases:
        for _ in range(8):
            a, b = random_element(group, rng, 5), random_element(group, rng, 5)
            for e in (a, b, compose(a, b)):
                for subset in subsets:
                    value = quadratic_sign(e, subset)
                    assert sign(e, subset, mode="honest") == value
                    assert sign(e, subset, mode="class") == quadratic_sign(
                        e.reduce(), subset
                    )
                    odd += value == -1
    assert odd > 0  # both parities occur


def test_honest_sign_stable_under_expansion_for_even_subsets():
    rng = random.Random(28)
    group = four_orbit_group()
    for subset in ((1, 2), (3, 4), (5, 6), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)):
        assert is_sign_well_defined(group, subset, target="vf")
        for _ in range(10):
            e = random_element(group, rng, 4)
            value = sign(e, subset, mode="honest")
            blown = e
            for _ in range(5):
                leaf = blown.domain.leaves[rng.randrange(len(blown.domain))]
                blown = blown.expand_at(leaf)
                assert sign(blown, subset, mode="honest") == value


def test_odd_subsets_have_explicit_violations():
    group = rotation_group()  # orbit {1,2,3} has odd size
    subset = (1, 2, 3)
    assert not is_sign_well_defined(group, subset)
    element, expanded = find_sign_violation(group, subset)
    assert expanded.reduce() == element.reduce()  # same element of the group
    s1 = sign(element, subset, mode="honest")
    s2 = sign(expanded, subset, mode="honest")
    assert s1 != s2
    with pytest.raises(NotWellDefined):
        sign(element, subset, mode="class")


def test_class_sign_rejects_bad_subsets():
    group = four_orbit_group()
    e = identity_element(group).reduce()
    with pytest.raises(NotInvariant):
        sign(e, (1, 3))  # not invariant
    with pytest.raises(NotWellDefined):
        sign(e, (5, 6), target="nf")  # stabilizer parity fails
    assert sign(e, (5, 6), target="vf") == 1
    assert sign(e, (), mode="honest") == 1  # empty subset, trivially +1
    with pytest.raises(NotInvariant):
        is_sign_well_defined(group, (1, 3))  # no sign to ask about


@pytest.mark.parametrize("bad", [7, -1, 2.0, "2", True, None])
def test_sign_functions_name_a_bad_colour(bad):
    group = four_orbit_group()  # d = 6
    e = identity_element(group)
    calls = [
        lambda: find_sign_violation(group, (bad,)),
        lambda: is_sign_well_defined(group, (1, 2, bad), target="vf"),
        lambda: is_sign_well_defined(group, (1, 2, bad), target="nf"),
    ] + [
        lambda mode=mode, target=target: sign(e, (1, 2, bad), mode=mode, target=target)
        for mode in ("class", "honest")
        for target in ("vf", "nf")
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "colour %r outside 0..6" % (bad,)


def test_nf_per_orbit_matches_every_colour():
    groups = [
        small_trivial(3),
        switch_group(),
        rotation_group(),
        four_orbit_group(),
        group_from(["(1 2)"], 3),
        group_from(["(0 1)", "(2 3)"], 4),
        group_from(["(1 2)(3 4)", "(3 4)(5 6)"], 7),
        group_from(["(0 1 2 3 4 5)"], 6),
    ]
    decided = 0
    for group in groups:
        for mask in range(1 << len(group.orbits)):
            subset = [c for k, orbit in enumerate(group.orbits) if mask >> k & 1 for c in orbit]
            every_colour = len(subset) % 2 == 0 and all(
                stabilizer_restriction_in_alt(group, chi, subset) for chi in range(group.degree)
            )
            assert is_sign_well_defined(group, subset, target="nf") == every_colour
            decided += every_colour
    assert 0 < decided


def test_nf_sign_test_visits_each_colour_once():
    # one walk over every orbit, not one check of the subset and of every
    # generator's parity per orbit representative
    group = group_from(["(1 2)(3 4)"], 4002)
    start = time.perf_counter()
    assert is_sign_well_defined(group, range(4002), target="nf")
    assert time.perf_counter() - start < 0.5


def test_nf_well_defined_exactly_for_the_even_union():
    group = four_orbit_group()
    well = []
    # nonempty unions of orbits
    for mask in range(1, 16):
        subset = tuple(
            c
            for i, orbit in enumerate(group.orbits)
            if mask & (1 << i)
            for c in orbit
        )
        if is_sign_well_defined(group, subset, target="nf"):
            well.append(subset)
    assert well == [(1, 2, 3, 4)]


def letterwise_twist_element(group, p, depth):
    """The ball restriction of the letterwise colour relabelling by p."""
    ball = CompleteSubtree.ball(group.d, depth)
    mapping = {w: tuple(p(c) for c in w) for w in ball.leaves}
    return TreePairElement(group, ball, ball, mapping)


def test_letterwise_twist_ball_signs():
    # F = <(1 2)>: the twist by (1 2) is a tree automorphism whose local
    # action is never order-preserving, and whose ball signs on D' = {1,2}
    # depend on the ball when d = 2.  Cycle-count parity is the oracle.
    subset = (1, 2)
    for d, expected in ((2, [-1, 1, 1, 1]), (3, [-1, -1, -1, -1])):
        group = group_from(["(1 2)"], d + 1)
        p = parse_cycles("(1 2)", d + 1)
        got = []
        for depth in (1, 2, 3, 4):
            e = letterwise_twist_element(group, p, depth)
            oracle = leafset_parity(
                {
                    w: e.leaf_image(w)
                    for w in e.domain.leaves
                    if w[-1] in subset
                }
            )
            value = sign(e, subset, mode="honest")
            assert value == oracle
            got.append(value)
        assert got == expected
    # the unstable case is exactly the one whose stabilizer parity fails,
    # so no class sign is ever attached to it
    assert not is_sign_well_defined(group_from(["(1 2)"], 3), subset, target="nf")


# -- translations and witnesses ---------------------------------------------------


def test_translation_acts_by_left_multiplication():
    rng = random.Random(29)
    for group in (switch_group(), rotation_group()):
        d = group.d
        for _ in range(40):
            word = random_word(rng, d, rng.randrange(0, 5))
            e = translation_element(group, word)
            u = random_word(rng, d, 12)
            image, u = apply_deep(e, u)
            assert image == free_reduce(word, u)


def test_translation_is_a_homomorphism():
    rng = random.Random(30)
    group = rotation_group()
    for _ in range(25):
        w1 = random_word(rng, group.d, rng.randrange(0, 5))
        w2 = random_word(rng, group.d, rng.randrange(0, 5))
        lhs = compose(translation_element(group, w1), translation_element(group, w2))
        rhs = translation_element(group, free_reduce(w1, w2))
        assert lhs == rhs


def test_translation_identity():
    group = switch_group()
    assert translation_element(group, ()).is_identity()


def clopen_image(e, cylinders):
    """Range leaves covering the image of the clopen union of cylinders."""
    refined = e
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


def test_purely_infinite_witness_small_case():
    group = switch_group()
    cylinders = [(0,), (1, 0)]
    g, h = purely_infinite_witness(group, cylinders)
    g_image = clopen_image(g, cylinders)
    h_image = clopen_image(h, cylinders)
    for image in (g_image, h_image):
        assert image, "image should be nonempty"
        for w in image:
            assert any(is_prefix(u, w) for u in cylinders)
    for w1 in g_image:
        for w2 in h_image:
            assert not is_prefix(w1, w2) and not is_prefix(w2, w1)


def test_purely_infinite_witness_random_clopens():
    rng = random.Random(31)
    for group in (closure_enumerate([], 3), rotation_group(), group_from(["(0 1 2 3 4)"], 5)):
        d = group.d
        for _ in range(10):
            tree = random_complete_tree(d, rng, rng.randrange(0, 5))
            k = rng.randrange(1, len(tree))
            cylinders = rng.sample(list(tree.leaves), k)
            g, h = purely_infinite_witness(group, cylinders)
            g_image = clopen_image(g, cylinders)
            h_image = clopen_image(h, cylinders)
            for image in (g_image, h_image):
                for w in image:
                    assert any(is_prefix(u, w) for u in cylinders)
            for w1 in g_image:
                for w2 in h_image:
                    assert not is_prefix(w1, w2) and not is_prefix(w2, w1)


def test_purely_infinite_witness_rejects_bad_input():
    group = switch_group()
    with pytest.raises(ValueError):
        purely_infinite_witness(group, [])
    with pytest.raises(ValueError):
        purely_infinite_witness(group, [(0,), (0, 1)])  # overlapping
    with pytest.raises(ValueError):
        purely_infinite_witness(group, [(0,), (1,), (2,), (3,)])  # everything
    with pytest.raises(ValueError, match="U is the whole boundary"):
        purely_infinite_witness(group, [()])


@pytest.mark.parametrize(
    "cylinders, pair",
    [
        ([(1,), (0, 1), (1,)], ((1,), (1,))),  # a duplicate
        ([(2, 0, 1), (0,), (3,), (2,)], ((2,), (2, 0, 1))),  # apart in the input
        ([(0, 1, 0), (1,), ()], ((), (0, 1, 0))),  # the root covers everything
    ],
)
def test_purely_infinite_witness_names_an_overlap_in_address_order(cylinders, pair):
    with pytest.raises(ValueError) as info:
        purely_infinite_witness(switch_group(), cylinders)
    assert str(info.value) == "cylinders %r and %r overlap" % pair


def test_purely_infinite_witness_of_many_cylinders_is_fast():
    # every vertex of the sphere of radius 12 at d = 2 but the last: 6 143
    # cylinders, where a check of every pair would be quadratic
    group = closure_enumerate([], 3)
    cylinders = sphere(2, 12)[:-1]
    start = time.perf_counter()
    g, h = purely_infinite_witness(group, cylinders)
    assert time.perf_counter() - start < 1.0
    # words below sampled cylinders go into U, and g and h send them apart
    inside = set(cylinders)
    rng = random.Random(33)
    g_images, h_images = set(), set()
    for u in rng.sample(cylinders, 20):
        word = u
        while len(word) < 60:
            word += (rng.choice(admissible_child_colours(word, 2)),)
        for e, images in ((g, g_images), (h, h_images)):
            image = e.apply_to_prefix(word)
            assert image[:12] in inside
            images.add(image[:14])
    assert g_images.isdisjoint(h_images)


# -- local data --------------------------------------------------------------------


def test_element_from_local_data_letterwise_values():
    group = switch_group()
    p = parse_cycles("(1 2)", 4)
    e = element_from_local_data(group, {(): p})
    # below the root the element transports canonically, so the subtree at
    # (1,) is carried to (2,) by f_2^{-1} f_1 = (1 2) letterwise, while the
    # fixed subtrees at (0,) and (3,) are untouched
    assert e.apply_to_prefix((1, 0)) == (2, 0)
    assert e.apply_to_prefix((1, 2)) == (2, 1)
    assert e.apply_to_prefix((0, 1)) == (0, 1)
    assert e.apply_to_prefix((3, 0)) == (3, 0)


def test_element_from_local_data_identity():
    group = rotation_group()
    e = element_from_local_data(group, {})
    assert e.is_identity()


def test_element_from_local_data_consistency():
    group = switch_group()
    p = parse_cycles("(1 2)", 4)
    # after twisting at the root, the vertex (1,) maps to (2,), so local data
    # at (1,) must send colour 1 to colour 2: the identity there is inconsistent
    with pytest.raises(ValueError):
        element_from_local_data(group, {(): p, (1,): group.identity()})
    # and p itself is consistent
    e = element_from_local_data(group, {(): p, (1,): p})
    assert e.apply_to_prefix((1, 0)) == (2, 0)


def test_element_from_local_data_rejects_foreign_permutations():
    group = switch_group()
    with pytest.raises(ValueError):
        element_from_local_data(group, {(): parse_cycles("(0 3)", 4)})


def test_element_from_local_data_accepts_cycle_strings():
    group = switch_group()
    assert element_from_local_data(group, {(): "(1 2)"}) == element_from_local_data(
        group, {(): parse_cycles("(1 2)", 4)}
    )


# -- serialization -----------------------------------------------------------------


def test_element_dict_round_trip():
    rng = random.Random(32)
    for group in ALL_GROUPS:
        for _ in range(10):
            e = random_element(group, rng, 5)
            data = element_to_dict(e)
            json.dumps(data)  # must be JSON-ready
            loaded = element_from_dict(data)
            assert loaded == e and hash(loaded) == hash(e)
            assert repr(e) == "TreePairElement(%d leaves, d=%d)" % (len(e.domain), group.d)
            assert element_from_dict(data, group=group) == e


def test_element_from_dict_validates():
    with pytest.raises(ValueError):
        element_from_dict({"d": 3, "domain": [], "range": []})  # no kappa
    with pytest.raises(ValueError):
        element_from_dict({"d": 1, "domain": [], "range": [], "kappa": []})
    data = element_to_dict(identity_element(switch_group()))
    data["kappa"] = [0, 0, 1, 2]
    with pytest.raises(ValueError):
        element_from_dict(data)


def test_loaded_element_frees_its_colour_group():
    # the cached plane order of a group must not keep that group alive
    data = element_to_dict(random_element(four_orbit_group(), random.Random(40), 6))
    e = element_from_dict(data)
    assert compose(e.inverse(), e) == identity_element(e.group)
    group = weakref.ref(e.group)
    del e
    gc.collect()
    assert group() is None


@pytest.mark.parametrize("entry", [2.0, "1", True])
def test_element_from_dict_names_bad_kappa_entries(entry):
    data = element_to_dict(identity_element(switch_group()))
    data["kappa"][1] = entry
    with pytest.raises(ValueError, match=r"kappa\[1\] is not an integer"):
        element_from_dict(data)


def test_make_element_names_a_kappa_entry_of_an_int_subclass():
    # an IntEnum compares like an int, but kappa entries must be ints
    Index = enum.IntEnum("Index", ["ONE", "TWO"])
    leaves = sphere(3, 1)
    with pytest.raises(ValueError) as info:
        make_element(leaves, leaves, [0, Index.ONE, 2, 3], switch_group())
    assert str(info.value) == "kappa[1] is not an integer: %r" % (Index.ONE,)


@pytest.mark.parametrize("letter", [3.0, "a", True])
def test_make_element_names_bad_letters(letter):
    words = [[0], [1], [2], [3]]
    bad = [[0], [1], [2], [letter]]
    with pytest.raises(ValueError) as info:
        make_element(bad, words, [0, 1, 2, 3], rotation_group())
    assert str(info.value) == "domain[3][0] is not an integer: %r" % (letter,)
    with pytest.raises(ValueError) as info:
        make_element(words, bad, [0, 1, 2, 3], rotation_group())
    assert str(info.value) == "range[3][0] is not an integer: %r" % (letter,)


@pytest.mark.parametrize("letter, at", [(3.0, 3), ("a", 3), (True, 1)])
def test_make_element_names_bad_bijection_letters(letter, at):
    # the bad letter replaces the leaf it compares equal to, if any, so the
    # dict keeps four entries
    words = [[0], [1], [2], [3]]
    good = {(0,): (0,), (1,): (2,), (2,): (3,), (3,): (1,)}
    assert make_element(words, words, good, rotation_group()).leaf_image((1,)) == (2,)
    bad_key = {((letter,) if v == (at,) else v): w for v, w in good.items()}
    with pytest.raises(ValueError) as info:
        make_element(words, words, bad_key, rotation_group())
    assert str(info.value) == "bijection keys[%d][0] is not an integer: %r" % (at, letter)
    bad_value = {v: ((letter,) if w == (at,) else w) for v, w in good.items()}
    with pytest.raises(ValueError) as info:
        make_element(words, words, bad_value, rotation_group())
    index = list(good.values()).index((at,))
    assert str(info.value) == "bijection values[%d][0] is not an integer: %r" % (index, letter)


def test_random_element_is_deterministic():
    group = rotation_group()
    a = random_element(group, random.Random(77), 6)
    b = random_element(group, random.Random(77), 6)
    assert a == b


@pytest.mark.parametrize(
    "group",
    [small_trivial(2), rotation_group(), four_orbit_group(), sym_group(4)],
    ids=["trivial_d2", "rotation", "four_orbit", "sym4"],
)
@pytest.mark.parametrize("expansions", [0, 1, 6, 40])
def test_random_element_draws_as_the_whole_range_scan_did(group, expansions):
    for seed in range(50):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        e = random_element(group, rng, expansions)
        oracle = seed_random_element(group, oracle_rng, expansions)
        assert (e.domain.leaves, e.range.leaves) == (oracle.domain.leaves, oracle.range.leaves)
        assert list(e._map.items()) == list(oracle._map.items())
        assert rng.getstate() == oracle_rng.getstate()


def test_random_element_of_many_expansions_is_fast():
    # a step costs no scan of the whole range: quadratic steps took 6 s here
    start = time.perf_counter()
    e = random_element(four_orbit_group(), random.Random(79), 4000)
    assert time.perf_counter() - start < 2
    assert_complete(e)


def test_random_element_changes_depth():
    # over a trivial colour group only a change of depth is not the identity
    rng = random.Random(78)
    trivial = small_trivial(2)
    identity = identity_element(trivial)
    moved = sum(random_element(trivial, rng, 3) != identity for _ in range(50))
    assert moved >= 45
    samples = [random_element(four_orbit_group(), rng, 3) for _ in range(50)]
    assert any(tree_depth(e.domain) != tree_depth(e.range) for e in samples)
