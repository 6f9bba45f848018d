import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloured_neretin import (
    CompleteSubtree,
    IncompleteTree,
    PlaneOrder,
    admissible_child_colours,
    Omega,
    check_address,
    closure_enumerate,
    element_from_dict,
    element_from_local_data,
    is_prefix,
    is_valid_address,
    make_element,
    plane_for,
    random_element,
    sft_graph_for_group,
    sphere,
)
from conftest import (
    closure_oracle,
    four_orbit_group,
    random_complete_tree,
    rotation_group,
    small_trivial,
    switch_group,
    sym_group,
)
from coloured_neretin.tree import _walks_complete
from tree_oracle import seed_check_complete


# -- addresses -----------------------------------------------------------------


def brute_sphere(d, n):
    words = [(c,) for c in range(d + 1)]
    for _ in range(n - 1):
        words = [w + (c,) for w in words for c in range(d + 1) if c != w[-1]]
    return words


def test_address_validity():
    assert is_valid_address((), 3)
    assert is_valid_address((0, 1, 0), 3)
    assert not is_valid_address((0, 0), 3)
    assert not is_valid_address((4,), 3)
    assert not is_valid_address((-1,), 3)
    check_address((2, 0, 2), 3)
    with pytest.raises(ValueError):
        check_address((1, 1), 3)
    with pytest.raises(ValueError):
        check_address((0, 5), 3)


@pytest.mark.parametrize(
    "address", [(0, True), (0, True, 0), (True,), (False, 1), (1.0,), (2, 1.0), (0, "1")]
)
def test_address_letters_must_be_ints(address):
    # bools and floats compare like ints, and a str does not compare at all:
    # each is refused as the address it is, by every entry point that takes one
    group = switch_group()
    omega = Omega(sft_graph_for_group(group), group)
    element = element_from_local_data(group, {(): "(1 2)"})
    assert not is_valid_address(address, 3)
    message = re.escape("invalid vertex address %r for d=3" % (address,))
    with pytest.raises(ValueError, match=message):
        omega.to_labels(address)
    with pytest.raises(ValueError, match=message):
        element.apply_to_prefix(address)
    with pytest.raises(ValueError, match=message):
        element_from_local_data(group, {address: group.identity()})


@pytest.mark.parametrize(
    "leaves, bad", [([(0,), (True,), (2,)], (True,)), ([(0,), (1.0,), (2,)], (1.0,))]
)
def test_leaf_letters_must_be_ints(leaves, bad):
    # the walk compares letters by equality, so a bool or a float that
    # equals the right colour must still be refused, as the address it is
    with pytest.raises(IncompleteTree) as info:
        CompleteSubtree(2, leaves)
    assert str(info.value) == "invalid address %r for d=2" % (bad,)


@pytest.mark.parametrize("d", [2, 3])
def test_a_letter_of_another_type_is_an_invalid_address(d):
    # every letter of a ball of radius 3 and of a mixed-depth tree, in turn
    # an equal float, an equal bool or a str: a float inside a word reaches
    # the walk's colour lookup, and a str does not sort among ints
    trees = [sphere(d, 3), random_complete_tree(d, random.Random(d), 8).leaves]
    for leaves in trees:
        for i, w in enumerate(leaves):
            for j, c in enumerate(w):
                for bad in [float(c), str(c)] + [bool(c)] * (c < 2):
                    word = w[:j] + (bad,) + w[j + 1 :]
                    with pytest.raises(IncompleteTree) as info:
                        CompleteSubtree(d, [*leaves[:i], word, *leaves[i + 1 :]])
                    assert str(info.value) == "invalid address %r for d=%d" % (word, d)


def test_admissible_child_colours():
    assert admissible_child_colours((), 3) == [0, 1, 2, 3]
    assert admissible_child_colours((2,), 3) == [0, 1, 3]
    assert admissible_child_colours((0, 1), 3) == [0, 2, 3]


def test_sphere_counts():
    for d in (2, 3, 4):
        for n in (1, 2, 3):
            words = sphere(d, n)
            assert words == brute_sphere(d, n)
            assert len(words) == (d + 1) * d ** (n - 1)
    assert sphere(3, 0) == [()]


def test_is_prefix():
    assert is_prefix((), (0, 1))
    assert is_prefix((0, 1), (0, 1))
    assert is_prefix((0, 1), (0, 1, 2))
    assert not is_prefix((0, 1), (0, 2, 1))
    assert not is_prefix((0, 1, 2), (0, 1))


# -- plane order: frozen values for the rotation group --------------------------


def test_rotation_group_child_orders():
    # F = <(1 2 3)> on colours {0,1,2,3}: canonical maps are
    # f_0 = f_1 = id, f_2 = (1 3 2), f_3 = (1 2 3), giving these child orders
    plane = PlaneOrder(rotation_group())
    orders = {v: [c[-1] for c in plane.children(v)] for v in [(), (0,), (1,), (2,), (3,)]}
    assert orders == {
        (): [0, 1, 2, 3],
        (0,): [1, 2, 3],
        (1,): [0, 2, 3],
        (2,): [0, 3, 1],
        (3,): [0, 1, 2],
    }
    assert plane.children((2,)) == [(2, 0), (2, 3), (2, 1)]


def letterwise_transport(plane, src, dst, tail):
    """f_dst^{-1} o f_src applied letter by letter with group arithmetic,
    each image colour becoming the next destination."""
    maps = plane.canonical_maps
    out = []
    for c in tail:
        out.append((maps[dst].inverse() * maps[src])(c))
        src, dst = c, out[-1]
    return tuple(out)


def test_canonical_map_properties():
    for group in (rotation_group(), switch_group(), four_orbit_group(), sym_group(4)):
        plane = PlaneOrder(group)
        d = group.d
        oracle = closure_oracle(group.generators, group.degree)
        for chi in range(group.degree):
            f = plane.canonical_maps[chi]
            rep = group.orbit_reps[group.orbit_of[chi]]
            assert f(chi) == rep
            # lexicographically least element of the group with f(chi) = rep
            assert f.images == min(g for g in oracle if g[chi] == rep)
            # the children are the admissible colours sorted by f_chi
            for v in [(chi,)] + [(c, chi) for c in range(group.degree) if c != chi]:
                assert plane.children(v) == [
                    v + (c,) for c in sorted(admissible_child_colours(v, d), key=f)
                ]
            # the transport is f_b^{-1} o f_a, letter by letter
            for dst in group.orbits[group.orbit_of[chi]]:
                for n in (1, 2, 3):
                    for tail in brute_sphere(d, n):
                        if tail[0] != chi:
                            assert plane.transport_tail(chi, dst, tail) == (
                                letterwise_transport(plane, chi, dst, tail)
                            )
        assert plane.children(()) == [(c,) for c in range(group.degree)]
        # representative colours get the identity, so rep vertices sort children
        # by plain colour order
        for rep in group.orbit_reps:
            assert plane.canonical_maps[rep].is_identity()


def test_label_word_is_its_definition_and_address_of_inverts_it():
    # label_word(v) = (v[0], f_{v[0]}(v[1]), ..., f_{v[n-2]}(v[n-1])), with
    # f read off canonical_maps; address_of undoes it
    groups = (small_trivial(2), switch_group(), rotation_group(), four_orbit_group(), sym_group(4))
    for group in groups:
        plane = PlaneOrder(group)
        maps = plane.canonical_maps
        addresses = [()] + [v for n in (1, 2, 3) for v in brute_sphere(group.d, n)]
        assert len(addresses) == 1 + sum((group.d + 1) * group.d ** k for k in range(3))
        for v in addresses:
            want = v[:1] + tuple(maps[v[i - 1]](v[i]) for i in range(1, len(v)))
            assert plane.label_word(v) == want
            assert plane.address_of(want) == v


def test_label_words_are_the_label_word_of_each_word():
    # label_words builds each word's labels from its parent's; every leaf of
    # random elements, in the leaf map's order and sorted, and the leaves of
    # B_1 and B_2 must get the labels label_word gives them one by one
    groups = (small_trivial(2), switch_group(), rotation_group(), four_orbit_group(), sym_group(4))
    rng = random.Random(42)
    for group in groups:
        plane = PlaneOrder(group)
        lists = [sphere(group.d, 1), sphere(group.d, 2)]
        for _ in range(8):
            e = random_element(group, rng, rng.randrange(1, 13))
            lists += [list(e._map), list(e._map.values()), e.domain.leaves, e.range.leaves]
        for words in lists:
            assert plane.label_words(words) == [plane.label_word(v) for v in words]


def test_transport_composition():
    group = rotation_group()
    plane = PlaneOrder(group)
    orbit = group.orbits[group.orbit_of[1]]
    for a in orbit:
        tails = [t for n in (1, 2, 3) for t in brute_sphere(3, n) if t[0] != a]
        for t in tails:
            assert plane.transport_tail(a, a, t) == t
            for b in orbit:
                moved = plane.transport_tail(a, b, t)
                for c in orbit:
                    assert plane.transport_tail(b, c, moved) == plane.transport_tail(a, c, t)
    assert plane.transport_tail(0, 1, ()) == ()
    with pytest.raises(ValueError, match="colours 0 and 1 lie in different orbits"):
        plane.transport_tail(0, 1, (2,))  # different orbits


def test_plane_of_a_large_trivial_group_builds_fast():
    # representatives take F's shared identity without a chain descent, and
    # the plane holds one map and one inverse per colour
    group = closure_enumerate([], 50001)
    start = time.perf_counter()
    plane = PlaneOrder(group)
    assert time.perf_counter() - start < 5.0
    assert all(plane.canonical_maps[chi] is group.identity() for chi in range(50001))
    assert plane.children((7,))[:3] == [(7, 0), (7, 1), (7, 2)]
    assert plane.transport_tail(3, 3, (0, 3, 9)) == (0, 3, 9)
    with pytest.raises(ValueError):
        plane.transport_tail(3, 9, (0,))  # every colour is its own orbit


def test_transport_tail_preserves_validity():
    group = rotation_group()
    plane = PlaneOrder(group)
    rng = random.Random(7)
    for _ in range(50):
        tail = []
        last = None
        for _ in range(6):
            c = rng.choice([x for x in range(4) if x != last])
            tail.append(c)
            last = c
        src = rng.choice([1, 2, 3])
        dst = rng.choice([1, 2, 3])
        src_tail = tuple(tail) if tail[0] != src else tuple(tail[1:])
        if not src_tail:
            continue
        image = plane.transport_tail(src, dst, src_tail)
        assert len(image) == len(src_tail)
        assert is_valid_address((dst,) + image, 3)


def test_lex_order_is_total_and_descendant_first():
    group = switch_group()
    plane = plane_for(group)
    words = [w for n in (1, 2, 3) for w in brute_sphere(3, n)]
    ordered = plane.lex_sorted(words)
    # total order: distinct addresses get strictly increasing keys
    keys = [plane.lex_key(w) for w in ordered]
    assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))
    # strict descendants come before their ancestors, siblings follow the
    # plane order of their parent
    position = {w: k for k, w in enumerate(ordered)}
    for w in ordered:
        if len(w) < 3:
            children = plane.children(w)
            assert all(position[c] < position[w] for c in children)
            assert [position[c] for c in children] == sorted(
                position[c] for c in children
            )


def test_lex_order_branches_by_plane_order():
    plane = plane_for(rotation_group())
    key = plane.lex_key
    # at a colour-2 vertex the plane order is [0, 3, 1]
    assert key((2, 3)) < key((2, 1))
    assert key((2, 0)) < key((2, 3))
    # descendants of an earlier sibling stay earlier
    assert key((2, 0, 1)) < key((2, 3))


def test_plane_for_caches():
    group = rotation_group()
    assert plane_for(group) is plane_for(group)


def test_equal_groups_share_a_plane():
    # the plane order depends only on the element set of F
    first, second = rotation_group(), rotation_group()
    assert first is not second and first == second
    assert plane_for(first) is plane_for(second)


# -- complete subtrees -----------------------------------------------------------


def test_ball_leaves():
    tree = CompleteSubtree.ball(3, 2)
    assert len(tree) == 12
    same = CompleteSubtree(3, reversed(tree.leaves))
    assert same == tree and hash(same) == hash(tree)
    assert repr(tree) == "CompleteSubtree(d=3, 12 leaves)"
    assert sorted(tree.leaves) == sorted(brute_sphere(3, 2))


def test_expand_contract_inverse():
    tree = CompleteSubtree.ball(2, 1)
    bigger = tree.expand((1,))
    assert len(bigger) == len(tree) + 1
    assert (1, 0) in bigger and (1, 2) in bigger and (1,) not in bigger
    assert bigger.contract((1,)) == tree
    with pytest.raises(ValueError):
        tree.expand((0, 1))  # not a leaf
    with pytest.raises(ValueError):
        bigger.contract((0,))  # children not all leaves
    with pytest.raises(IncompleteTree, match="bare root"):
        tree.contract(())  # the root's children are all leaves of B_1


def test_leaf_containing_and_index():
    tree = CompleteSubtree.ball(2, 2)
    assert tree.leaf_containing((0, 1, 2, 0)) == (0, 1)
    assert tree.leaf_containing((2, 0)) == (2, 0)
    assert tree.leaf_containing((1,)) is None  # proper ancestor of leaves
    leaf = tree.leaves[5]
    assert leaf in tree and tree.leaves.index(leaf) == 5
    # against a scan of every prefix, on random complete trees
    rng = random.Random(37)
    for d in (1, 2, 3, 6):
        for _ in range(40):
            tree = random_complete_tree(d, rng, rng.randrange(12))
            leaves = set(tree.leaves)
            words = set(tree.leaves)
            for v in tree.leaves:
                words.update(v[:k] for k in range(len(v)))  # strict prefixes
                deeper = v
                for _ in range(rng.randrange(1, 4)):
                    deeper += (rng.choice(admissible_child_colours(deeper, d)),)
                words.add(deeper)
                words.add(v + (v[-1],))  # deeper, through a repeated letter
                words.add(v[:-1] + (d + 1,))  # colours outside the tree
                words.add(v[:-1] + (-1, 0))
                words.add(v[:-1] + ("x",))
                words.add(v + (d + 1, "x"))
            for word in words:
                want = next((word[:k] for k in range(len(word) + 1) if word[:k] in leaves), None)
                assert tree.leaf_containing(word) == want, (tree.leaves, word)
                assert tree.leaf_containing(list(word)) == want
                assert (word in tree) == (word in leaves), (tree.leaves, word)


@pytest.mark.parametrize("d", [2.0, "2", True, False, -1, None])
def test_d_must_be_a_count(d):
    with pytest.raises(IncompleteTree, match=re.escape("d must be an int >= 0, not %r" % (d,))):
        CompleteSubtree(d, [(0,), (1,)])  # B_1 at d = 1, and True == 1 is still refused


def test_incomplete_leafsets_rejected():
    with pytest.raises(IncompleteTree):
        CompleteSubtree(2, [(0,), (1,)])
    with pytest.raises(IncompleteTree):
        CompleteSubtree(2, [(0,), (1,), (2,), (1, 0)])
    assert CompleteSubtree(2, [(2,), (0,), (1,)]).leaves == ((0,), (1,), (2,))


@pytest.mark.parametrize(
    "leaves, message",
    [
        pytest.param([], "empty leaf set", id="empty"),
        pytest.param([()], "the bare root is not a complete subtree", id="bare-root"),
        pytest.param(
            [(0, 0), (1,), (2,)], "invalid address (0, 0) for d=2", id="invalid-address"
        ),
        pytest.param(
            [(0, 0, 1), (0, 2), (1,), (2,)],
            "invalid address (0, 0, 1) for d=2",
            id="repeat-inside-a-prefix",
        ),
        # the right number of leaves, and no leaf below another
        pytest.param(
            [(0,), (1,), (3, 0), (3, 1)],
            "invalid address (3, 0) for d=2",
            id="out-of-range-before-the-last-letter",
        ),
        pytest.param([(0,), (0,), (1,), (2,)], "repeated leaf", id="repeated"),
        pytest.param(
            [(0,), (1,), (2,), (1, 0)],
            "leaf (1,) has descendants in the leaf set",
            id="leaf-with-descendants",
        ),
        pytest.param(
            [(0,), (1,), (2,), ()],
            "leaf () has descendants in the leaf set",
            id="root-as-leaf",
        ),
        pytest.param(
            [(0,), (1,)],
            "vertex () is internal but covers no leaf through colours [2]",
            id="missing-colour",
        ),
        # two defects each: the first internal vertex in preorder is reported
        pytest.param(
            [(0,), (1,), (1, 0), (2, 0)],
            "leaf (1,) has descendants in the leaf set",
            id="leaf-before-missing",
        ),
        pytest.param(
            [(0, 1), (1,), (1, 2), (2,)],
            "vertex (0,) is internal but covers no leaf through colours [2]",
            id="missing-before-leaf",
        ),
        pytest.param(
            [(0,), (1,), (1, 0)],
            "vertex () is internal but covers no leaf through colours [2]",
            id="ancestor-first",
        ),
    ],
)
def test_incomplete_leafset_messages(leaves, message):
    # every boundary where a leaf set enters keeps the constructor's check
    data = {"d": 2, "domain": leaves, "range": leaves, "kappa": list(range(len(leaves)))}
    for build in (
        lambda: CompleteSubtree(2, leaves),
        lambda: make_element(leaves, leaves, data["kappa"], closure_enumerate([], 3)),
        lambda: element_from_dict(data),
    ):
        with pytest.raises(IncompleteTree) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "d, leaves, colours",
    [
        (6, [(0,), (1,)], "[2, 3, 4, 5, 6]"),
        (7, [(0,), (1,)], "[2, 3, 4, <1 more>, 6, 7]"),
        (40, [(0,), (1,)], "[2, 3, 4, <34 more>, 39, 40]"),
    ],
)
def test_long_missing_colour_lists_are_capped(d, leaves, colours):
    # more than five missing colours: the first three, the count left out
    # and the last two
    with pytest.raises(IncompleteTree) as info:
        CompleteSubtree(d, leaves)
    assert str(info.value) == (
        "vertex () is internal but covers no leaf through colours " + colours
    )


def defective_leafset(d, rng, leaves):
    """One or two defects applied to a list of complete leaves: a deletion,
    a duplicate, an extra descendant, an extra parent, a repeated letter or
    the letter d + 1."""
    leaves = list(leaves)
    for _ in range(rng.choice((1, 1, 2))):
        nonroot = [k for k, leaf in enumerate(leaves) if leaf]
        if not nonroot:
            break
        k = rng.choice(nonroot)
        leaf = leaves[k]
        kind = rng.randrange(6)
        if kind == 0:
            del leaves[k]
        elif kind == 1:
            leaves.append(leaf)
        elif kind == 2:
            leaves.append(leaf + (rng.choice(admissible_child_colours(leaf, d)),))
        elif kind == 3:
            leaves.append(leaf[:-1])
        elif kind == 4:
            i = rng.randrange(len(leaf))
            leaves[k] = leaf[: i + 1] + leaf[i:]
        else:
            i = rng.randrange(len(leaf))
            leaves[k] = leaf[:i] + (d + 1,) + leaf[i + 1 :]
    return leaves


def test_leafset_check_matches_the_seed_check():
    rng = random.Random(20)
    outcomes = set()
    for n in range(3200):
        d = 2 + n % 4
        leaves = random_complete_tree(d, rng, rng.randrange(12)).leaves
        if n % 8:
            leaves = defective_leafset(d, rng, leaves)
        try:
            seed_check_complete(sorted(leaves), d)
            want = None
        except IncompleteTree as exc:
            want = str(exc)
        try:
            CompleteSubtree(d, leaves)
            got = None
        except IncompleteTree as exc:
            got = str(exc)
        assert got == want, (d, leaves)
        # the walk alone decides, so a sound set never reaches the climb
        assert _walks_complete(sorted(leaves), d, range(d + 1)) == (want is None)
        outcomes.add(want and want.split()[0])
    # valid sets and every kind of message were met
    assert outcomes == {None, "invalid", "repeated", "leaf", "vertex"}


def test_leafset_check_matches_the_seed_check_below_d_2():
    # at d = 0 a vertex has no child, at d = 1 one child; arbitrary short
    # words over one colour too many
    rng = random.Random(21)
    for d in (0, 1):
        words = [w for k in range(4) for w in itertools.product(range(d + 2), repeat=k)]
        for _ in range(500):
            leaves = sorted(rng.sample(words, rng.randrange(5)))
            try:
                seed_check_complete(leaves, d)
                want = None
            except IncompleteTree as exc:
                want = str(exc)
            # the walk leaves d = 0 to the climb
            assert _walks_complete(leaves, d, range(d + 1)) == (d == 1 and want is None)
            try:
                CompleteSubtree(d, leaves)
                got = None
            except IncompleteTree as exc:
                got = str(exc)
            assert got == want, (d, leaves)


def test_a_long_refused_leaf_is_diagnosed_in_linear_time():
    # the diagnosis keeps one open entry per depth, not every strict prefix
    # as a tuple, so a 40 000-letter leaf costs no more than its letters
    long_leaf = [(0,), (1,), (2,) + (0, 1) * 20000]
    start = time.perf_counter()
    with pytest.raises(IncompleteTree) as info:
        CompleteSubtree(2, long_leaf)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "vertex (2,) is internal but covers no leaf through colours [1]"


# -- randomized complete-subtree invariants --------------------------------------


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=20), st.integers())
@settings(max_examples=60, deadline=None)
def test_random_complete_tree_invariants(d, expansions, seed):
    tree = random_complete_tree(d, random.Random(seed), expansions)
    leaves = tree.leaves
    assert CompleteSubtree(d, leaves).leaves == leaves
    assert len(leaves) == (d + 1) + expansions * (d - 1)
    # leaves form an antichain covering the boundary with total mass 1
    for i, u in enumerate(leaves):
        for v in leaves[i + 1:]:
            assert not is_prefix(u, v) and not is_prefix(v, u)
    mass = sum(Fraction(1, (d + 1) * d ** (len(u) - 1)) for u in leaves)
    assert mass == 1


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=12), st.integers())
@settings(max_examples=40, deadline=None)
def test_expand_then_contract_round_trip(d, expansions, seed):
    rng = random.Random(seed)
    tree = random_complete_tree(d, rng, expansions)
    leaf = tree.leaves[rng.randrange(len(tree))]
    assert tree.expand(leaf).contract(leaf) == tree
