"""Decoded elements share their leaf addresses through the group's plane.

``element_from_dict`` looks every leaf up in ``plane_for(group).addresses``
once the letters are known to be ints; nothing else adds to that table, and
it dies with the group.
"""

import copy
import gc
import itertools
import random
import weakref

import pytest

from coloured_neretin import (
    Omega,
    OrbitViolation,
    SizeMismatch,
    bisection_to_element,
    compose,
    compose_bisections,
    element_from_dict,
    element_to_bisection,
    element_to_dict,
    make_element,
    plane_for,
    random_element,
    sft_graph_for_group,
    sphere,
)
from conftest import group_from, leaf_map, rotation_group

# orbits {0}, {1, 2, 3}: (0) and (3, 0) go to (0) and (1, 0), the rest
# within the orbit of 1
SMALL = {
    "d": 3,
    "F_generators": ["(1 2 3)"],
    "domain": [[0], [1], [2], [3, 0], [3, 1], [3, 2]],
    "range": [[0], [1, 0], [1, 2], [1, 3], [2], [3]],
    "kappa": [0, 2, 4, 1, 3, 5],
}


def fresh_group():
    """A group that no other test module builds: an equal group alive
    elsewhere would share its plane, so the table would not start empty or
    die with this one.  Orbits {0}, {1}, {2, 5}, {3, 6}, {4, 7}, {8}."""
    return group_from(["(2 5)(3 6)", "(4 7)"], 9)


def occurrences(e):
    """Every leaf reference an element holds, and those its leaf map reads."""
    pairs = leaf_map(e)
    return itertools.chain(e.domain.leaves, e.range.leaves, pairs, pairs.values())


def test_decoded_elements_hold_the_tables_addresses():
    group = fresh_group()
    rng = random.Random(38)
    a = random_element(group, rng, 12)
    files = [element_to_dict(x) for x in (a, a.inverse(), random_element(group, rng, 12))]
    decoded = [element_from_dict(data, group) for data in files]
    table = plane_for(group).addresses
    objects = {}
    for e in decoded:
        for w in occurrences(e):
            assert table[w] is w
            objects.setdefault(w, set()).add(id(w))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(table) == len(objects)
    # a and its inverse swap their trees, so every leaf of one is shared
    first, second = decoded[0], decoded[1]
    assert all(u is v for u, v in zip(first.domain.leaves, second.range.leaves))
    assert all(u is v for u, v in zip(first.range.leaves, second.domain.leaves))
    second_map = leaf_map(second)
    assert all(second_map[w] is v for v, w in leaf_map(first).items())
    assert [element_to_dict(e) for e in decoded] == files


@pytest.mark.parametrize("letter", [True, 1.0, [1]])
@pytest.mark.parametrize(
    "field, i, j", [("domain", 1, 0), ("domain", 4, 1), ("range", 1, 0), ("range", 3, 0)]
)
def test_letters_equal_to_a_shared_int_are_refused(letter, field, i, j):
    group = rotation_group()
    element_from_dict(SMALL, group)
    assert (1,) in plane_for(group).addresses
    data = copy.deepcopy(SMALL)
    assert data[field][i][j] == 1
    data[field][i][j] = letter
    with pytest.raises(ValueError) as info:
        element_from_dict(data, group)
    assert str(info.value) == "%s[%d][%d] is not an integer: %r" % (field, i, j, letter)


def test_only_decoding_adds_to_the_table():
    group = fresh_group()
    rng = random.Random(3838)
    a, b = (
        element_from_dict(element_to_dict(random_element(group, rng, 10)), group)
        for _ in range(2)
    )
    plane = plane_for(group)
    size = len(plane.addresses)
    omega = Omega(sft_graph_for_group(group), group)
    composite = compose(a, b)
    left, right = element_to_bisection(a, omega), element_to_bisection(b, omega)
    bridge = bisection_to_element(compose_bisections(left, right, omega.graph), omega)
    leaf = a.domain.leaves[0]
    derived = [
        composite,
        composite.inverse(),
        a.inverse(),
        a.expand_at(leaf),
        a.expand_at(leaf).reduce(),
        bridge,
        make_element(bridge.domain.leaves, bridge.range.leaves, bridge.kappa, group),
    ]
    assert bridge == composite
    # the derived elements hold addresses that no decoded file has
    assert any(w not in plane.addresses for e in derived for w in occurrences(e))
    assert len(plane.addresses) == size
    plane = weakref.ref(plane)
    del a, b, composite, left, right, bridge, derived, omega, group
    gc.collect()
    assert plane() is None


def test_equal_groups_share_one_table():
    group, twin = rotation_group(), rotation_group()
    assert group == twin and group is not twin
    first, second = element_from_dict(SMALL, group), element_from_dict(SMALL, twin)
    assert plane_for(twin).addresses is plane_for(group).addresses
    assert all(u is v for u, v in zip(first.domain.leaves, second.domain.leaves))


def test_a_twin_keeps_the_plane_when_the_first_group_dies():
    group, twin = fresh_group(), fresh_group()
    plane = plane_for(group)  # the cache is keyed by group, which asked first
    data = element_to_dict(random_element(group, random.Random(40), 12))
    before = element_from_dict(data, twin)
    assert plane_for(twin) is plane and plane.addresses
    first = weakref.ref(group)
    del group
    gc.collect()
    assert first() is None
    after = element_from_dict(data, twin)
    assert plane_for(twin) is plane and after.plane is plane
    assert all(u is v for u, v in zip(before.domain.leaves, after.domain.leaves))
    assert all(u is v for u, v in zip(before.range.leaves, after.range.leaves))
    # an equal group that first asks now finds the plane through the twin
    third = fresh_group()
    last = element_from_dict(data, third)
    assert plane_for(third) is plane and last.plane is plane
    assert all(u is v for u, v in zip(before.domain.leaves, last.domain.leaves))
    # the plane still dies with the last group holding it and its elements
    plane = weakref.ref(plane)
    del before, after, last, twin, third
    gc.collect()
    assert plane() is None


def test_kappa_files_need_no_leaf_set_comparison():
    # a kappa that permutes range(n) pairs the two leaf sets one to one, so
    # make_element compares no leaf sets: each outcome is the one that the
    # leaf map kappa stands for gives
    group = rotation_group()
    orbit = group.orbit_of
    seen = set()
    trees = [sphere(3, 1), SMALL["domain"], SMALL["range"], sphere(3, 2)]
    for domain, range_ in itertools.product(trees, repeat=2):
        domain = [tuple(w) for w in domain]
        range_ = [tuple(w) for w in range_]
        for kappa in itertools.islice(itertools.permutations(range(len(range_))), 40):
            pairs = dict(zip(domain, [range_[k] for k in kappa]))
            try:
                e = make_element(domain, range_, list(kappa), group)
            except SizeMismatch:
                assert len(domain) != len(range_)
                seen.add(SizeMismatch)
            except OrbitViolation:
                assert len(domain) == len(range_)
                assert any(orbit[v[-1]] != orbit[w[-1]] for v, w in pairs.items())
                seen.add(OrbitViolation)
            else:
                assert all(orbit[v[-1]] == orbit[w[-1]] for v, w in pairs.items())
                assert all(e.apply_to_prefix(v) == w for v, w in pairs.items())
                seen.add("element")
    assert seen == {"element", SizeMismatch, OrbitViolation}
