"""Properties of compose on depth-changing elements over four colour groups."""

import random

import pytest

from coloured_neretin import (
    Omega,
    bisection_to_element,
    compose,
    compose_bisections,
    element_to_bisection,
    identity_element,
    random_element,
    sft_graph_for_group,
    validate_bisection,
)
from coloured_neretin.almost_automorphisms import _composite_pairs, _from_pairs

from conftest import (
    assert_complete,
    four_orbit_group,
    random_word,
    rotation_group,
    small_trivial,
    switch_group,
    sym_group,
    tree_depth,
)
from compose_oracle import seed_composite_pairs

GROUPS = {
    "trivial_d2": small_trivial(2),
    "rotation": rotation_group(),
    "four_orbit": four_orbit_group(),
    "sym4": sym_group(4),
}
ROUNDS = 6


def changes_depth(e):
    return tree_depth(e.domain) != tree_depth(e.range)


def depth(e):
    return max(tree_depth(e.domain), tree_depth(e.range))


def factors(name, count):
    """``count`` random elements per round, of 2 to 12 expansions each."""
    group = GROUPS[name]
    rng = random.Random("compose-properties:%s" % name)
    for _ in range(ROUNDS):
        elements = [random_element(group, rng, rng.randrange(2, 13)) for _ in range(count)]
        assert_complete(*elements)
        yield rng, elements


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_compose_acts_as_a_after_b(name):
    for rng, (a, b) in factors(name, 2):
        c = compose(a, b)
        assert_complete(c)
        length = depth(a) + depth(b) + depth(c) + 1
        for _ in range(10):
            word = random_word(rng, a.group.d, length)
            assert c.apply_to_prefix(word) == a.apply_to_prefix(b.apply_to_prefix(word))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_compose_is_associative_and_reduced(name):
    for _, (a, b, c) in factors(name, 3):
        ab = compose(a, b)
        assert ab.reduce() is ab
        assert compose(ab, c) == compose(a, compose(b, c))
        expanded = ab.expand_at(ab.domain.leaves[-1])
        reduced = expanded.reduce()
        assert_complete(ab, expanded, reduced)
        assert reduced == ab


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_compose_with_inverse_is_identity(name):
    identity = identity_element(GROUPS[name])
    for _, (a,) in factors(name, 1):
        assert_complete(a.inverse())
        assert compose(a, a.inverse()).is_identity()
        assert compose(a, a.inverse()) == identity == compose(a.inverse(), a)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_bridge_route_equals_tree_pair_route(name):
    group = GROUPS[name]
    omega = Omega(sft_graph_for_group(group), group)
    for _, (a, b) in factors(name, 2):
        bridged = compose_bisections(
            element_to_bisection(a, omega), element_to_bisection(b, omega), omega.graph
        )
        assert validate_bisection(bridged, omega.graph) == []
        assert bisection_to_element(bridged, omega) == compose(a, b)


def test_generator_changes_depth_over_the_trivial_group():
    group = GROUPS["trivial_d2"]
    identity = identity_element(group)
    elements = [e for _, (e,) in factors("trivial_d2", 1)]
    assert all(e != identity for e in elements)
    assert any(tree_depth(e.domain) != tree_depth(e.range) for e in elements)


ORACLE_GROUPS = {
    "trivial_d2": small_trivial(2),
    "switch": switch_group(),
    "four_orbit": four_orbit_group(),
    "sym4": sym_group(4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_compose_merge_matches_the_prefix_probe_oracle(name):
    group = ORACLE_GROUPS[name]
    identity = identity_element(group)
    rng = random.Random("compose-oracle:%s" % name)
    pairs = []
    for _ in range(50):
        a, b = (random_element(group, rng, rng.randrange(2, 13)) for _ in range(2))
        # b.range == a.domain, an identity on either side, and an
        # unreduced factor from an expansion
        expanded = a.expand_at(rng.choice(a.domain.leaves))
        pairs += [(a, b), (a, a.inverse()), (a.inverse(), a), (a, identity), (identity, b)]
        pairs += [(expanded, b), (b, expanded)]
        # the inverse of a reduced element needs no contraction; that of
        # an unreduced one still does
        unmarked = _from_pairs(group, {w: v for v, w in a._map.items()})
        assert len(unmarked.reduce().domain) == len(a.domain)
        assert expanded.inverse().domain == a.range
    assert sum(a.domain == b.range for a, b in pairs) >= 100
    assert sum(any(map(changes_depth, pair)) for pair in pairs) >= 200
    for a, b in pairs:
        oracle = seed_composite_pairs(a, b)
        assert _composite_pairs(a, b) == oracle
        expected = _from_pairs(group, oracle).reduce()
        c = compose(a, b)
        assert (c.domain, c.range, c._map) == (expected.domain, expected.range, expected._map)
        assert c._reduced and c.reduce() is c
