"""``reduce`` against the worklist reduction it replaced, on reducible
elements over five colour groups."""

import random

import pytest

from coloured_neretin import compose, random_element
from coloured_neretin.almost_automorphisms import _composite_pairs, _from_pairs

from conftest import (
    assert_complete,
    four_orbit_group,
    rotation_group,
    small_trivial,
    switch_group,
    sym_group,
)
from reduce_oracle import seed_reduce_pairs

GROUPS = {
    "trivial_d2": small_trivial(2),
    "switch": switch_group(),
    "rotation": rotation_group(),
    "four_orbit": four_orbit_group(),
    "sym4": sym_group(4),
}
ELEMENTS = 200


def expanded(group, rng):
    """A random element followed by a chain of simple expansions; about
    half of them expand a child of the previous expansion, so that the
    reduction cascades."""
    e = random_element(group, rng, rng.randrange(1, 7))
    leaf = None
    for _ in range(rng.randrange(1, 9)):
        if leaf is not None and rng.random() < 0.5:
            leaf = rng.choice(e.plane.children(leaf))
        else:
            leaf = rng.choice(e.domain.leaves)
        e = e.expand_at(leaf)
    return e


def composite(group, rng):
    """The unreduced composite of a and a^-1 c for random elements a and
    c: the refinement of a's domain by c's cancels down to c."""
    a, c = (random_element(group, rng, rng.randrange(1, 9)) for _ in range(2))
    return _from_pairs(group, _composite_pairs(a, compose(a.inverse(), c)))


def cascades(e, reduced_pairs):
    """Whether some vertex was contracted only after one of its children
    was: an unreduced leaf lies two or more levels below a reduced one."""
    reduced = set(reduced_pairs)
    return any(v[:k] in reduced for v in e._map for k in range(1, len(v) - 1))


@pytest.mark.parametrize("build", [expanded, composite])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_reduce_matches_the_worklist_reduction(name, build):
    group = GROUPS[name]
    rng = random.Random("reduce-properties:%s:%s" % (name, build.__name__))
    checked = cascading = 0
    for _ in range(2 * ELEMENTS):
        e = build(group, rng)
        want = seed_reduce_pairs(e)
        if len(want) == len(e._map):
            continue  # already reduced
        reduced = e.reduce()
        assert reduced._map == want
        assert reduced.domain.leaves == tuple(sorted(want))
        assert reduced.range.leaves == tuple(sorted(want.values()))
        assert reduced.reduce() is reduced
        assert_complete(reduced)
        checked += 1
        cascading += cascades(e, want)
        if checked == ELEMENTS:
            break
    assert checked == ELEMENTS
    # the draws reach the contractions a parent's count has to unlock
    assert cascading >= ELEMENTS // 10
