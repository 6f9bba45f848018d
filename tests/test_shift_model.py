import random
from collections import Counter
from fractions import Fraction

import pytest

from coloured_neretin import (
    Bisection,
    InvalidBisection,
    Omega,
    PathError,
    bisection_to_element,
    build_sft_graph,
    compose,
    compose_bisections,
    cylinder_mass,
    edge_length,
    element_to_bisection,
    identity_bisection,
    identity_element,
    path_children,
    random_bisection,
    random_element,
    root_paths,
    sft_graph_for_group,
    validate_bisection,
)
from coloured_neretin.shift_model import _make_pair
from bisection_oracle import seed_validate_bisection
from conftest import (
    four_orbit_group,
    group_from,
    rotation_group,
    small_trivial,
    switch_group,
    sym_group,
)


BRIDGE_CASES = [
    ((1, 3, 2), None),
    ((2, 2), None),
    ((4,), None),
    ((1, 3), rotation_group()),
    ((1, 2, 1), group_from(["(1 2)"], 4)),
]


def omegas():
    for sizes, group in BRIDGE_CASES:
        graph = build_sft_graph(sizes)
        if group is None:
            yield Omega(graph)
        else:
            yield Omega(graph, group)


# -- paths ---------------------------------------------------------------------


def test_root_paths_shape():
    graph = build_sft_graph((1, 3, 2))
    paths = root_paths(graph)
    assert len(paths) == graph.d + 1
    assert all(len(p) == 1 for p in paths)
    per_orbit = Counter(graph.orbit_of[p[-1]] for p in paths)
    assert per_orbit == {0: 1, 1: 3, 2: 2}


def test_path_children_count_and_validity():
    graph = build_sft_graph((1, 3, 2))
    frontier = root_paths(graph)
    for _ in range(3):
        new = []
        for p in frontier:
            children = path_children(p, graph)
            assert len(children) == graph.d
            for child in children:
                assert child[: len(p)] == p
                assert len(child) == len(p) + 1
            new.extend(children)
        frontier = new


def test_check_path_rejections():
    from coloured_neretin import check_path

    graph = build_sft_graph((1, 3, 2))  # orbit representatives 0, 1, 4
    with pytest.raises(PathError):
        check_path((9,), graph)  # not a colour
    with pytest.raises(PathError):
        check_path((2, 1), graph)  # 1 is the representative of its orbit
    check_path((2, 3), graph)  # same orbit via its relay, fine
    check_path((2, 0), graph)


def test_edge_length_convention():
    graph = build_sft_graph((1, 3, 2))
    # representatives (0, 1, 4) enter at length 0, other colours at length 1;
    # staying in the orbit costs 2 (through the relay), switching costs 1
    assert edge_length((0,), graph) == 0
    assert edge_length((2,), graph) == 1
    assert edge_length((1, 2), graph) == 2 + 0
    assert edge_length((2, 3), graph) == 1 + 2
    assert edge_length((2, 0), graph) == 1 + 1
    assert edge_length((0, 1, 4, 5), graph) == 0 + 1 + 1 + 2


def test_cylinder_mass_halving():
    graph = build_sft_graph((2, 2))
    d = graph.d
    assert cylinder_mass((0,), graph) == Fraction(1, d + 1)
    assert cylinder_mass((0, 1), graph) == Fraction(1, (d + 1) * d)
    total = sum(
        (cylinder_mass(p, graph) for p in root_paths(graph)), Fraction(0)
    )
    assert total == 1


# -- the order isomorphism --------------------------------------------------------


def test_omega_is_an_order_isomorphism_to_depth_four():
    for omega in omegas():
        assert omega.check_depth(4)


def test_omega_to_labels_round_trip():
    rng = random.Random(51)
    for omega in omegas():
        frontier = root_paths(omega.graph)
        for _ in range(3):
            frontier = [
                child
                for p in frontier
                for child in path_children(p, omega.graph)
            ]
        for p in rng.sample(frontier, min(20, len(frontier))):
            address = omega.to_address(p)
            assert omega.to_labels(address) == p


def test_omega_to_labels_rejects_an_invalid_address():
    omega = Omega(build_sft_graph((1, 3)))
    for address in ((2, -1, 3), (2, -1), (4,), (1, 1), (0, 2, 5)):
        with pytest.raises(ValueError, match="invalid vertex address"):
            omega.to_labels(address)


def test_omega_default_group_over_singleton_orbits():
    omega = Omega(build_sft_graph((1, 1, 1)))
    assert len(omega.group) == 1
    assert omega.check_depth(3)


def test_omega_rejects_mismatched_group():
    graph = build_sft_graph((1, 3))
    with pytest.raises(ValueError):
        Omega(graph, group_from(["(1 2)"], 4))  # orbits (1, 2, 1), not (1, 3)


# -- bisections -------------------------------------------------------------------


def test_identity_bisection_round_trip():
    for omega in omegas():
        bis = identity_bisection(omega.graph)
        problems = validate_bisection(bis, omega.graph)
        assert not problems, problems
        assert all(offset == 0 for _, offset, _ in bis.pairs)
        element = bisection_to_element(bis, omega)
        assert element.is_identity()
        assert element_to_bisection(identity_element(omega.group), omega) == bis


def test_bisection_round_trip_random_elements():
    rng = random.Random(52)
    for omega in omegas():
        for _ in range(15):
            e = random_element(omega.group, rng, 5)
            bis = element_to_bisection(e, omega)
            problems = validate_bisection(bis, omega.graph)
            assert not problems, problems
            assert bisection_to_element(bis, omega) == e


def test_bisection_canonicalization_is_idempotent():
    rng = random.Random(53)
    for omega in omegas():
        bis = random_bisection(omega, rng, 6)
        element = bisection_to_element(bis, omega)
        again = element_to_bisection(element, omega)
        assert again == bis
        assert bisection_to_element(again, omega) == element


def test_compose_bisections_matches_element_composition():
    rng = random.Random(54)
    for omega in omegas():
        for _ in range(10):
            a = random_element(omega.group, rng, 4)
            b = random_element(omega.group, rng, 4)
            left = element_to_bisection(a, omega)
            right = element_to_bisection(b, omega)
            composed = compose_bisections(left, right, omega.graph)
            assert validate_bisection(composed, omega.graph) == []
            assert bisection_to_element(composed, omega) == compose(a, b)


def test_bisection_offsets_and_masses():
    rng = random.Random(55)
    for omega in omegas():
        bis = random_bisection(omega, rng, 5)
        graph = omega.graph
        for source, offset, target in bis.pairs:
            assert offset == edge_length(source, graph) - edge_length(target, graph)
            assert graph.orbit_of[source[-1]] == graph.orbit_of[target[-1]]
        for paths in (bis.sources(), bis.targets()):
            mass = sum((cylinder_mass(p, graph) for p in paths), Fraction(0))
            assert mass == 1


def test_validate_bisection_diagnostics():
    graph = build_sft_graph((2, 2))
    good = identity_bisection(graph)

    # wrong offset
    s, _, t = good.pairs[0]
    bad = Bisection(((s, 3, t),) + good.pairs[1:])
    problems = validate_bisection(bad, graph)
    assert problems
    assert any("offset" in p for p in problems)

    # mismatched terminal orbits: colour 0 ends at orbit 0, colour 2 at orbit 1
    pairs = list(good.pairs)
    zero = next(p for p in pairs if p[0] == (0,))
    two = next(p for p in pairs if p[0] == (2,))
    swapped = [
        p for p in pairs if p not in (zero, two)
    ] + [(zero[0], 0, two[2]), (two[0], 0, zero[2])]
    problems = validate_bisection(Bisection(tuple(swapped)), graph)
    assert problems
    assert any("orbit" in p for p in problems)

    # overlapping sources / missing mass
    problems = validate_bisection(Bisection(good.pairs[:-1]), graph)
    assert problems
    assert any("mass" in p for p in problems)

    # invalid labels
    problems = validate_bisection(Bisection((((7,), 0, (7,)),)), graph)
    assert problems

    with pytest.raises(InvalidBisection):
        bisection_to_element(bad, Omega(graph))


ROOTS = [((c,), (c,)) for c in range(4)]


@pytest.mark.parametrize(
    "pairs, message",
    [
        pytest.param(
            ROOTS + [((0, 1), (0, 1))],
            "source paths (0,) and (0, 1) overlap (one is a prefix of the other); "
            "source cylinders cover mass 13/12 instead of 1; "
            "target paths (0,) and (0, 1) overlap (one is a prefix of the other); "
            "target cylinders cover mass 13/12 instead of 1",
            id="overlap",
        ),
        pytest.param(
            ROOTS + [((3,), (3,))],
            "source paths (3,) and (3,) overlap (one is a prefix of the other); "
            "source cylinders cover mass 5/4 instead of 1; "
            "target paths (3,) and (3,) overlap (one is a prefix of the other); "
            "target cylinders cover mass 5/4 instead of 1",
            id="repeated",
        ),
        pytest.param(
            ROOTS[:3],
            "source cylinders cover mass 3/4 instead of 1; "
            "target cylinders cover mass 3/4 instead of 1",
            id="mass",
        ),
        pytest.param(
            [((0,), (0,)), ((1, 0), (1, 0))],
            "pair 1: label 0 after a label in the orbit of 1 must avoid the "
            "representative 0; pair 1: label 0 after a label in the orbit of 1 "
            "must avoid the representative 0",
            id="bad-label",
        ),
        pytest.param(
            ROOTS[:3] + [((3, 7, 2), (3,))],
            "pair 3: label 7 is not a colour of the graph",
            id="unknown-label-inside",
        ),
        # once a pair has a problem, later pairs are checked for labels only
        pytest.param(
            [((0,), (1,)), ((1,), (0,)), ((2,), (2,)), ((3, 7), (3,))],
            "pair 0: offset 0 does not match edge length difference -1; "
            "pair 3: label 7 is not a colour of the graph",
            id="wrong-offset",
        ),
    ],
)
def test_bisection_to_element_messages(pairs, message):
    # the boundary where a caller's bisection enters keeps every check
    graph = build_sft_graph((2, 2))
    bisection = Bisection(tuple((s, 0, t) for s, t in pairs))
    with pytest.raises(InvalidBisection) as info:
        bisection_to_element(bisection, Omega(graph))
    assert str(info.value) == message


def test_validate_bisection_reports_overlaps_in_pair_order():
    graph = build_sft_graph((2, 2))

    def bisection(pairs):
        return Bisection(tuple(_make_pair(s, t, graph) for s, t in pairs))

    nested = [(1,), (1, 2), (1, 2, 3)]
    problems = validate_bisection(bisection([(p, p) for p in nested]), graph)
    assert problems == [
        "%s %s" % (side, text)
        for side in ("source", "target")
        for text in (
            "paths (1,) and (1, 2) overlap (one is a prefix of the other)",
            "paths (1,) and (1, 2, 3) overlap (one is a prefix of the other)",
            "paths (1, 2) and (1, 2, 3) overlap (one is a prefix of the other)",
            "cylinders cover mass 13/36 instead of 1",
        )
    ]
    # targets out of label order: messages still follow the pair order
    swapped = [((1,), (1,)), ((1, 2), (1, 3)), ((1, 3), (1, 2))]
    problems = validate_bisection(bisection(swapped), graph)
    assert problems == [
        "source paths (1,) and (1, 2) overlap (one is a prefix of the other)",
        "source paths (1,) and (1, 3) overlap (one is a prefix of the other)",
        "source cylinders cover mass 5/12 instead of 1",
        "target paths (1,) and (1, 3) overlap (one is a prefix of the other)",
        "target paths (1,) and (1, 2) overlap (one is a prefix of the other)",
        "target cylinders cover mass 5/12 instead of 1",
    ]


def test_bisection_pairs_sorted_by_source():
    rng = random.Random(57)
    omega = next(iter(omegas()))
    bis = random_bisection(omega, rng, 6)
    sources = [s for s, _, _ in bis.pairs]
    assert sources == sorted(sources)


# -- validate_bisection against the seed validation ---------------------------------


def one_defect_away(pairs, graph, rng):
    """Pair lists one defect away from the valid ``pairs``: an offset off by
    one, targets swapped across orbits, a pair dropped, duplicated or put
    in another's place, a path replaced by its parent or a child, an unknown
    label and an empty path.  A changed path comes once with the old offset
    and once, where both paths are paths, with the offset recomputed, so
    that the per-pair checks pass and only a side's partition is wrong."""
    orbit_of, n = graph.orbit_of, len(pairs)

    def put(i, pair):
        return pairs[:i] + [pair] + pairs[i + 1 :]

    def with_path(i, side, path):
        source, offset, target = pairs[i]
        source, target = (path, target) if side == 0 else (source, path)
        variants = [put(i, (source, offset, target))]
        try:
            variants.append(put(i, _make_pair(source, target, graph)))
        except (KeyError, IndexError):
            pass
        return variants

    i, j = rng.randrange(n), rng.randrange(n)
    source, offset, target = pairs[i]
    out = [
        put(i, (source, offset + rng.choice((-1, 1)), target)),
        pairs + [pairs[j]],
        pairs[:i] + pairs[i + 1 :],
    ]
    twins = [
        k for k in range(n)
        if k != i and len(pairs[k][0]) == len(source) and len(pairs[k][2]) == len(target)
    ]
    if twins:  # same lengths, so both masses stay 1 and only the overlap shows
        out.append(put(i, pairs[rng.choice(twins)]))
    others = [k for k in range(n) if orbit_of[pairs[k][2][-1]] != orbit_of[target[-1]]]
    if others:
        k = rng.choice(others)
        swapped = put(i, (source, offset, pairs[k][2]))
        swapped[k] = (pairs[k][0], pairs[k][1], target)
        out.append(swapped)
        out.append(put(i, _make_pair(source, pairs[k][2], graph)))
    for side in (0, 2):
        path = pairs[i][side]
        children = path_children(path, graph)
        same_orbit = [c for c in children if orbit_of[c[-1]] == orbit_of[path[-1]]]
        position = rng.randrange(len(path))
        unknown = path[:position] + (graph.d + 1,) + path[position + 1 :]
        for changed in [path[:-1], rng.choice(children), unknown, ()] + same_orbit[:1]:
            out.extend(with_path(i, side, changed))
    return out


VALIDATION_CASES = [small_trivial(2), switch_group(), four_orbit_group(), sym_group(4)]


def test_validate_bisection_matches_the_seed_validation():
    rng = random.Random(58)
    valid = target_only = overlap_at_mass_one = 0
    for group in VALIDATION_CASES:
        omega = Omega(sft_graph_for_group(group), group)
        graph = omega.graph
        for _ in range(6):
            first = random_bisection(omega, rng, rng.randrange(1, 7))
            second = random_bisection(omega, rng, rng.randrange(1, 7))
            for base in (first, compose_bisections(first, second, graph)):
                for _ in range(3):
                    for pairs in [list(base.pairs)] + one_defect_away(list(base.pairs), graph, rng):
                        bisection = Bisection(tuple(pairs))
                        want = seed_validate_bisection(bisection, graph)
                        assert validate_bisection(bisection, graph) == want, pairs
                        valid += not want
                        target_only += bool(want) and all(p.startswith("target ") for p in want)
                        overlap_at_mass_one += any("overlap" in p for p in want) and not any(
                            "mass" in p for p in want
                        )
    # the sample holds valid bisections and the defects that only the
    # target side's sort, or only the adjacent-prefix test, can see
    assert valid > 0 and target_only > 0 and overlap_at_mass_one > 0
