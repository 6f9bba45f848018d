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
    check_path,
    compose,
    compose_bisections,
    compositions,
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
    sphere,
    validate_bisection,
)
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


# -- the orbit graph -----------------------------------------------------------------


def reaches_all(heads, vertices):
    """Whether a BFS from the first vertex along ``heads`` reaches them all."""
    seen, frontier = {vertices[0]}, [vertices[0]]
    while frontier:
        for dst in heads.get(frontier.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return len(seen) == len(vertices)


def test_orbit_graphs_are_irreducible_and_not_permutations():
    # build_sft_graph checks only its input; every orbit graph it builds
    # has out-degree d at each orbit vertex, is strongly connected and is
    # no permutation matrix
    for colours in range(3, 10):
        for sizes in compositions(colours):
            graph = build_sft_graph(sizes)
            vertices, edges = graph.vertices, graph.edges()
            assert {v for e in edges for v in e[:2]} == set(vertices), sizes
            out_degree = Counter(src for src, _, _ in edges)
            in_degree = Counter(dst for _, dst, _ in edges)
            for i in range(len(sizes)):
                assert out_degree["D", i] == graph.d, sizes
            forward, backward = {}, {}
            for src, dst, _ in edges:
                forward.setdefault(src, []).append(dst)
                backward.setdefault(dst, []).append(src)
            assert reaches_all(forward, vertices) and reaches_all(backward, vertices), sizes
            assert not all(out_degree[v] == 1 == in_degree[v] for v in vertices), sizes


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


def walk_length(path, graph):
    """The number of edges of ``graph.edges()`` on the walk that spells the
    path: a representative starts at its orbit vertex, any other first
    colour at the relay its loop edge enters; each later colour follows the
    edge it labels, and a walk leaves a relay at once by its unlabelled
    edge."""
    step = {(src, letter): dst for src, dst, letter in graph.edges()}
    relay_of = {letter: dst for (_, letter), dst in step.items() if dst[0] == "delta"}
    if path[0] in relay_of:
        vertex, count = step[relay_of[path[0]], None], 1
    else:
        vertex, count = ("D", graph.orbit_of[path[0]]), 0
    for c in path[1:]:
        vertex = step[vertex, c]
        count += 1
        if vertex[0] == "delta":
            vertex = step[vertex, None]
            count += 1
    return count


def test_edge_length_counts_the_edges_of_the_walk():
    for omega in omegas():
        graph = omega.graph
        level = root_paths(graph)
        for _ in range(3):
            for path in level:
                assert edge_length(path, graph) == walk_length(path, graph), path
            level = [child for p in level for child in path_children(p, graph)]


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
        assert all(source == target for source, target in bis.pairs)
        element = bisection_to_element(bis, omega)
        assert element.is_identity()
        assert element_to_bisection(identity_element(omega.group), omega) == bis


def test_bisection_round_trip_random_elements():
    rng = random.Random(52)
    for omega in omegas():
        for _ in range(15):
            e = random_element(omega.group, rng, 5)
            bis = element_to_bisection(e, omega)
            label = omega.plane.label_word
            assert bis.pairs == tuple(sorted((label(v), label(w)) for v, w in e._map.items()))
            problems = validate_bisection(bis, omega.graph)
            assert not problems, problems
            assert bisection_to_element(bis, omega) == e


def test_package_bisections_are_what_the_constructor_builds():
    # the package builds its bisections without the label scan; the public
    # constructor, which scans every label and refuses any that is not an
    # int, must build the same pairs from them
    rng = random.Random(58)
    for omega in omegas():
        built = [identity_bisection(omega.graph)]
        for _ in range(10):
            a = random_element(omega.group, rng, 5)
            b = random_element(omega.group, rng, 5)
            left, right = element_to_bisection(a, omega), element_to_bisection(b, omega)
            built += [left, right, compose_bisections(left, right, omega.graph)]
        for bisection in built:
            assert bisection == Bisection(bisection.pairs)


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


def test_composed_lags_add():
    # the lag of a pair in Matui's groupoid {(x, k - l, y)} is the edge
    # length of its source less that of its target; a composed pair starts
    # in one pair of `second`, ends in one of `first`, and its lag is the
    # sum of theirs, because the labels it keeps cost the same edges after
    # either prefix
    rng = random.Random(59)
    for omega in omegas():
        graph = omega.graph

        def lag(pair):
            return edge_length(pair[0], graph) - edge_length(pair[1], graph)

        for _ in range(10):
            first = random_bisection(omega, rng, 4)
            second = random_bisection(omega, rng, 4)
            for s, t in compose_bisections(first, second, graph).pairs:
                (start,) = [p for p in second.pairs if s[: len(p[0])] == p[0]]
                (end,) = [p for p in first.pairs if t[: len(p[1])] == p[1]]
                assert lag((s, t)) == lag(start) + lag(end)


def test_bisection_offsets_and_masses():
    rng = random.Random(55)
    for omega in omegas():
        bis = random_bisection(omega, rng, 5)
        graph = omega.graph
        for source, target in bis.pairs:
            assert graph.orbit_of[source[-1]] == graph.orbit_of[target[-1]]
        for paths in (bis.sources(), bis.targets()):
            mass = sum((cylinder_mass(p, graph) for p in paths), Fraction(0))
            assert mass == 1


def test_validate_bisection_diagnostics():
    graph = build_sft_graph((2, 2))
    good = identity_bisection(graph)

    # mismatched terminal orbits: colour 0 ends at orbit 0, colour 2 at orbit 1
    pairs = list(good.pairs)
    zero = next(p for p in pairs if p[0] == (0,))
    two = next(p for p in pairs if p[0] == (2,))
    swapped = [
        p for p in pairs if p not in (zero, two)
    ] + [(zero[0], two[1]), (two[0], zero[1])]
    bad = Bisection(tuple(swapped))
    problems = validate_bisection(bad, graph)
    assert problems
    assert any("orbit" in p for p in problems)

    # overlapping sources / missing mass
    problems = validate_bisection(Bisection(good.pairs[:-1]), graph)
    assert problems
    assert any("mass" in p for p in problems)

    # invalid labels
    problems = validate_bisection(Bisection((((7,), (7,)),)), graph)
    assert problems

    with pytest.raises(InvalidBisection):
        bisection_to_element(bad, Omega(graph))


# named as in earlier versions, where a pair was a (path, offset, path)
# triple, so that its results compare across them
@pytest.mark.parametrize(
    "bad",
    [(None, (1,)), ((1,), None), ((1,), 0), ((1,), 0, (1,), 0), ((1,), 0, (1,)), 5, None],
    ids=["source-none", "target-none", "two-entries", "four-entries", "triple", "int", "none"],
)
def test_bisection_pairs_are_triples(bad):
    # a pair of another shape is named, not left to a bare unpacking error
    good = identity_bisection(build_sft_graph((2, 2)))
    with pytest.raises(InvalidBisection) as info:
        Bisection(good.pairs[:1] + (bad,) + good.pairs[1:])
    assert info.value.problems == ["pair %r is not a (path, path) pair" % (bad,)]


@pytest.mark.parametrize("label", [True, 1.0, "a"], ids=["bool", "float", "str"])
def test_labels_must_be_ints(label):
    # True and 1.0 hash like the colour 1 and pass every table lookup, and
    # "a" does not compare with 1; the label is named where the bisection
    # is built, before its pairs are sorted
    group = group_from(["(1 2)"], 3)
    omega = Omega(sft_graph_for_group(group), group)
    pairs = identity_bisection(omega.graph).pairs
    assert pairs[1] == ((1,), (1,))
    bad = ((label,), (label,))
    with pytest.raises(InvalidBisection) as info:
        Bisection(pairs[:1] + (bad,) + pairs[2:])
    assert info.value.problems == ["pair %r: label %r is not an int" % (bad, label)] * 2
    with pytest.raises(PathError, match="label %r is not a colour" % (label,)):
        check_path((0, label), omega.graph)
    with pytest.raises(PathError, match="label %r is not a colour" % (label,)):
        omega.to_address((label, 0))


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
            [((0,), (2,)), ((1,), (1,)), ((2,), (0,)), ((3, 7), (3,))],
            "pair 0: source ends at orbit vertex 0 but target at 1; "
            "pair 3: label 7 is not a colour of the graph",
            id="wrong-orbit",
        ),
    ],
)
def test_bisection_to_element_messages(pairs, message):
    # the boundary where a caller's bisection enters keeps every check
    graph = build_sft_graph((2, 2))
    bisection = Bisection(tuple(pairs))
    with pytest.raises(InvalidBisection) as info:
        bisection_to_element(bisection, Omega(graph))
    assert str(info.value) == message


def test_validate_bisection_reports_overlaps_in_pair_order():
    graph = build_sft_graph((2, 2))

    nested = [(1,), (1, 2), (1, 2, 3)]
    problems = validate_bisection(Bisection(tuple((p, p) for p in nested)), graph)
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
    problems = validate_bisection(Bisection(tuple(swapped)), graph)
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
    sources = [s for s, _ in bis.pairs]
    assert sources == sorted(sources)


# -- validate_bisection against the seed validation ---------------------------------


def one_defect_away(pairs, graph, rng):
    """Pair lists one defect away from the valid ``pairs``: targets swapped
    across orbits, or one pair's target replaced by a target of another
    orbit, a pair dropped, duplicated or put in another's place, a path
    replaced by its parent or a child, an unknown label and an empty
    path.  A path replaced by a child in its own orbit passes the per-pair
    checks, so that only a side's partition is wrong."""
    orbit_of, n = graph.orbit_of, len(pairs)

    def put(i, pair):
        return pairs[:i] + [pair] + pairs[i + 1 :]

    i, j = rng.randrange(n), rng.randrange(n)
    source, target = pairs[i]
    out = [pairs + [pairs[j]], pairs[:i] + pairs[i + 1 :]]
    twins = [
        k for k in range(n)
        if k != i and len(pairs[k][0]) == len(source) and len(pairs[k][1]) == len(target)
    ]
    if twins:  # same lengths, so both masses stay 1 and only the overlap shows
        out.append(put(i, pairs[rng.choice(twins)]))
    others = [k for k in range(n) if orbit_of[pairs[k][1][-1]] != orbit_of[target[-1]]]
    if others:
        k = rng.choice(others)
        moved = put(i, (source, pairs[k][1]))
        swapped = moved[:k] + [(pairs[k][0], target)] + moved[k + 1 :]
        out.extend((moved, swapped))
    for side in (0, 1):
        path = pairs[i][side]
        children = path_children(path, graph)
        same_orbit = [c for c in children if orbit_of[c[-1]] == orbit_of[path[-1]]]
        position = rng.randrange(len(path))
        unknown = path[:position] + (graph.d + 1,) + path[position + 1 :]
        for changed in [path[:-1], rng.choice(children), unknown, ()] + same_orbit[:1]:
            out.append(put(i, (changed, target) if side == 0 else (source, changed)))
    return out


VALIDATION_CASES = [small_trivial(2), switch_group(), four_orbit_group(), sym_group(4)]


def test_a_tree_leaf_set_is_no_path_partition():
    # the leaves of B_2 in address space, read as label words: a child
    # avoids its parent's own colour there, but a path's next label avoids
    # the representative of its orbit, so outside the trivial group some
    # words are no paths and others are missing
    for group in VALIDATION_CASES:
        graph = sft_graph_for_group(group)
        bisection = Bisection(tuple((w, w) for w in sphere(group.d, 2)))
        want = seed_validate_bisection(bisection, graph)
        assert validate_bisection(bisection, graph) == want
        assert bool(want) == (group.orbit_sizes != (1,) * (group.d + 1))


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
