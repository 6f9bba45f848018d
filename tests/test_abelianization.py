import random

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from coloured_neretin import (
    Abelianization,
    IntMatrix,
    bareiss_determinant,
    build_sft_graph,
    dot_export,
    sft_graph_for_group,
    smith_normal_form as snf,
    vf_abelianization,
)
from coloured_neretin.covolume import ball_counts, compositions
from conftest import four_orbit_group, rotation_group, switch_group
from smith_oracle import seed_bareiss_determinant, seed_smith_normal_form


# -- oracles ------------------------------------------------------------------


def random_int_matrix(rng, n, bound=9):
    return IntMatrix(
        [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]
    )


def sympy_invariants(matrix):
    M = Matrix(matrix.entries)
    diagonal = [
        abs(smith_normal_form(M)[i, i]) for i in range(min(M.rows, M.cols))
    ]
    return [x for x in diagonal if x != 0]


def naive_product(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] += a[i][k] * b[k][j]
    return out


# -- product, determinant and SNF against sympy -------------------------------


def test_mul_matches_naive_loop_and_sympy():
    rng = random.Random(40)
    shapes = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (7, 1, 1)]
    shapes += [tuple(rng.randrange(1, 8) for _ in range(3)) for _ in range(40)]
    for rows, inner, cols in shapes:
        for bound in (9, 10 ** 30):
            a = [[rng.randrange(-bound, bound + 1) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(inner)]
            product = IntMatrix(a).mul(IntMatrix(b))
            assert (product.rows, product.cols) == (rows, cols)
            assert [list(row) for row in product.entries] == naive_product(a, b)
            assert Matrix(product.entries) == Matrix(a) * Matrix(b)


def test_mul_rejects_mismatched_dimensions():
    with pytest.raises(ValueError) as info:
        IntMatrix([[1, 2, 3]]).mul(IntMatrix([[1, 2]]))
    assert str(info.value) == "dimension mismatch: 1x3 times 1x2"


@pytest.mark.parametrize("bad", [2.5, 4.0, "7", True, False])
def test_int_matrix_rejects_non_integer_entries(bad):
    # int() used to truncate these: [[2.5, 0], [0, 4.2]] had factors (2, 4)
    for entries, where in (
        ([[bad, 0], [0, 4]], "entries[0][0]"),
        ([[1, 2, 3], [4, 5, 6], [7, 8, bad]], "entries[2][2]"),
        ([[1, 2], [bad, 3]], "entries[1][0]"),
    ):
        with pytest.raises(ValueError) as info:
            IntMatrix(entries)
        assert str(info.value) == "%s is not an integer: %r" % (where, bad)
    for entries, message in (([], "empty matrix"), ([[]], "empty matrix"),
                             ([[1], [1, 2]], "ragged rows")):
        with pytest.raises(ValueError) as info:
            IntMatrix(entries)
        assert str(info.value) == message


def test_bareiss_determinant_matches_sympy():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(1, 7)
        m = random_int_matrix(rng, n)
        assert bareiss_determinant(m) == Matrix(m.entries).det()


def test_smith_normal_form_matches_sympy():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = random_int_matrix(rng, n)
        _, invariants, _ = snf(m)
        nonzero = [x for x in invariants.invariant_factors if x != 0]
        assert nonzero == sympy_invariants(m)


def oracle_matrices(rng):
    """Random matrices of every kind the elimination meets: square and not,
    singular, entries up to 10**30, and none with a unit entry.  Shapes
    and entries stay small enough for the elimination, whose entries grow
    quickly (a dense 7x7 matrix with entries in [-9, 9] can take seconds)."""
    for k in range(320):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        if k % 4 == 0:
            rows = cols
        kind = k % 5
        if kind == 1:  # up to two entries of size up to 10**30
            rows, cols = min(rows, 3), min(cols, 3)
            entries = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
            for _ in range(rng.randrange(1, 3)):
                entries[rng.randrange(rows)][rng.randrange(cols)] = rng.randrange(
                    -(10 ** 30), 10 ** 30 + 1
                )
        elif kind == 2:  # no entry of absolute value 1
            rows, cols = min(rows, 4), min(cols, 4)
            entries = [
                [rng.choice((0, 2, -2, 3, -3, 4, 6, -9)) for _ in range(cols)]
                for _ in range(rows)
            ]
        else:
            entries = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
            if kind >= 3 and rows > 1:  # singular: one row a multiple of another
                factor = rng.randrange(-3, 4)
                entries[-1] = [factor * x for x in entries[0]]
        yield IntMatrix(entries)
    for n in range(1, 5):  # dense 10**30 entries where the elimination stays small
        for shape in ((1, n), (n, 1), (2, 2)):
            yield IntMatrix(
                [[rng.randrange(-(10 ** 30), 10 ** 30 + 1) for _ in range(shape[1])]
                 for _ in range(shape[0])]
            )


def orbit_systems():
    """id - M^t of the orbit graph of every orbit-size vector, 2 <= d <= 8."""
    for d in range(2, 9):
        for sizes in compositions(d + 1):
            matrix = build_sft_graph(sizes).matrix
            yield IntMatrix.identity(matrix.rows).sub(matrix.transpose())


def test_smith_normal_form_matches_the_seed_elimination():
    matrices = list(oracle_matrices(random.Random(47)))
    assert any(not any(abs(x) == 1 for row in m.entries for x in row) for m in matrices)
    assert any(m.rows != m.cols for m in matrices)
    assert any(m.rows == m.cols and seed_bareiss_determinant(m) == 0 for m in matrices)
    assert any(abs(x) > 10 ** 29 for m in matrices for row in m.entries for x in row)
    matrices += orbit_systems()
    assert len(matrices) > 800
    for m in matrices:
        assert snf(m) == seed_smith_normal_form(m), m.entries
        if m.rows == m.cols:
            assert bareiss_determinant(m) == seed_bareiss_determinant(m), m.entries


def test_smith_normal_form_divisibility_chain():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(2, 6)
        m = random_int_matrix(rng, n, bound=20)
        _, invariants, _ = snf(m)
        factors = invariants.invariant_factors
        for a, b in zip(factors, factors[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
    # and the product of nonzero factors is |det| for nonsingular matrices
    for _ in range(40):
        n = rng.randrange(1, 6)
        m = random_int_matrix(rng, n)
        det = bareiss_determinant(m)
        if det == 0:
            continue
        _, invariants, _ = snf(m)
        product = 1
        for x in invariants.invariant_factors:
            product *= x
        assert product == abs(det)


# -- the orbit graph -------------------------------------------------------------


def test_graph_shape():
    for sizes in ((1, 3, 2), (2, 2), (4,), (1, 1, 1)):
        graph = build_sft_graph(sizes)
        d = sum(sizes) - 1
        assert graph.d == d
        assert graph.l == len(sizes) - 1
        assert len(graph.vertices) == d + 1
        # direct vertices first, one per orbit, then the loop relays
        direct = [v for v in graph.vertices if v[0] == "D"]
        assert len(direct) == len(sizes)
        relays = [v for v in graph.vertices if v[0] == "delta"]
        assert len(relays) == sum(x - 1 for x in sizes)


def test_graph_matrix_row_sums():
    for sizes in ((1, 3, 2), (2, 2), (4,), (1, 1, 2, 3)):
        graph = build_sft_graph(sizes)
        d = graph.d
        for i, v in enumerate(graph.vertices):
            row = sum(graph.matrix[i, j] for j in range(len(graph.vertices)))
            if v[0] == "D":
                assert row == d  # d outgoing edges from each orbit vertex
            else:
                assert row == 1  # relays forward a single edge


def test_graph_edges_consistent_with_matrix():
    for sizes in ((1, 3, 2), (2, 2), (4,)):
        graph = build_sft_graph(sizes)
        counts = {}
        for source, target, _ in graph.edges():
            key = (graph.vertices.index(source), graph.vertices.index(target))
            counts[key] = counts.get(key, 0) + 1
        for i in range(len(graph.vertices)):
            for j in range(len(graph.vertices)):
                assert counts.get((i, j), 0) == graph.matrix[i, j]


def test_graph_edge_labels_are_colours():
    graph = build_sft_graph((1, 3, 2))
    d = graph.d
    for _, target, letter in graph.edges():
        if letter is None:
            assert target[0] == "D"  # relay edges carry no new colour
        else:
            assert 0 <= letter <= d


def test_graph_for_group_matches_sizes():
    for group in (switch_group(), rotation_group(), four_orbit_group()):
        graph = sft_graph_for_group(group)
        assert graph.orbit_sizes == group.orbit_sizes
        assert graph.orbit_colours == group.orbits
        same = build_sft_graph(group.orbit_sizes, group.orbits)
        assert same.vertices == graph.vertices
        assert same.matrix == graph.matrix


def test_dot_export_mentions_all_vertices():
    graph = build_sft_graph((2, 2))
    text = dot_export(graph)
    assert text.startswith("digraph")
    assert text.count("->") == sum(
        graph.matrix[i, j]
        for i in range(len(graph.vertices))
        for j in range(len(graph.vertices))
    )


def test_build_sft_graph_validates():
    with pytest.raises(ValueError):
        build_sft_graph((1, 1))  # d+1 = 2 is below the minimum
    with pytest.raises(ValueError):
        build_sft_graph((0, 3))


@pytest.mark.parametrize("sizes", [(1.9, 2), (2.5, 1), (2, 2.0), (True, 2), ("2", 2)])
@pytest.mark.parametrize(
    "build",
    [lambda sizes: ball_counts(sizes, 2), vf_abelianization, build_sft_graph],
    ids=["ball_counts", "vf_abelianization", "build_sft_graph"],
)
def test_orbit_sizes_must_be_integers(build, sizes):
    with pytest.raises(ValueError, match="orbit sizes must be positive integers"):
        build(sizes)


def test_graph_orbit_lookups():
    graph = build_sft_graph((1, 3, 2))
    assert graph.orbit_of == {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    assert graph.rep_of == {0: 0, 1: 1, 2: 1, 3: 1, 4: 4, 5: 4}
    assert graph.orbit_of is graph.orbit_of  # computed once per graph


# -- abelianization invariants ------------------------------------------------------


def test_four_orbit_example_frozen_values():
    ab = vf_abelianization((1, 2, 2, 2))
    assert ab.determinant == 2 ** 3 * (1 - 6)  # -40
    assert ab.invariant_factors == (2, 2, 10)
    assert ab.two_torsion_rank == 3
    assert ab.describe() == "(Z/2)^3"
    # derived-subgroup index 2^3 = 8
    assert 2 ** ab.two_torsion_rank == 8


def test_abelianization_closed_form_small_sweep():
    for d in range(2, 6):
        for sizes in compositions(d + 1):
            ab = vf_abelianization(sizes)
            l = len(sizes) - 1
            expected = l + 1 if all(x % 2 == 0 for x in sizes) else l
            assert ab.two_torsion_rank == expected
            if expected:
                assert ab.describe() == "(Z/2)^%d" % expected
            else:
                assert "perfect" in ab.describe()


def test_determinant_identity_small_sweep():
    for d in range(2, 6):
        for sizes in compositions(d + 1):
            ab = vf_abelianization(sizes)
            l = len(sizes) - 1
            assert ab.determinant == 2 ** l * (1 - d)


def test_factor_product_equals_determinant():
    for sizes in ((1, 2, 2, 2), (2, 2), (1, 3), (3, 3), (1, 1, 2)):
        ab = vf_abelianization(sizes)
        product = 1
        for x in ab.invariant_factors:
            product *= x
        assert product == abs(ab.determinant)


def test_abelianization_group_order_vs_snf_matrix():
    # the SNF of (I - M^t) recomputed through sympy gives the same factors
    for sizes in ((1, 2, 2, 2), (2, 2), (4,), (1, 1, 1, 1)):
        graph = build_sft_graph(sizes)
        n = len(graph.vertices)
        entries = [
            [(1 if i == j else 0) - graph.matrix[j, i] for j in range(n)]
            for i in range(n)
        ]
        expected = [x for x in sympy_invariants(IntMatrix(entries)) if x != 1]
        ab = vf_abelianization(sizes)
        assert list(ab.invariant_factors) == expected


def test_abelianization_is_a_dataclass_with_sizes():
    ab = vf_abelianization((2, 2))
    assert isinstance(ab, Abelianization)
    assert ab.orbit_sizes == (2, 2)
    assert ab.two_torsion_rank == 2  # both orbit sizes even: l + 1