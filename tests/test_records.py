"""The package's result records are named tuples.

Each record keeps the name, the field names and the field order it had as a
frozen dataclass, and the same ``repr``; the texts below are those the
dataclasses printed for the same samples.  Being tuples, records are
iterable, orderable and equal to a plain tuple of their fields.
"""

import pytest

import coloured_neretin as cn
from coloured_neretin import (
    AbelianInvariants,
    Bisection,
    IntMatrix,
    appendix_counts,
    ball_counts,
    build_sft_graph,
    covolume_chain,
    dominant_coefficient_compare,
    smith_normal_form,
    verify_prime_windows,
    verify_smallest_inequality,
    verify_xi_claims,
    vf_abelianization,
)

BISECTION_PAIRS = [[(2,), (1, 2)], [(0,), (0,)], [(1,), (2,)], [(1, 2), (1, 0)]]

# name -> (a function building the sample, its field names, its repr)
RECORDS = {
    "BallCounts": (
        lambda: ball_counts((1, 2), 2),
        "orbit_sizes n sphere orbit_spheres sym_product_order aut_ball_order kernel_orders",
        "BallCounts(orbit_sizes=(1, 2), n=2, sphere=6, orbit_spheres=(2, 4), "
        "sym_product_order=48, aut_ball_order=4, kernel_orders=(2,))",
    ),
    "CovolumeChain": (
        lambda: covolume_chain((1, 2), 2, 2),
        "orbit_sizes n gamma_order counts index_bound",
        "CovolumeChain(orbit_sizes=(1, 2), n=2, gamma_order=2, counts=BallCounts("
        "orbit_sizes=(1, 2), n=2, sphere=6, orbit_spheres=(2, 4), sym_product_order=48, "
        "aut_ball_order=4, kernel_orders=(2,)), index_bound=Fraction(6, 1))",
    ),
    "SmallestVerdict": (
        lambda: verify_smallest_inequality((1, 1, 2)),
        "orbit_sizes lhs rhs",
        "SmallestVerdict(orbit_sizes=(1, 1, 2), lhs=1048576, rhs=419904)",
    ),
    "DominantCompare": (
        lambda: dominant_coefficient_compare((1, 3)),
        "orbit_sizes lhs_coefficient rhs_coefficient strict_less equality single_switch "
        "boundary_case",
        "DominantCompare(orbit_sizes=(1, 3), lhs_coefficient=4.184941083929179, "
        "rhs_coefficient=4.394449154672439, strict_less=True, equality=False, "
        "single_switch=False, boundary_case=False)",
    ),
    "XiClaimsReport": (
        lambda: verify_xi_claims(4),
        "max_x append_checked merge_checked tail_checked failures undecided max_bits "
        "boundary_note",
        "XiClaimsReport(max_x=4, append_checked=4, merge_checked=3, tail_checked=3, "
        "failures=[], undecided=[], max_bits=128, boundary_note='append step not asserted "
        "for partitions with total-1 parts; the underlying convexity bound needs at most "
        "total-2 parts')",
    ),
    "PrimeWindowReport": (
        lambda: verify_prime_windows(100),
        "min_m max_m least_count least_at",
        "PrimeWindowReport(min_m=17, max_m=100, least_count=3, least_at=17)",
    ),
    "AppendixCounts": (
        lambda: appendix_counts(2, 3, 2),
        "d k n sphere aut_ball_order overcount_value overcount_matches bound bound_ok "
        "overcount_bound_ok",
        "AppendixCounts(d=2, k=3, n=2, sphere=6, aut_ball_order=48, overcount_value=3072, "
        "overcount_matches=False, bound=384, bound_ok=True, overcount_bound_ok=False)",
    ),
    "AbelianInvariants": (
        lambda: smith_normal_form(IntMatrix([[2, 4], [6, 8]]))[1],
        "invariant_factors free_rank",
        "AbelianInvariants(invariant_factors=(2, 4), free_rank=0)",
    ),
    "Abelianization": (
        lambda: vf_abelianization((2, 2)),
        "orbit_sizes invariant_factors two_torsion_rank determinant",
        "Abelianization(orbit_sizes=(2, 2), invariant_factors=(2, 2), two_torsion_rank=2, "
        "determinant=-4)",
    ),
    "SftGraph": (
        lambda: build_sft_graph((1, 2)),
        "orbit_sizes orbit_colours",
        "SftGraph(orbit_sizes=(1, 2), orbit_colours=((0,), (1, 2)))",
    ),
    "Bisection": (
        lambda: Bisection(BISECTION_PAIRS),
        "pairs",
        "Bisection(pairs=(((0,), (0,)), ((1,), (2,)), ((1, 2), (1, 0)), ((2,), (1, 2))))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_keeps_its_fields_and_its_repr(name):
    build, fields, text = RECORDS[name]
    record = build()
    assert type(record) is getattr(cn, name)
    assert type(record).__name__ == name
    assert record._fields == tuple(fields.split())
    assert repr(record) == text
    assert record == tuple(getattr(record, field) for field in record._fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_compare_and_hash_equal(name):
    build = RECORDS[name][0]
    first, second = build(), build()
    assert first is not second
    assert first == second
    if name == "XiClaimsReport":
        # its failure and undecided lists make it unhashable, as before
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_records_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_only_the_graph_has_an_instance_dict():
    # the graph keeps its cached views there; every other record is slotted
    for name, (build, _, _) in RECORDS.items():
        assert hasattr(build(), "__dict__") == (name == "SftGraph"), name
    graph = build_sft_graph((1, 2))
    assert graph.matrix is graph.matrix
    assert "matrix" in vars(graph)


def test_a_default_boundary_note_is_empty():
    report = cn.XiClaimsReport(3, 0, 0, 0, [], [], 0)
    assert report.boundary_note == ""
    assert report.ok


@pytest.mark.parametrize("factors, free_rank", [((2, 3), 0), ((2,), -1), ((0, 2), 0)])
def test_invariants_that_break_the_divisibility_chain_are_refused(factors, free_rank):
    with pytest.raises(AssertionError):
        AbelianInvariants(factors, free_rank)
    assert AbelianInvariants((2, 6), 1).invariant_factors == (2, 6)
