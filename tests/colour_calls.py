"""Calls of the permutations layer that take colours, for the tests that
check each names a bad colour.  No test framework and no sympy is imported
here, so a bare ``python -O`` subprocess can load it cheaply."""

from coloured_neretin import contains_alternating, stabilizer_restriction_in_alt, structure_report

BAD_COLOURS = [7, -1, 2.0, "2", True, None]


def colour_calls(group, bad):
    """Every call of the permutations layer that takes colours, with ``bad`` among them."""
    return {
        "invariant_subset": lambda: group.invariant_subset((1, 2, bad)),
        "is_invariant": lambda: group.is_invariant((1, 2, bad)),
        "restriction_parity": lambda: group.generators[0].restriction_parity((1, 2, bad)),
        "stabilizer subset": lambda: stabilizer_restriction_in_alt(group, 0, (1, 2, bad)),
        "stabilizer chi": lambda: stabilizer_restriction_in_alt(group, bad, (1, 2)),
        "structure_report": lambda: structure_report(group, (0, bad)),
        "contains_alternating": lambda: contains_alternating(group, tuple(range(7)) + (bad,)),
    }
