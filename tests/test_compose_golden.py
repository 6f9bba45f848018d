"""Golden outputs of ``compose`` and ``inverse`` over four colour groups.

``data/compose_golden.json`` was recorded with the expansion-based compose
(repeated simple expansions of both factors until they share a middle
tree).  The one-pass compose must reproduce it bit for bit.  Re-record it
only after a deliberate change of the canonical form, with

    PYTHONPATH=src python tests/test_compose_golden.py
"""

import json
import os
import random

from coloured_neretin import compose, element_to_dict, random_element

from conftest import (
    assert_complete,
    four_orbit_group,
    rotation_group,
    small_trivial,
    sym_group,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "compose_golden.json")
GROUPS = {
    "trivial_d2": small_trivial(2),
    "rotation": rotation_group(),
    "four_orbit": four_orbit_group(),
    "sym4": sym_group(4),
}
EXPANSIONS = (1, 3, 6, 10, 16)


def golden_cases():
    """{case name: {"compose": dict, "inverse": dict}} for every group and size."""
    cases = {}
    for name, group in GROUPS.items():
        for seed, expansions in enumerate(EXPANSIONS):
            rng = random.Random("golden:%s:%d" % (name, seed))
            a = random_element(group, rng, expansions)
            b = random_element(group, rng, expansions)
            composite = compose(a, b)
            inverse = composite.inverse()
            assert_complete(a, b, composite, inverse)
            cases["%s/%d" % (name, seed)] = {
                "compose": element_to_dict(composite),
                "inverse": element_to_dict(inverse),
            }
    return cases


def dumps(cases):
    return json.dumps(cases, sort_keys=True, separators=(",", ":")) + "\n"


def test_compose_and_inverse_match_golden():
    with open(GOLDEN) as handle:
        text = handle.read()
    want = json.loads(text)
    got = golden_cases()
    assert sorted(got) == sorted(want)
    for case in want:
        assert got[case] == want[case], case
    assert dumps(got) == text


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        handle.write(dumps(golden_cases()))
    print("wrote", GOLDEN)
