"""End-to-end exercises of the command line interface.

Everything goes through ``main`` so the tests see the same parsing,
exit codes and output the shell would.
"""

import csv
import json
import random

import pytest

from coloured_neretin import (
    compose,
    element_from_dict,
    element_to_dict,
    identity_element,
    random_element,
)
from coloured_neretin.cli import main

from conftest import four_orbit_group, rotation_group, switch_group


def write_element(tmp_path, name, element):
    path = tmp_path / name
    path.write_text(json.dumps(element_to_dict(element)))
    return str(path)


def read_element(capsys):
    return element_from_dict(json.loads(capsys.readouterr().out))


# -- element commands -------------------------------------------------------


def test_compose_round_trip(tmp_path, capsys):
    rng = random.Random(41)
    group = rotation_group()
    a = random_element(group, rng, 5)
    b = random_element(group, rng, 5)
    code = main(
        ["compose", write_element(tmp_path, "a.json", a),
         write_element(tmp_path, "b.json", b)]
    )
    assert code == 0
    assert read_element(capsys) == compose(a, b)


def test_compose_rejects_mixed_groups(tmp_path, capsys):
    rng = random.Random(42)
    a = random_element(rotation_group(), rng, 4)
    b = random_element(switch_group(), rng, 4)
    code = main(
        ["compose", write_element(tmp_path, "a.json", a),
         write_element(tmp_path, "b.json", b)]
    )
    assert code == 1
    assert "different colour groups" in capsys.readouterr().err


def test_invert_round_trip(tmp_path, capsys):
    rng = random.Random(43)
    a = random_element(four_orbit_group(), rng, 4)
    assert main(["invert", write_element(tmp_path, "a.json", a)]) == 0
    assert read_element(capsys) == a.inverse()


def test_reduce_normalizes(tmp_path, capsys):
    rng = random.Random(44)
    group = rotation_group()
    a = random_element(group, rng, 5)
    unreduced = a.expand_at(a.domain.leaves[0])
    path = write_element(tmp_path, "a.json", unreduced)
    assert main(["reduce", path]) == 0
    out = read_element(capsys)
    assert out == a.reduce()
    assert len(out.domain.leaves) <= len(unreduced.domain.leaves)


def test_sign_on_invariant_even_subset(tmp_path, capsys):
    path = write_element(
        tmp_path, "id.json", identity_element(four_orbit_group())
    )
    code = main(
        ["sign", path, "--subset", "1,2,3,4", "--mode", "class",
         "--target", "nf"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sign on colours {1,2,3,4}" in out
    assert "+1" in out


def test_sign_rejects_unstable_subset(tmp_path, capsys):
    path = write_element(
        tmp_path, "id.json", identity_element(four_orbit_group())
    )
    code = main(["sign", path, "--subset", "5,6", "--target", "nf"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sign_rejects_non_invariant_subset(tmp_path, capsys):
    path = write_element(
        tmp_path, "id.json", identity_element(four_orbit_group())
    )
    code = main(["sign", path, "--subset", "1,3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# -- file diagnostics -------------------------------------------------------


def test_missing_file(capsys):
    assert main(["invert", "/no/such/file.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"d": 3, "F_generators": [')
    assert main(["reduce", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid JSON at line" in err
    assert "broken.json" in err


def test_element_validation_reports_filename(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = element_to_dict(identity_element(rotation_group()))
    del data["kappa"]
    path.write_text(json.dumps(data))
    assert main(["invert", str(path)]) == 1
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [2.0, "1", True])
def test_compose_names_bad_kappa_entries(tmp_path, capsys, entry):
    data = element_to_dict(identity_element(rotation_group()))
    data["kappa"][1] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    good = write_element(tmp_path, "good.json", identity_element(rotation_group()))
    assert main(["compose", good, str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.json: kappa[1] is not an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("F_generators", [5], "F_generators[0] is not a string"),
        ("F_generators", [None], "F_generators[0] is not a string"),
        ("F_generators", ["(1 a)"], "F_generators[0]: invalid literal"),
        ("F_generators", 7, "F_generators is not a list"),
        ("domain", 5, "domain is not a list"),
        ("domain", [0, 1, 2], "domain[0] is not a list"),
        ("domain", [[0], [1, "a"]], "domain[1][1] is not an integer"),
        ("range", [[0], [True]], "range[1][0] is not an integer"),
        ("kappa", 5, "kappa is not a list"),
        (None, 5, "element file must hold a JSON object"),
    ],
)
def test_reduce_names_the_bad_field(tmp_path, capsys, field, value, named):
    data = element_to_dict(identity_element(rotation_group()))
    if field is None:
        data = value
    else:
        data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["reduce", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: %s" % (bad, named))
    assert err.count("\n") == 1


# -- reports ----------------------------------------------------------------


def test_abelianization_output(capsys):
    assert main(["abelianization", "--orbits", "1,2,2,2"]) == 0
    out = capsys.readouterr().out
    assert "relation matrix determinant: -40" in out
    assert "invariant factors: 2, 2, 10" in out
    assert "two-torsion rank: 3" in out
    assert "abelianization: (Z/2)^3" in out


def test_graph_dot_export(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    assert main(["graph", "--orbits", "1,3,2", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "orbit graph for sizes 1,3,2: 6 vertices, 18 edges" in out
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 18


def test_covolume_table_csv(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(
        ["covolume-table", "--orbits", "3", "--max-n", "3",
         "--csv", str(target)]
    )
    assert code == 0
    with open(target, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    assert rows[0] == [
        "d", "orbit_sizes", "n", "sphere", "sym_product_order",
        "aut_ball_order", "bound_ratio", "inequality_verdict",
    ]
    assert len(rows) == 4  # header + one row per n
    assert rows[2][:7] == ["2", "3", "2", "6", "720", "48", "-0.287682"]
    assert all(row[-1] == "equality" for row in rows[1:])
    assert "wrote %s" % target in capsys.readouterr().out


def test_covolume_table_gamma_bound(capsys):
    code = main(
        ["covolume-table", "--orbits", "1,2", "--max-n", "2",
         "--gamma-order", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "index lower bound at n=1 (|Gamma_n| = 2):" in out
    assert "index lower bound at n=2 (|Gamma_n| = 2):" in out


def test_covolume_table_gamma_must_act(capsys):
    code = main(
        ["covolume-table", "--orbits", "1,2", "--max-n", "2",
         "--gamma-order", "7"]
    )
    assert code == 1
    assert "no finite group of that order" in capsys.readouterr().err


def test_verify_smallest(capsys):
    assert main(["verify-smallest", "--max-d", "5"]) == 0
    out = capsys.readouterr().out
    for d in range(2, 6):
        assert ("d=%2d:" % d) in out
    assert "strict inequality verified exactly" in out


def test_primes_window(capsys):
    assert main(["primes-window", "--max-m", "20"]) == 0
    out = capsys.readouterr().out
    assert "window (m/2, m] for m = 20: {11, 13, 17, 19}" in out
    assert "least count over 17 <= m <= 20: 3 (at m = 17)" in out
    assert "every window contains at least three primes: True" in out


def test_appendix_counts(capsys):
    assert main(["appendix-counts", "--d", "2", "--k", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "sphere size k*d^(n-1) = 4" in out
    assert "level recursion value: 8" in out
    assert "128" in out
    assert "the two closed forms agree: False" in out
    assert "bound k! * d^(k d^(n-1)) = 32" in out
    assert "recursion value within bound: True" in out
    assert "extra-level value within bound: False" in out


# -- argument handling ------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["abelianization", "--orbits", "0,2"]) == 2
    assert main(["abelianization", "--orbits", "nope"]) == 2
    assert main(["covolume-table", "--orbits", "3", "--max-n", "0"]) == 2
    assert main(["primes-window", "--max-m", "11"]) == 2
    capsys.readouterr()  # swallow argparse usage chatter


def test_subset_argument_forms(tmp_path, capsys):
    path = write_element(
        tmp_path, "id.json", identity_element(four_orbit_group())
    )
    # spaces and duplicates are tolerated, order is normalized
    code = main(["sign", path, "--subset", "4,3,2,1,1"])
    assert code == 0
    assert "{1,2,3,4}" in capsys.readouterr().out
    assert main(["sign", path, "--subset", "x,y"]) == 2
    capsys.readouterr()


# -- the bundled selftest ----------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: all 8 sections passed" in out
    assert "FAIL" not in out
