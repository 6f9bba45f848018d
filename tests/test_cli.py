"""End-to-end exercises of the command line interface.

Everything goes through ``main`` so the tests see the same parsing,
exit codes and output the shell would.
"""

import csv
import decimal
import json
import os
import random
import sys
import time

import pytest

from coloured_neretin import (
    compose,
    element_from_dict,
    element_to_dict,
    identity_element,
    random_element,
)
from coloured_neretin import cli, covolume
from coloured_neretin.cli import main
from coloured_neretin.covolume import covolume_table_rows, window_ends

from conftest import (
    four_orbit_group,
    rotation_group,
    small_trivial,
    switch_group,
    sym_group,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "compose_golden.json")


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


def test_compose_over_sym16(tmp_path, capsys):
    # Neretin's own case at d = 15: |F| = 16! is never listed
    rng = random.Random(44)
    group = sym_group(16)
    a = random_element(group, rng, 4)
    b = random_element(group, rng, 4)
    code = main(
        ["compose", write_element(tmp_path, "a.json", a),
         write_element(tmp_path, "b.json", b)]
    )
    assert code == 0
    assert read_element(capsys) == compose(a, b)


def test_element_commands_over_sym24(tmp_path, capsys):
    # |F| = 24! does not fit a machine index, so nothing may take len(F)
    rng = random.Random(45)
    group = sym_group(24)
    a = write_element(tmp_path, "a.json", random_element(group, rng, 3))
    b = write_element(tmp_path, "b.json", random_element(group, rng, 3))
    everything = ",".join(str(c) for c in range(24))
    for argv in (["compose", a, b], ["invert", a], ["reduce", b],
                 ["sign", a, "--subset", everything]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""


def indented(element):
    """What the element commands print: the json module's own indent=2."""
    return json.dumps(element_to_dict(element), indent=2) + "\n"


def test_element_json_is_the_indented_dump():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    elements = [
        element_from_dict(case[kind])
        for case in golden.values()
        for kind in ("compose", "inverse")
    ]
    trivial = identity_element(small_trivial(2))
    assert element_to_dict(trivial)["F_generators"] == []
    for element in elements + [trivial]:
        assert cli._element_json(element) + "\n" == indented(element)


def test_element_commands_print_the_indented_dump(tmp_path, capsys):
    rng = random.Random(46)
    for group in (small_trivial(2), rotation_group(), four_orbit_group(), sym_group(7)):
        a = random_element(group, rng, 6)
        b = random_element(group, rng, 6)
        first = write_element(tmp_path, "a.json", a)
        runs = (
            (["compose", first, write_element(tmp_path, "b.json", b)], compose(a, b)),
            (["invert", first], a.inverse()),
            (["reduce", first], a.reduce()),
        )
        for argv, expected in runs:
            assert main(argv) == 0
            assert capsys.readouterr().out == indented(expected)


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
    # written by hand: element_to_dict would reduce the element first
    data = element_to_dict(a)
    data["domain"] = [list(v) for v in unreduced.domain.leaves]
    data["range"] = [list(w) for w in unreduced.range.leaves]
    data["kappa"] = [
        unreduced.range.leaves.index(unreduced.leaf_image(v)) for v in unreduced.domain.leaves
    ]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    assert main(["reduce", str(path)]) == 0
    out = read_element(capsys)
    assert len(data["domain"]) > len(out.domain.leaves)
    assert out == a.reduce()


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


def test_invert_of_a_huge_degree_file_reports_the_tree(tmp_path, capsys):
    # the trivial colour group of degree 50001 builds in linear time, so
    # the leaf set is reached and named instead of the command hanging
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": 50000, "domain": [[0]], "range": [[0]], "kappa": [0]}))
    assert main(["invert", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: %s: vertex () is internal but covers no leaf through colours [1, 2, 3," % path
    )
    assert err.endswith(", 49999, 50000]\n")


def test_huge_degree_diagnosis_fits_on_one_short_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.json").write_text(
        json.dumps({"d": 50000, "domain": [[0]], "range": [[0]], "kappa": [0]})
    )
    assert main(["invert", "huge.json"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: huge.json: vertex () is internal but covers no leaf through "
        "colours [1, 2, 3, <49995 more>, 49999, 50000]\n"
    )
    assert len(err) < 200


@pytest.mark.parametrize("d", [2**70, 10**8], ids=["2**70", "10**8"])
def test_a_domain_too_small_for_d_is_named_before_f_is_built(tmp_path, capsys, d):
    # a complete leaf set has at least d + 1 leaves, so the three-leaf domain
    # is refused from the file alone: F_generators (the second one is not
    # even cycle notation) are not parsed and F is not built over d + 1
    # colours, which would overflow at 2**70 and exhaust memory at 10**8
    data = element_to_dict(identity_element(small_trivial(2)))
    data.update(d=d, F_generators=["(0 1)", "(0 1 x)"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["reduce", str(path)]) == 1
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        "error: %s: vertex () is internal but covers no leaf through colours "
        "[3, 4, 5, <%d more>, %d, %d]\n" % (path, d - 7, d - 1, d)
    )


@pytest.fixture(scope="module")
def huge_identity_files(tmp_path_factory):
    """B_1 identity files at d = 50000, one leaf per colour, over the
    trivial colour group and over <(0 1)>, with their parsed contents."""
    folder = tmp_path_factory.mktemp("huge")
    files = {}
    for name, generators in (("trivial", []), ("switch", ["(0 1)"])):
        leaves = [[c] for c in range(50001)]
        data = {
            "d": 50000,
            "F_generators": generators,
            "domain": leaves,
            "range": leaves,
            "kappa": list(range(50001)),
        }
        path = folder / (name + ".json")
        path.write_text(json.dumps(data))
        files[name] = (str(path), data)
    return files


@pytest.mark.parametrize("group", ["trivial", "switch"])
@pytest.mark.parametrize("command", ["compose", "invert", "reduce"])
def test_huge_degree_valid_files_run_end_to_end(huge_identity_files, capsys, group, command):
    # the plane order is linear in the degree, so a valid element file of
    # degree 50000 is processed in seconds
    path, data = huge_identity_files[group]
    argv = [command, path, path] if command == "compose" else [command, path]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 20.0
    assert json.loads(capsys.readouterr().out) == data


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
    # K is formed from the orbit sizes alone: an orbit of 10^8 colours builds no graph
    assert main(["abelianization", "--orbits", "1,2,99999997"]) == 0
    out = capsys.readouterr().out
    assert "relation matrix determinant: -399999992" in out
    assert "invariant factors: 2, 199999996" in out
    assert "two-torsion rank: 2" in out


def test_abelianization_of_many_orbits(capsys):
    # the factors are a closed form in the orbit sizes: a thousand orbits
    # take milliseconds, not the cubic cost of an elimination
    start = time.perf_counter()
    assert main(["abelianization", "--orbits", ",".join(["1"] * 1000)]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "relation matrix determinant: %d" % (2 ** 999 * (1 - 999)),
        "invariant factors: %s" % ", ".join(["2"] * 998 + ["1996"]),
        "two-torsion rank: 999",
        "abelianization: (Z/2)^999",
    ]
    # at 20 000 orbits the determinant has 6 025 digits, past str(int)'s limit
    assert main(["abelianization", "--orbits", ",".join(["1"] * 20000)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "abelianization: (Z/2)^19999"
    label, printed = lines[1].split(": ")
    assert label == "relation matrix determinant"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(printed) == 2 ** 19999 * (1 - 19999)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(printed) == 6026  # the digits and the minus sign


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


def shown_from_the_digits(value):
    """What ``_show_int`` shows, read off the whole decimal text."""
    text = str(decimal.Decimal(value))
    if len(text) <= 48:
        return text
    return "%s...%s (%d digits)" % (text[:12], text[-6:], len(text))


SHOWN_INTS = [0, 1, 9, 10, -1, -10]
SHOWN_INTS += [10 ** 47, 10 ** 48 - 1, 10 ** 48, 10 ** 48 + 1, 2 * 10 ** 48 - 1]
SHOWN_INTS += [-(10 ** 46), -(10 ** 47) + 1, -(10 ** 47), -(10 ** 48)]
SHOWN_INTS += [v for k in (49, 60, 4299, 4300, 6000) for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)]
SHOWN_INTS += [2 ** b + e for b in (159, 160, 162, 163, 14286) for e in (-1, 0, 1)]
SHOWN_INTS += [3 ** 5000, 7 * 10 ** 99 + 123456, -(5 ** 9000)]


@pytest.mark.parametrize("value", SHOWN_INTS, ids=range(len(SHOWN_INTS)))
def test_show_int_is_the_text_of_the_digits(value):
    # the digit count and the head come from the bit length and one
    # division, not from the whole decimal text; they must agree with it
    # at 48 and 49 characters, around powers of ten and of two, and signed
    assert covolume._show_int(value) == shown_from_the_digits(value)


def test_covolume_table_past_the_int_str_digit_limit(tmp_path, capsys):
    # sym_product_order has 27 720 digits at n = 5, past str(int)'s limit
    target = tmp_path / "table.csv"
    assert main(["covolume-table", "--orbits", "2,2,3", "--csv", str(target)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (printed,) = [line for line in lines if line.startswith("6 | 2 2 3 | 5 | ")]
    assert printed.split(" | ")[4].endswith("(27720 digits)")
    header = lines[0].split(" | ")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [header] + [
            [str(row[key]) for key in header]
            for row in covolume_table_rows((2, 2, 3), 6)
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    with open(target, newline="") as handle:
        cells = [line.split(",") for line in handle.read().split("\r\n")[:-1]]
    assert cells == expected
    assert len(cells[5][4]) == 27720


def test_covolume_table_gamma_bound(capsys, monkeypatch):
    radii, ball_counts = [], covolume.ball_counts

    def counting(orbit_sizes, n):
        radii.append(n)
        return ball_counts(orbit_sizes, n)

    monkeypatch.setattr(covolume, "ball_counts", counting)
    code = main(
        ["covolume-table", "--orbits", "1,2", "--max-n", "2",
         "--gamma-order", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "index lower bound at n=1 (|Gamma_n| = 2):" in out
    assert "index lower bound at n=2 (|Gamma_n| = 2):" in out
    # the table and the bounds read one set of ball counts per radius
    assert radii == [1, 2]


def test_covolume_table_gamma_must_act(capsys):
    code = main(
        ["covolume-table", "--orbits", "1,2", "--max-n", "2",
         "--gamma-order", "7"]
    )
    assert code == 1
    # refused before any row is printed
    assert capsys.readouterr() == (
        "",
        "error: gamma_order 7 does not divide the sphere symmetry order 2: "
        "no finite group of that order acts this way\n",
    )


def test_verify_smallest(capsys):
    assert main(["verify-smallest", "--max-d", "5"]) == 0
    out = capsys.readouterr().out
    for d in range(2, 6):
        assert ("d=%2d:" % d) in out
    assert "strict inequality verified exactly" in out


def test_verify_smallest_reports_the_settling_precision(capsys, monkeypatch):
    monkeypatch.delenv("COLOURED_NERETIN_PRECISION", raising=False)
    assert main(["verify-smallest", "--max-d", "5"]) == 0
    # every sign settles at the starting precision
    assert "(interval cross-check at 128 bits)" in capsys.readouterr().out
    real = covolume.smallest_log_sign

    def escalated(parts):
        sign, value, bits = real(parts)
        return sign, value, 256 if parts == (2, 2, 1) else bits

    monkeypatch.setattr(covolume, "smallest_log_sign", escalated)
    assert main(["verify-smallest", "--max-d", "5"]) == 0
    out = capsys.readouterr().out
    assert "(interval cross-check at 256 bits)" in out


def test_primes_window(capsys):
    assert main(["primes-window", "--max-m", "20"]) == 0
    out = capsys.readouterr().out
    assert "window (m/2, m] for m = 20: {11, 13, 17, 19}" in out
    assert "least count over 17 <= m <= 20: 3 (at m = 17)" in out
    assert "every window contains at least three primes: True" in out


@pytest.mark.parametrize("m", [17, 100, 10 ** 5, 10 ** 6])
def test_primes_window_line_matches_the_listed_window(capsys, m):
    # the command reads the window's count and ends from the sieve; the
    # line must be the one the full list of window primes gives
    primes = window_ends(m, m)[1]
    if len(primes) <= 25:
        listing = "{%s}" % ", ".join(map(str, primes))
    else:
        listing = "%d primes, first {%s}, last {%s}" % (
            len(primes), ", ".join(map(str, primes[:3])), ", ".join(map(str, primes[-3:]))
        )
    assert main(["primes-window", "--max-m", str(m)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "window (m/2, m] for m = %d: %s" % (m, listing)


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


def test_orbit_sizes_past_the_int_str_digit_limit(capsys):
    # a size int() refuses at the interpreter's digit limit is named as such,
    # and the limit itself is left as it is
    limit = sys.get_int_max_str_digits()
    assert main(["abelianization", "--orbits", "1," + "9" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(
        "argument --orbits: an orbit size has more than %d digits, the limit of "
        "sys.get_int_max_str_digits()" % limit
    )
    assert sys.get_int_max_str_digits() == limit
    assert main(["abelianization", "--orbits", "1,x" + "9" * 5000]) == 2
    assert "comma-separated list of integers" in capsys.readouterr().err


def test_one_parser_serves_every_request(tmp_path, capsys):
    # the parser is built once per process, so no request may leak into the next
    assert cli.build_parser() is cli.build_parser()
    identity = identity_element(four_orbit_group())
    path = write_element(tmp_path, "id.json", identity)
    assert main(["sign", path, "--subset", "1,2,3,4", "--mode", "honest"]) == 0
    assert "(mode=honest, target=vf): +1" in capsys.readouterr().out
    assert main(["sign", path, "--subset", "1,2,3,4"]) == 0
    assert "(mode=class, target=vf): +1" in capsys.readouterr().out
    assert main(["compose", path]) == 2
    assert "required: second" in capsys.readouterr().err
    assert main(["compose", path, path]) == 0
    assert read_element(capsys) == identity
    helps = []
    for _ in range(2):
        assert main(["--help"]) == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    assert helps[0].out.startswith("usage: coloured-neretin") and helps[0].err == ""


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
