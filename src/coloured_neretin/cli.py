"""Command line interface for the coloured-tree almost-automorphism toolkit.

Elements are exchanged as JSON files::

    {
      "d": 3,
      "F_generators": ["(1 2 3)"],
      "domain": [[0], [1], [2], [3]],
      "range":  [[0], [1], [2], [3]],
      "kappa":  [0, 1, 2, 3]
    }

``domain`` and ``range`` list the leaf addresses of two complete subtrees
(in the plain sorted order used throughout), and ``kappa[i]`` is the index
in ``range`` of the image of the i-th domain leaf.

Exit status: 0 on success, 1 on invalid input or a failed verification,
2 on command line usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import cache

# The element commands run these two modules.  Each handler of a numeric
# command imports what it runs itself, so that a process loads only the
# modules its command uses.
from .almost_automorphisms import (
    compose,
    element_from_dict,
    element_to_dict,
    find_sign_violation,
    identity_element,
    is_sign_well_defined,
    purely_infinite_witness,
    random_element,
    sign,
)
from .permutations import (
    closure_enumerate,
    contains_alternating,
    from_cycles,
    structure_report,
)


class CliError(ValueError):
    pass


# -- argument parsing helpers ---------------------------------------------------


def _int_at_least(minimum):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "value must be at least %d" % minimum
            )
        return value

    return parse


def _orbit_sizes_arg(text):
    from .abelianization import check_orbit_sizes

    parts = [part.strip().lstrip("+-") for part in text.split(",")]
    limit = sys.get_int_max_str_digits()
    if limit and any(len(part) > limit and part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(
            "an orbit size has more than %d digits, the limit of "
            "sys.get_int_max_str_digits()" % limit
        )
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "orbit sizes must be a comma-separated list of integers"
        )
    try:
        sizes, _ = check_orbit_sizes(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return sizes


def _subset_arg(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "subset must be a comma-separated list of colours"
        )


def parse_element_file(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise CliError(
            "%s: invalid JSON at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        )
    try:
        return element_from_dict(data)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError("%s: %s" % (path, exc))


def _element_json(element):
    """``json.dumps(element_to_dict(element), indent=2)`` laid out from the C
    encoder's compact text (an indent selects the slow pure-Python encoder);
    the compact text of a leaf list holds only digits, brackets and commas."""
    data = element_to_dict(element)
    fields = ['"d": %d' % data["d"]]
    for key in ("F_generators", "domain", "range", "kappa"):
        value = data[key]
        if key in ("domain", "range"):
            body = (
                json.dumps(value, separators=(",", ":"))[1:-1]
                .replace("[", "[\n      ")
                .replace("]", "\n    ]")
                .replace(",", ",\n      ")
                .replace("],\n      ", "],\n    ")
            )
        else:
            body = json.dumps(value, separators=(",\n    ", ": "))[1:-1]
        fields.append('"%s": %s' % (key, "[\n    %s\n  ]" % body if value else "[]"))
    return "{\n  %s\n}" % ",\n  ".join(fields)


def _digits(value):
    """The decimal digits of an int, exact and free of the interpreter's
    4 300-digit limit on ``str(int)``."""
    import decimal

    return str(decimal.Decimal(value))


# -- element commands -----------------------------------------------------------


def cmd_compose(args):
    outer = parse_element_file(args.first)
    inner = parse_element_file(args.second)
    print(_element_json(compose(outer, inner)))
    return 0


def cmd_invert(args):
    print(_element_json(parse_element_file(args.element).inverse()))
    return 0


def cmd_reduce(args):
    print(_element_json(parse_element_file(args.element).reduce()))
    return 0


def cmd_sign(args):
    element = parse_element_file(args.element)
    value = sign(element, args.subset, mode=args.mode, target=args.target)
    print(
        "sign on colours {%s} (mode=%s, target=%s): %+d"
        % (
            ",".join(str(c) for c in args.subset),
            args.mode,
            args.target,
            value,
        )
    )
    return 0


# -- abelianization and graph commands -------------------------------------------


def cmd_abelianization(args):
    from .abelianization import vf_abelianization

    result = vf_abelianization(args.orbits)
    d = sum(args.orbits) - 1
    print("orbit sizes: %s (d = %d)" % (",".join(map(str, args.orbits)), d))
    print("relation matrix determinant: %s" % _digits(result.determinant))
    if result.invariant_factors:
        print(
            "invariant factors: %s"
            % ", ".join(str(f) for f in result.invariant_factors)
        )
    else:
        print("invariant factors: none")
    print("two-torsion rank: %d" % result.two_torsion_rank)
    print("abelianization: %s" % result.describe())
    return 0


def cmd_graph(args):
    from .shift_model import build_sft_graph, dot_export

    graph = build_sft_graph(args.orbits)
    print(
        "orbit graph for sizes %s: %d vertices, %d edges"
        % (
            ",".join(map(str, args.orbits)),
            len(graph.vertices),
            len(graph.edges()),
        )
    )
    for vertex in graph.vertices:
        print("  vertex %s" % (vertex,))
    print("adjacency matrix (rows = sources):")
    print(str(graph.matrix))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(dot_export(graph))
        print("wrote %s" % args.dot)
    return 0


# -- covolume and estimate commands ----------------------------------------------


def cmd_covolume_table(args):
    from .covolume import _show_int, covolume_table_rows

    rows = covolume_table_rows(args.orbits, args.max_n, args.gamma_order)
    header = (
        "d",
        "orbit_sizes",
        "n",
        "sphere",
        "sym_product_order",
        "aut_ball_order",
        "bound_ratio",
        "inequality_verdict",
    )
    print(" | ".join(header))
    for row in rows:
        print(
            " | ".join(
                _show_int(row[key]) if isinstance(row[key], int) else str(row[key])
                for key in header
            )
        )
    if args.gamma_order is not None:
        for row in rows:
            bound = row["index_bound"]
            shown = _show_int(bound.numerator)
            if bound.denominator != 1:
                shown += " / " + _show_int(bound.denominator)
            print(
                "index lower bound at n=%d (|Gamma_n| = %d): %s"
                % (row["n"], args.gamma_order, shown)
            )
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=header, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(
                {key: _digits(v) if isinstance(v, int) else v for key, v in row.items()}
                for row in rows
            )
        print("wrote %s" % args.csv)
    return 0


def cmd_verify_smallest(args):
    from .covolume import integer_partitions, smallest_log_sign, verify_smallest_inequality

    total_holds = total_equality = total_reversed = 0
    max_bits = 0  # the largest precision that settled an interval sign
    for d in range(2, args.max_d + 1):
        holds = equality = reversed_ = 0
        for parts in integer_partitions(d + 1):
            verdict = verify_smallest_inequality(parts)
            if verdict.verdict != verdict.expected:
                raise CliError(
                    "verdict for %r does not match the l < d-1, d > 2 regime"
                    % (parts,)
                )
            if not verdict.equality:
                interval_sign, _, bits = smallest_log_sign(parts)
                max_bits = max(max_bits, bits)
                if interval_sign != (1 if verdict.holds else -1):
                    raise CliError(
                        "interval evaluation disagrees with the exact verdict "
                        "for %r" % (parts,)
                    )
            holds += verdict.holds
            equality += verdict.equality
            reversed_ += verdict.verdict == "reversed"
        total_holds += holds
        total_equality += equality
        total_reversed += reversed_
        print(
            "d=%2d: %3d partitions (holds %3d, equality %d, reversed %3d)"
            % (d, holds + equality + reversed_, holds, equality, reversed_)
        )
    print(
        "strict inequality verified exactly for all partitions with "
        "l < d-1 and d > 2 (interval cross-check at %d bits); totals: "
        "holds %d, equality %d, reversed %d"
        % (max_bits, total_holds, total_equality, total_reversed)
    )
    return 0


def cmd_primes_window(args):
    from .covolume import verify_prime_windows, window_ends

    report = verify_prime_windows(args.max_m)
    count, least, greatest = window_ends(args.max_m, 25)
    if count <= 25:
        listing = "{%s}" % ", ".join(map(str, least))
    else:
        listing = "%d primes, first {%s}, last {%s}" % (
            count,
            ", ".join(map(str, least[:3])),
            ", ".join(map(str, greatest[-3:])),
        )
    print("window (m/2, m] for m = %d: %s" % (args.max_m, listing))
    print(
        "least count over 17 <= m <= %d: %d (at m = %d)"
        % (report.max_m, report.least_count, report.least_at)
    )
    print(
        "every window contains at least three primes: %s"
        % report.always_at_least_three
    )
    return 0 if report.always_at_least_three else 1


def cmd_appendix_counts(args):
    from .covolume import _show_int, appendix_counts

    counts = appendix_counts(args.d, args.k, args.n)
    print(
        "k-regular root with d-regular levels: d=%d, k=%d, n=%d"
        % (counts.d, counts.k, counts.n)
    )
    print("sphere size k*d^(n-1) = %d" % counts.sphere)
    print("level recursion value: %s" % _show_int(counts.aut_ball_order))
    print(
        "extra-level closed form (exponent k(d^n-1)/(d-1)): %s"
        % _show_int(counts.overcount_value)
    )
    print(
        "the two closed forms agree: %s%s"
        % (
            counts.overcount_matches,
            "" if counts.overcount_matches else "  (the second counts one level too many)",
        )
    )
    print("bound k! * d^(k d^(n-1)) = %s" % _show_int(counts.bound))
    print("recursion value within bound: %s" % counts.bound_ok)
    print("extra-level value within bound: %s" % counts.overcount_bound_ok)
    return 0


# -- selftest --------------------------------------------------------------------


def _section(name, thunk):
    start = time.time()
    try:
        thunk()
    except Exception as exc:  # noqa: BLE001 - report and count any failure
        print("FAIL %-26s %s: %s" % (name, type(exc).__name__, exc))
        return False
    print("ok   %-26s (%.2fs)" % (name, time.time() - start))
    return True


def _selftest_permutations():
    group = closure_enumerate(
        [from_cycles([(0, 1)], 4), from_cycles([(1, 2, 3)], 4)]
    )
    assert group.order == 24
    report = structure_report(group)
    assert report["transitive"] and report["doubly_transitive"]
    assert contains_alternating(group, (0, 1, 2, 3))
    switches = closure_enumerate([from_cycles([(1, 2), (3, 4)], 5)])
    assert [tuple(o) for o in switches.orbits] == [(0,), (1, 2), (3, 4)]
    assert switches.order == 2


def _selftest_elements():
    rng = random.Random(20260814)
    for generators, degree in (
        ([], 3),
        ([[(1, 2)]], 4),
        ([[(1, 2, 3)]], 4),
    ):
        group = closure_enumerate(
            [from_cycles(c, degree) for c in generators], degree
        )
        for _ in range(12):
            a = random_element(group, rng, 5)
            b = random_element(group, rng, 5)
            c = random_element(group, rng, 5)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, a.inverse()) == identity_element(group)
            word = []
            for _ in range(16):
                allowed = [
                    x for x in range(degree) if not word or x != word[-1]
                ]
                word.append(rng.choice(allowed))
            word = tuple(word)
            image = a.apply_to_prefix(word)
            assert a.inverse().apply_to_prefix(image) == word
            assert compose(b, a).apply_to_prefix(word) == b.apply_to_prefix(
                image
            )


def _selftest_signs():
    from .abelianization import vf_abelianization

    group = closure_enumerate(
        [from_cycles([(1, 2), (3, 4)], 7), from_cycles([(5, 6)], 7)]
    )
    ab = vf_abelianization([len(o) for o in group.orbits])
    assert ab.invariant_factors == (2, 2, 10)
    assert ab.describe() == "(Z/2)^3"
    assert 2 ** ab.two_torsion_rank == 8
    passing = []
    orbits = group.orbits
    for mask in range(1, 1 << len(orbits)):
        subset = tuple(
            sorted(
                c
                for k, orbit in enumerate(orbits)
                if mask >> k & 1
                for c in orbit
            )
        )
        if is_sign_well_defined(group, subset, target="nf"):
            passing.append(subset)
    assert passing == [(1, 2, 3, 4)]
    element, expanded = find_sign_violation(group, (1, 2, 3, 4, 5, 6, 0))
    del element, expanded


def _selftest_abelianization():
    from .abelianization import IntMatrix, smith_normal_form, vf_abelianization
    from .covolume import compositions

    rng = random.Random(7)
    for _ in range(20):
        entries = [
            [rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)
        ]
        smith_normal_form(IntMatrix(entries))
    for total in range(3, 7):
        for sizes in compositions(total):
            # the closed form against the Smith form of K = 2I - s 1^t
            rows = [[2 * (i == j) - s for j in range(len(sizes))] for i, s in enumerate(sizes)]
            factors = smith_normal_form(IntMatrix(rows))[1].invariant_factors
            assert vf_abelianization(sizes).invariant_factors == tuple(f for f in factors if f != 1)


def _selftest_shift_bridge():
    from .shift_model import (
        Omega,
        bisection_to_element,
        compose_bisections,
        element_to_bisection,
        identity_bisection,
        random_bisection,
        sft_graph_for_group,
    )

    rng = random.Random(99)
    for generators, degree in (([[(1, 2, 3)]], 4), ([[(1, 2)]], 3)):
        group = closure_enumerate([from_cycles(c, degree) for c in generators])
        omega = Omega(sft_graph_for_group(group), group)
        omega.check_depth(3)
        assert bisection_to_element(
            identity_bisection(omega.graph), omega
        ).is_identity()
        for _ in range(8):
            e = random_element(group, rng, 5)
            assert bisection_to_element(element_to_bisection(e, omega), omega) == e
            b1 = random_bisection(omega, rng, 4)
            b2 = random_bisection(omega, rng, 4)
            path_side = compose_bisections(b1, b2, omega.graph)
            element_side = compose(
                bisection_to_element(b1, omega), bisection_to_element(b2, omega)
            )
            assert bisection_to_element(path_side, omega) == element_side


def _selftest_witnesses():
    group = closure_enumerate([from_cycles([(1, 2)], 3)])
    g, h = purely_infinite_witness(group, [(0,), (1, 0)])
    assert not g.is_identity() and not h.is_identity()


def _selftest_covolume():
    from .covolume import (
        ball_counts,
        covolume_chain,
        dominant_coefficient_compare,
        integer_partitions,
        single_switch_covolume,
    )

    for d in range(2, 7):
        for parts in integer_partitions(d + 1):
            dominant_coefficient_compare(parts)  # asserts the expected verdict
    for d, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        sizes = tuple([1] * (d - 1) + [2])
        chain = covolume_chain(sizes, n, 2)
        assert chain.index_bound == single_switch_covolume(d, n, 2)
    ball_counts((1, 3, 2), 4)
    try:
        covolume_chain((1, 2), 2, 7)
    except ValueError:
        pass
    else:
        raise AssertionError("non-divisor order must be rejected")


def _selftest_estimates():
    from .covolume import appendix_counts, verify_prime_windows, verify_xi_claims

    report = verify_xi_claims(12)
    assert report.ok, (report.failures, report.undecided)
    primes = verify_prime_windows(20000)
    assert primes.always_at_least_three
    for d in range(2, 5):
        for k in range(2, 5):
            for n in range(1, 5):
                counts = appendix_counts(d, k, n)
                assert counts.bound_ok


def cmd_selftest(args):
    del args
    sections = (
        ("permutation groups", _selftest_permutations),
        ("element algebra", _selftest_elements),
        ("signs", _selftest_signs),
        ("abelianization", _selftest_abelianization),
        ("shift bridge", _selftest_shift_bridge),
        ("boundary witnesses", _selftest_witnesses),
        ("covolume", _selftest_covolume),
        ("estimates", _selftest_estimates),
    )
    failures = 0
    for name, thunk in sections:
        if not _section(name, thunk):
            failures += 1
    if failures:
        print("selftest: %d section(s) failed" % failures)
        return 1
    print("selftest: all %d sections passed" % len(sections))
    return 0


# -- parser ----------------------------------------------------------------------


@cache
def build_parser():
    """The command line parser, built on first use and kept for the process:
    it holds no per-request state, since ``parse_args`` returns a fresh
    namespace and looks up ``sys.stdout`` and ``sys.stderr`` when it writes."""
    parser = argparse.ArgumentParser(
        prog="coloured-neretin",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compose", help="compose two elements (second file applied first)"
    )
    p.add_argument("first", help="JSON file of the outer element")
    p.add_argument("second", help="JSON file of the inner element")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("invert", help="invert an element")
    p.add_argument("element")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("reduce", help="reduce an element to its normal form")
    p.add_argument("element")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sign", help="sign of an element on a colour subset")
    p.add_argument("element")
    p.add_argument(
        "--subset",
        type=_subset_arg,
        required=True,
        help="comma-separated colour subset, e.g. 1,2,3,4",
    )
    p.add_argument(
        "--mode",
        choices=("class", "honest"),
        default="class",
        help="class: require well-definedness on the reduced form; "
        "honest: permutation parity of this representative",
    )
    p.add_argument(
        "--target",
        choices=("vf", "nf"),
        default="vf",
        help="well-definedness on the dense subgroup (vf) or on its closure (nf)",
    )
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser(
        "abelianization",
        help="abelianization of the dense subgroup from orbit sizes",
    )
    p.add_argument("--orbits", type=_orbit_sizes_arg, required=True)
    p.set_defaults(func=cmd_abelianization)

    p = sub.add_parser("graph", help="orbit graph of a colour structure")
    p.add_argument("--orbits", type=_orbit_sizes_arg, required=True)
    p.add_argument("--dot", help="write a Graphviz DOT file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser(
        "covolume-table", help="exact ball counts and growth comparison table"
    )
    p.add_argument("--orbits", type=_orbit_sizes_arg, required=True)
    p.add_argument("--max-n", type=_int_at_least(1), default=6)
    p.add_argument(
        "--csv",
        help="write the table as CSV (a cell can pass the csv module's default "
        "field limit of 131072 characters: see csv.field_size_limit)",
    )
    p.add_argument(
        "--gamma-order",
        type=_int_at_least(1),
        help="also print the index lower bound for a sphere action of this order",
    )
    p.set_defaults(func=cmd_covolume_table)

    p = sub.add_parser(
        "verify-smallest",
        help="exact + interval check of the dominant-coefficient inequality",
    )
    p.add_argument("--max-d", type=_int_at_least(2), default=12)
    p.set_defaults(func=cmd_verify_smallest)

    p = sub.add_parser(
        "primes-window", help="count primes in (m/2, m] for m up to a bound"
    )
    p.add_argument("--max-m", type=_int_at_least(17), default=100000)
    p.set_defaults(func=cmd_primes_window)

    p = sub.add_parser(
        "appendix-counts",
        help="ball counts for the k-rooted d-regular variant and bound checks",
    )
    p.add_argument("--d", type=_int_at_least(2), required=True)
    p.add_argument("--k", type=_int_at_least(2), required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.set_defaults(func=cmd_appendix_counts)

    p = sub.add_parser("selftest", help="run the bundled verification suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args) or 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
