"""Which functions of the package do its users reach?

    python3 tools/census.py

Runs, under ``sys.setprofile``, everything that uses the package outside
the test suite: every CLI subcommand on small inputs, ``reduce`` on each
element file of ``element_error_cases`` and the commands of ``REFUSED``
(each must exit 1), the four demos, and two ops of each benchmark
workload (``bench/workloads.py``).
Then prints each function or method defined in ``src/coloured_neretin`` (nested
functions included; class bodies, comprehensions and lambdas left out) that none of
them called, as ``module.qualname (line N)``.  Methods that
``collections.namedtuple`` generates have no source and are not listed.
Last come the line count of each module of the package and their total, so
that the net ``src/`` line delta of a change is the difference of two runs.  Files the commands write go
to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "coloured_neretin")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from coloured_neretin import cli  # noqa: E402

SEED = 23
DEMOS = sorted(
    os.path.join(ROOT, "demos", name)
    for name in os.listdir(os.path.join(ROOT, "demos"))
    if name.endswith(".py")
)
# commands the CLI refuses up front, for the size of what they would build
REFUSED = [["graph", "--orbits", "1,2,99997"],
           ["appendix-counts", "--d", "50", "--k", "50", "--n", "50"]]


def _name(code):
    return getattr(code, "co_qualname", code.co_name)  # co_qualname: Python 3.11+


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, _name(code)


def defined_functions():
    """``_key`` -> ``module.qualname`` of every function in the package."""
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, name)
        with open(path) as handle:
            stack = [compile(handle.read(), path, "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
            # class bodies run at import and are not functions
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found[_key(code)] = "%s.%s" % (name[:-3], _name(code))
    return found


def module_lines():
    """Module file name -> its number of lines, in file name order."""
    lines = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as handle:
                lines[name] = sum(1 for _ in handle)
    return lines


def cli_commands(workdir, first, second):
    """Argument lists for every subcommand; ``first`` and ``second`` are
    element files over the four-orbit colour group of the ``deep``
    workload, where the union {1, 2, 3, 4} has a well-defined sign."""
    return [
        ["compose", first, second],
        ["invert", first],
        ["reduce", first],
        ["sign", first, "--subset", "1,2,3,4", "--mode", "class"],
        ["sign", first, "--subset", "1,2,3,4", "--mode", "honest", "--target", "nf"],
        ["abelianization", "--orbits", "1,2,2,2"],
        ["graph", "--orbits", "1,3,2", "--dot", os.path.join(workdir, "g.dot")],
        ["covolume-table", "--orbits", "1,2", "--max-n", "3", "--gamma-order", "2",
         "--csv", os.path.join(workdir, "t.csv")],
        ["verify-smallest", "--max-d", "5"],
        ["primes-window", "--max-m", "200"],
        ["appendix-counts", "--d", "2", "--k", "3", "--n", "2"],
        ["selftest"],
    ]


def element_error_cases(workdir):
    """``reduce`` calls on element files the CLI refuses, one file per
    defect, written to ``workdir``.  All but ``huge-d`` are made from
    ``good``, an element over F = <(1 2 3)> (orbits {0}, {1, 2, 3})."""
    good = {"d": 3, "F_generators": ["(1 2 3)"],
            "domain": [[0], [1], [2], [3, 0], [3, 1], [3, 2]],
            "range": [[0], [1, 0], [1, 2], [1, 3], [2], [3]], "kappa": [0, 2, 4, 1, 3, 5]}
    domain, range_ = good["domain"], good["range"]
    defects = [
        ("not-an-object", [good]),
        ("missing-field", {k: v for k, v in good.items() if k != "kappa"}),
        ("bad-d", dict(good, d=1)),
        ("bad-generators", dict(good, F_generators=["(1 9)"])),
        ("domain-not-a-list", dict(good, domain="0 1 2 30 31 32")),
        ("non-int-letter", dict(good, domain=domain[:4] + [[3, 1.0], [3, 2]])),
        ("incomplete-domain", dict(good, domain=domain[:-1])),
        ("leaf-with-descendants", dict(good, domain=domain[:3] + [[3]] + domain[4:])),
        ("repeated-leaf", dict(good, domain=domain[:-1] + [[3, 1]])),
        ("incomplete-range", dict(good, range=range_[:-1])),
        ("kappa-not-a-list", dict(good, kappa="0 2 4 1 3 5")),
        ("non-int-kappa", dict(good, kappa=[0, 2, 4, 1, 3, 5.0])),
        ("kappa-out-of-range", dict(good, kappa=[0, 2, 4, 1, 3, 6])),
        ("duplicate-kappa", dict(good, kappa=[0, 2, 4, 1, 3, 3])),
        ("short-kappa", dict(good, kappa=[0, 2, 4, 1, 3])),
        ("size-mismatch", dict(good, range=[[0], [1], [2], [3]])),  # kappa fits the domain
        ("orbit-violation", dict(good, kappa=[2, 0, 4, 1, 3, 5])),  # (0) -> (1, 2)
        ("huge-d", {"d": 10**6, "F_generators": [], "domain": [[0], [1], [2]],
                    "range": [[0], [1], [2]], "kappa": [0, 1, 2]}),
        ("bad-generators-and-range", dict(good, F_generators=["(1 9)"], range=range_[:-1])),
    ]
    commands = []
    for name, data in defects:
        path = os.path.join(workdir, "bad-%s.json" % name)
        with open(path, "w") as handle:
            json.dump(data, handle)
        commands.append(["reduce", path])
    return commands


def run_users(workdir):
    """Everything the census counts, with stdout discarded."""
    made = {}
    for name, workload in workloads.WORKLOADS.items():
        path = os.path.join(workdir, name)
        os.mkdir(path)
        made[name] = workload(SEED, 2, path)
    first, second = inputs.write_pairs(made["deep"].pairs[:1], workdir)[0]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in cli_commands(workdir, first, second):
            status = cli.main(argv)
            if status != 0:
                raise SystemExit("census: %r exited with %d" % (argv, status))
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in element_error_cases(workdir) + REFUSED:
                status = cli.main(argv)
                if status != 1:
                    raise SystemExit("census: %r exited with %d, not 1" % (argv, status))
        for demo in DEMOS:
            runpy.run_path(demo, run_name="__main__")
        for work in made.values():
            work.setup()
            for i in range(2):
                work.op(i)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    defined = defined_functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    with tempfile.TemporaryDirectory() as workdir:
        sys.setprofile(profile)
        try:
            run_users(workdir)
        finally:
            sys.setprofile(None)
    reached = {_key(code) for code in reached}
    unreached = sorted(
        (key[0], key[1], name) for key, name in defined.items() if key not in reached
    )
    print("%d functions defined, %d never reached:" % (len(defined), len(unreached)))
    for _, line, name in unreached:
        print("  %s (line %d)" % (name, line))
    lines = module_lines()
    print("lines per module:")
    for name, count in lines.items():
        print("  %s %d" % (name, count))
    print("  total %d" % sum(lines.values()))


if __name__ == "__main__":
    main()
