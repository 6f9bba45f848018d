"""The package namespace imports a module on first use, and each CLI
command loads only the modules it runs.

What a process loads is read in a fresh interpreter, since the test
session itself has loaded the whole package."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import coloured_neretin as cn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "compose_golden.json")
ELEMENT_MODULES = {"cli", "almost_automorphisms", "permutations", "tree"}

# modules outside the package that the tests watch: mpmath, which no module
# imports, and the standard modules that only the numeric commands need; a
# bare interpreter that imports json, argparse and random loads none of them
WATCHED = {"mpmath", "dataclasses", "inspect", "csv", "decimal"}

# imports the package and, given an argument list, runs the CLI on it; then
# prints the exit status and the package's modules that are loaded, with
# each watched module that is loaded
PROBE = """
import contextlib, io, json, sys
import coloured_neretin
argv, status = json.loads(sys.argv[1]), 0
if argv is not None:
    from coloured_neretin.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
loaded = [name.split(".")[1] for name in sys.modules if name.startswith("coloured_neretin.")]
print(json.dumps([status, loaded + [name for name in %r if name in sys.modules]]))
""" % sorted(WATCHED)


def loaded_after(argv):
    """(exit status, the set of loaded modules of the package and of
    ``WATCHED``) after ``main(argv)`` in a fresh interpreter; ``argv`` None
    only imports the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    status, loaded = json.loads(result.stdout.splitlines()[-1])
    return status, set(loaded)


@pytest.fixture(scope="module")
def element_files(tmp_path_factory):
    with open(GOLDEN) as handle:
        case = json.load(handle)["four_orbit/0"]
    paths = []
    for key in ("compose", "inverse"):
        path = tmp_path_factory.mktemp("elements") / ("%s.json" % key)
        path.write_text(json.dumps(case[key]))
        paths.append(str(path))
    return paths


def test_importing_the_package_loads_no_module():
    assert loaded_after(None) == (0, set())


def test_element_commands_load_only_the_element_modules(element_files):
    # and none of the watched modules
    first, second = element_files
    for argv in (
        ["compose", first, second],
        ["invert", first],
        ["reduce", first],
        ["sign", first, "--subset", "1,2,3,4"],
    ):
        assert loaded_after(argv) == (0, ELEMENT_MODULES), argv


def test_no_command_loads_mpmath():
    numeric = {"abelianization", "covolume", "intervals"}
    for argv, modules in (
        (["covolume-table", "--orbits", "1,2", "--max-n", "3"], numeric),
        (["verify-smallest", "--max-d", "3"], numeric),
        (["selftest"], numeric | {"shift_model"}),
    ):
        status, loaded = loaded_after(argv)
        assert (status, loaded - WATCHED) == (0, ELEMENT_MODULES | modules), argv
        assert "mpmath" not in loaded, argv
    for path in sorted(os.listdir(os.path.join(ROOT, "src", "coloured_neretin"))):
        if path.endswith(".py"):
            with open(os.path.join(ROOT, "src", "coloured_neretin", path)) as handle:
                assert "mpmath" not in handle.read(), path


def test_each_public_name_is_the_object_of_its_home_module():
    for name in cn.__all__:
        value = getattr(cn, name)
        if isinstance(value, type(cn)):
            assert value is sys.modules["coloured_neretin." + name]
        else:
            home = importlib.import_module(value.__module__)
            assert home.__name__.startswith("coloured_neretin.")
            assert getattr(home, name) is value, name
    assert set(cn.__all__) <= set(dir(cn))


def test_a_name_is_looked_up_in_its_home_module_at_every_use(monkeypatch):
    from coloured_neretin import almost_automorphisms

    assert cn.compose is almost_automorphisms.compose
    assert "compose" not in vars(cn)  # never stored in the package

    def stand_in(outer, inner):
        return None

    monkeypatch.setattr(almost_automorphisms, "compose", stand_in)
    assert cn.compose is stand_in
    monkeypatch.undo()
    assert cn.compose is almost_automorphisms.compose


def test_an_unknown_name_raises_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'coloured_neretin' has no attribute 'no_such_name'"):
        cn.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from coloured_neretin import no_such_name", {})
