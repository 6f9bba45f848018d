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

# imports the package and, given an argument list, runs the CLI on it; then
# prints the exit status and the package's modules that are loaded, with
# "mpmath" added when mpmath is
PROBE = """
import contextlib, io, json, sys
import coloured_neretin
argv, status = json.loads(sys.argv[1]), 0
if argv is not None:
    from coloured_neretin.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
loaded = [name.split(".")[1] for name in sys.modules if name.startswith("coloured_neretin.")]
print(json.dumps([status, loaded + ["mpmath"] * ("mpmath" in sys.modules)]))
"""


def loaded_after(argv):
    """(exit status, the set of loaded modules) after ``main(argv)`` in a
    fresh interpreter; ``argv`` None only imports the package."""
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
    first, second = element_files
    for argv in (
        ["compose", first, second],
        ["invert", first],
        ["reduce", first],
        ["sign", first, "--subset", "1,2,3,4"],
    ):
        assert loaded_after(argv) == (0, ELEMENT_MODULES), argv


def test_only_the_interval_commands_load_mpmath():
    numeric = {"abelianization", "covolume", "intervals"}
    argv = ["covolume-table", "--orbits", "1,2", "--max-n", "3"]
    assert loaded_after(argv) == (0, ELEMENT_MODULES | numeric)
    argv = ["verify-smallest", "--max-d", "3"]
    assert loaded_after(argv) == (0, ELEMENT_MODULES | numeric | {"mpmath"})


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
