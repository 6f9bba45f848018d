"""One transcript of what the package shows its users.

    python3 tools/outputs.py > transcript.txt

Runs, each in its own interpreter, every CLI command of
``tools/census.py``, the four demos, the ``sign`` error cases, the
element files of ``census.element_error_cases`` and the commands of
``census.REFUSED``, and prints for each its stdout, stderr and exit
status.  The element files are the first ``deep`` input pair of
``bench/inputs.py`` for seed 23.  The temporary directory is printed as
``<tmp>`` and ``selftest`` timings as ``(?s)``, so two checkouts show
their users the same output exactly when their transcripts are equal:

    diff <(python3 tools/outputs.py) <(python3 ../other-checkout/tools/outputs.py)
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile

from census import DEMOS, REFUSED, ROOT, SEED, cli_commands, element_error_cases, inputs

TIMING = re.compile(r"\(\d+\.\d+s\)")


def sign_error_cases(first):
    """``sign`` calls the CLI refuses, each for a different reason."""
    return [
        ["sign", first, "--subset", "1,3"],  # not invariant
        ["sign", first, "--subset", "5,6", "--target", "nf"],  # not well defined
        ["sign", first, "--subset", "0,1,2"],  # odd size
        ["sign", first, "--subset", "1,2,9"],  # out of range
        ["sign", first, "--subset=-1,0"],  # negative
        ["sign", first, "--subset", "x,y"],  # not colours
    ]


def run(argv, workdir):
    """The masked transcript entry of one command line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=workdir)
    shown = [" ".join(argv[1:]), "--- stdout", done.stdout, "--- stderr", done.stderr,
             "--- exit %d" % done.returncode, ""]
    text = "\n".join(shown).replace(workdir, "<tmp>").replace(ROOT, "<repo>")
    return TIMING.sub("(?s)", text) if "selftest" in argv else text


def main():
    with tempfile.TemporaryDirectory() as workdir:
        workdir = os.path.realpath(workdir)
        first, second = inputs.write_pairs(inputs.deep_inputs(SEED, 1), workdir)[0]
        cli = [sys.executable, "-m", "coloured_neretin.cli"]
        lines = [cli + argv for argv in cli_commands(workdir, first, second)]
        lines += [[sys.executable, demo] for demo in DEMOS]
        lines += [cli + argv for argv in sign_error_cases(first)]
        lines += [cli + argv for argv in element_error_cases(workdir) + REFUSED]
        for argv in lines:
            sys.stdout.write(run(argv, workdir))


if __name__ == "__main__":
    main()
