"""Golden reports: every command below must print its stored JSON byte for byte.

The run files and reports live in ``tests/golden/``.  The systems are the
benchmark's (with its canonical vertex and edge names), both frontier rungs,
u1 square b3 (2,401 one-dimensional blocks), su2 square b1 at its default
``n_max`` of 256, far past the largest minimal-polynomial degree 3 of its
generators, the U(1) loop, two quadrature commands (one at the default
``n_max`` of su2 triangle b1) and one coarse command, a ``spectrum`` command
on U(1) and on SU(2) (whose levels hold 1, 3, 3 and 1 blocks), and a
``decompose`` command on U(1) and on SU(2).  Each runs with
``RuntimeWarning`` raised as an error, so a report is never reached through
an overflow or an invalid value.  A change that is meant to leave every
report as it is keeps these files untouched; one that changes a report on
purpose regenerates them with

    PYTHONPATH=src python3 -m tests.test_golden

and says why in its description.
"""

import contextlib
import io
import warnings
from pathlib import Path

import pytest

from gaugereduce.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# report name -> (subcommand, system, extra flags); every one of them passes
COMMANDS = {
    "verify-u1-triangle-b2": ("verify", "u1-triangle-b2", ()),
    "verify-u1-triangle-b2-coarse": ("verify", "u1-triangle-b2", ("--coarse",)),
    "verify-u1-square-b1": ("verify", "u1-square-b1", ()),
    "verify-su2-loop-b4": ("verify", "su2-loop-b4", ()),
    "verify-su2-edge-b3": ("verify", "su2-edge-b3", ()),
    "verify-su2-parallel-b1": ("verify", "su2-parallel-b1", ()),
    "verify-su2-edge-b1-quad": ("verify", "su2-edge-b1", ("--method", "quad", "--nmax", "2")),
    "verify-u1-triangle-b3": ("verify", "u1-triangle-b3", ()),
    "verify-su2-triangle-b1": ("verify", "su2-triangle-b1", ()),
    "verify-su2-triangle-b1-quad": ("verify", "su2-triangle-b1", ("--method", "quad")),
    "verify-su2-square-b1": ("verify", "su2-square-b1", ()),
    "verify-u1-square-b3": ("verify", "u1-square-b3", ()),
    "verify-u1-loop-b1": ("verify", "u1-loop-b1", ()),
    "spectrum-u1-triangle-b2": ("spectrum", "u1-triangle-b2", ()),
    "spectrum-su2-triangle-b1": ("spectrum", "su2-triangle-b1", ()),
    "decompose-u1-triangle-b2": ("decompose", "u1-triangle-b2", ()),
    "decompose-su2-triangle-b1": ("decompose", "su2-triangle-b1", ()),
}


def run(name: str) -> tuple[int, str]:
    """Exit code and standard output of one command, run in this process."""
    command, system, flags = COMMANDS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", str(GOLDEN / f"{system}.cfg"), *flags])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    code, out = run(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in sorted(COMMANDS):
        code, out = run(name)
        (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")
        print(f"{name}: exit {code}")
