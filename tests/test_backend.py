"""Rationals are the stdlib ``fractions.Fraction``.  There is no backend
switch: the old DIFFALG_RAT_BACKEND variable, whatever its value, changes
neither the type nor any output."""

import json
import os
import subprocess
import sys
from fractions import Fraction

from diffalg import numcore


def _run_with_backend(backend: str | None) -> dict:
    env = dict(os.environ)
    env.pop("DIFFALG_RAT_BACKEND", None)
    if backend is not None:
        env["DIFFALG_RAT_BACKEND"] = backend
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "diffalg.cli",
            "standard-form",
            "--case",
            "shift",
            "--f",
            "1/x + 1/(x+2)",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fraction_backend_matches_default():
    default = _run_with_backend(None)
    for value in ("fraction", "gmpy2"):
        other = _run_with_backend(value)
        other.pop("timing_ms")
        assert other == {k: v for k, v in default.items() if k != "timing_ms"}
    assert default["certificate"]["standard_part"] == "(2)/(x)"


def test_backend_selection_honoured():
    assert numcore.Rat is Fraction
    code = (
        "import os; os.environ['DIFFALG_RAT_BACKEND']='gmpy2';"
        "from diffalg.numcore import Rat; from fractions import Fraction;"
        "print(Rat is Fraction)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.strip() == "True", proc.stderr
