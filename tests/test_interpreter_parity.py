"""The output pins hold under every CPython the package supports.

``pyproject.toml`` requires Python 3.11 or later. Each test runs all the
pinned configs of ``test_output_pins.py`` in a subprocess under one other
``python3.X`` found on ``PATH`` and compares every digest with the pins. An
interpreter that is not on ``PATH``, or that fails to start (a version
manager's shim for a version it does not serve), is skipped; so is the one
running the tests, which ``test_output_pins.py`` covers in process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .test_output_pins import PINS_PATH

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MINORS = range(11, 16)
# imports the pin configs from the path entries it is given and prints their digests as JSON
SCRIPT = "import json, sys; sys.path[:0] = sys.argv[1:]; import test_output_pins; print(json.dumps(test_output_pins.computed()))"


@pytest.mark.parametrize("minor", MINORS, ids=[f"3.{minor}" for minor in MINORS])
def test_pins_hold_under_each_interpreter_on_path(minor):
    if sys.version_info[:2] == (3, minor):
        pytest.skip("the interpreter running the tests")
    name = f"python3.{minor}"
    if (exe := shutil.which(name)) is None:
        pytest.skip(f"no {name} on PATH")
    probe = subprocess.run([exe, "-I", "-c", "import sys; print(*sys.version_info[:2])"], capture_output=True, text=True)
    if probe.returncode != 0 or probe.stdout.split() != ["3", str(minor)]:
        said = (probe.stderr or probe.stdout).strip().partition("\n")[0]
        pytest.skip(f"{name} does not start: {said}")
    run = subprocess.run([exe, "-I", "-c", SCRIPT, str(SRC), str(TESTS)], capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == json.loads(PINS_PATH.read_text(encoding="utf-8"))
