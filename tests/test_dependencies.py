"""qflow runs on the standard library alone.

The benchmark bounds ``peak_rss_mb`` at 15% over the parent commit, and
importing numpy adds about 12 MB of resident memory (the peak of a process
that imports qflow grows from about 18 MB to 30 MB on CPython 3.11), which
alone would raise lpmr-search's peak of about 25.6 MB by some 47%. So the
allocators stay pure Python, and a change that pulls in numpy, directly or
through a dependency, fails here first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_numpy():
    probe = "import sys, qflow; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
