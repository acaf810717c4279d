"""qflow runs on the standard library alone, in one process, and reads no
environment.

The benchmark bounds ``peak_rss_mb`` at 15% over the parent commit. On
CPython 3.11 the peak of a process that imports qflow is about 16.6 MB.
Importing numpy adds about 12 MB to it (28.5 MB), which alone would raise
lpmr-search's peak of about 23.7 MB by half. ``multiprocessing``, which a
process pool pulls in, added about 2.6 MB (19.2 MB) and 10 ms to the
import. So the allocators stay pure Python, repetitions run in one
process, and a change that pulls in either module, directly or through a
dependency, fails here first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["numpy", "multiprocessing"])
def test_import_does_not_load(module):
    probe = f"import sys, qflow; print({module!r} in sys.modules)"
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


def test_no_module_reads_the_environment():
    # the recorded config is a run's only input: an environment lookup would
    # be a hidden one that no summary.json records
    readers = [
        path.name
        for path in sorted((ROOT / "src" / "qflow").rglob("*.py"))
        if "os.environ" in (text := path.read_text(encoding="utf-8")) or "getenv" in text
    ]
    assert readers == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
