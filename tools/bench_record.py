"""Record the benchmark level of this checkout on one workload in
``BENCH_<W>.json`` at the repository root.

Usage::

    python tools/bench_record.py W

For each of the seeds 1-10 it runs this checkout's ``perfbench/run.py
--workload W --seed S --seconds T --trace 0``, ``T`` being
``BENCHMARK.json``'s ``run_seconds``, by ``bench_pairs.run_tree``, which stops
the script with exit status 1 at a run that is not ``correct: true``, so
that nothing is written. The file then holds, per end-to-end metric of
``BENCHMARK.json`` and per unscaled host time of ``bench_pairs.RAW``
(``raw <metric>``), the median and quartiles over the seeds; the commit
(``git rev-parse HEAD``, and whether tracked files differ from it); the
platform, CPU count and Python version; and the seeds and seconds per run.
Its keys are sorted and it keeps no time of day, so identical runs write
identical bytes. The seeds and seconds are fixed so that every record can
be compared with the others. It records a level, not a gain: a claim still
needs ``bench_pairs.py`` pairs against the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from bench_pairs import RAW, quartiles, run_tree

ROOT = Path(__file__).resolve().parents[1]
SEEDS = list(range(1, 11))


def commit(root: Path) -> dict:
    """The checkout's ``HEAD`` and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()

    return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def record(root: Path, workload: str) -> dict:
    """The file's content for ``workload`` run at ``SEEDS`` in ``root``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]] + [f"raw {name}" for name in RAW]
    seconds = spec["run_seconds"]
    runs = [run_tree(root, workload, seed, seconds) for seed in SEEDS]
    metrics = {}
    for name in names:
        q1, median, q3 = quartiles([run[name] for run in runs])
        metrics[name] = {"median": median, "q1": q1, "q3": q3}
    return {
        "workload": workload, "metrics": metrics, "seeds": SEEDS, "seconds": seconds, "commit": commit(root),
        "platform": platform.platform(), "cpu_count": os.cpu_count(), "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    content = record(ROOT, args.workload)
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
