"""Record the per-unit digests that ``run.py`` checks, in ``digests/``.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record.py --workload sim-churn --seeds 0-20,4242

It records the workload's first ``min_units`` units, which every untraced
run executes. A digest covers what a unit decides (assignments, task
timeline, completion, timing-free result files) and never host times, so it
holds on any machine that rounds floating point the same way. Re-record only
when a change alters outputs on purpose, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json

import run
from hostspeed import HostSpeed


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,4242")
    args = parser.parse_args()

    run.qflow = run.import_qflow()
    wl = run.workloads()[args.workload]
    path = run.digest_path(wl.name)
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for seed in parse_seeds(args.seeds):
        digests[str(seed)] = [run.run_pass(wl, seed, index, None, HostSpeed()).digest for index in range(wl.min_units)]
        print(wl.name, seed, digests[str(seed)], flush=True)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
