"""Run the benchmark on two checkouts in alternating pairs and summarise
the end-to-end metrics.

Usage::

    python tools/bench_pairs.py BASE NEW --workload W [--seeds 1-10]

``BASE`` and ``NEW`` are checkout roots. For each seed, one pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each checkout, with that checkout as the working directory, so that each
side benchmarks its own ``src``. ``T`` is the base checkout's
``BENCHMARK.json`` ``run_seconds``, as in ``bench_record.py``: a run of
other seconds can stop at another unit count, a different run. The side that runs first alternates from
pair to pair, starting with ``BASE``, because the process that runs second
in a pair tends to read slower. A run whose result is not ``correct: true``
stops the script with exit status 1.

The script prints each pair, then per metric of ``BENCHMARK.json``'s
``end_to_end`` list: each side's median and quartiles, the change of the
median, the pairs ``NEW`` won (better in that metric's direction; ties win
for neither side), those wins split by which side ran first, and whether
the gain rule holds. The rule: ``NEW`` wins at least nine tenths of the
pairs, and its median is better than ``BASE``'s by more than the distance
between ``BASE``'s quartiles. Beside ``wall_s``, ``decision_ms_p50`` and
``decision_ms_p90`` it prints the same summary of their unscaled host times
(``raw <metric>``, read from the info line's ``raw_host_seconds``), so that a
change can be judged apart from the host-speed scale.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

GAIN_SHARE = 0.9  # the share of pairs the new side must win for a gain
RAW = ("wall_s", "decision_ms_p50", "decision_ms_p90")  # the metrics the info line also gives unscaled


def parse_seeds(text: str) -> list[int]:
    """``"1-10"``, ``"4242"`` or ``"1,3,5-7"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def summarise(pairs: list[dict], directions: dict[str, str]) -> list[dict]:
    """One row per metric of ``directions`` (name -> ``"lower"`` or
    ``"higher"``, the better direction) over ``pairs``, each pair a dict
    with ``"first"`` (``"base"`` or ``"new"``) and each side's metric
    values under ``"base"`` and ``"new"``."""
    rows = []
    for name, better in directions.items():
        sign = -1.0 if better == "lower" else 1.0  # a positive signed gap is a gain
        base = [p["base"][name] for p in pairs]
        new = [p["new"][name] for p in pairs]
        wins = {"base": 0, "new": 0}  # by the side that ran first
        runs = {"base": 0, "new": 0}
        for p, b, n in zip(pairs, base, new):
            runs[p["first"]] += 1
            wins[p["first"]] += sign * (n - b) > 0
        base_q, new_q = quartiles(base), quartiles(new)
        won = wins["base"] + wins["new"]
        gap = sign * (new_q[1] - base_q[1])
        rows.append({
            "metric": name,
            "base": base_q,
            "new": new_q,
            "change_pct": 100.0 * (new_q[1] / base_q[1] - 1.0) if base_q[1] else 0.0,
            "wins": won,
            "pairs": len(pairs),
            "wins_by_first": wins,
            "pairs_by_first": runs,
            "gain": won >= GAIN_SHARE * len(pairs) and gap > base_q[2] - base_q[0],
        })
    return rows


def format_row(row: dict, width: int = 0) -> str:
    """A :func:`summarise` row as one line, its name padded to ``width``."""
    (b1, b2, b3), (n1, n2, n3) = row["base"], row["new"]
    wins, runs = row["wins_by_first"], row["pairs_by_first"]
    return (
        f"{row['metric']:{width}}  base {b2:.4g} [{b1:.4g}, {b3:.4g}]  new {n2:.4g} [{n1:.4g}, {n3:.4g}]  "
        f"{row['change_pct']:+.1f}%  won {row['wins']} of {row['pairs']} "
        f"(base first {wins['base']} of {runs['base']}, new first {wins['new']} of {runs['new']})  "
        f"gain rule {'holds' if row['gain'] else 'fails'}"
    )


def format_rows(rows: list[dict]) -> list[str]:
    """The lines of :func:`summarise`'s rows, each name padded to the
    longest, so that the columns after it line up."""
    width = max(len(row["metric"]) for row in rows)
    return [format_row(row, width) for row in rows]


def with_raw(directions: dict[str, str]) -> dict[str, str]:
    """``directions`` with ``raw <metric>`` after each metric of ``RAW``, in
    the same direction."""
    out = {}
    for name, better in directions.items():
        out[name] = better
        if name in RAW:
            out[f"raw {name}"] = better
    return out


def parse_run(stdout: str) -> dict[str, float] | None:
    """The end-to-end metric values of a run's output, the result on its
    last line and the info line before it, with each metric of ``RAW`` also
    as ``raw <metric>``, its unscaled host time; None unless the result
    reads ``correct: true``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        return None
    raw = json.loads(lines[-2])["raw_host_seconds"]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return values | {f"raw {name}": raw[name] for name in RAW}


def run_pairs(labels: list[str], run: Callable[[str, int], dict[str, float]], shown: Sequence[str]) -> list[dict]:
    """One pair per label, the figures of ``run(side, i)`` for pair ``i``
    on each side, ``"base"`` and ``"new"``. The side that runs first
    alternates from pair to pair, ``"base"`` in pair 0. After each pair it
    prints the pair's label, the side that ran first and the figures
    ``shown``, base then new. It returns the pairs as :func:`summarise`
    reads them."""
    pairs = []
    for i, label in enumerate(labels):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(side, i)
        pairs.append(pair)
        cells = "  ".join(f"{name} {pair['base'][name]:.4g} -> {pair['new'][name]:.4g}" for name in shown)
        print(f"{label} ({order[0]} first): {cells}", flush=True)
    return pairs


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in ``tree``: its end-to-end metric values and raw host times."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    values = parse_run(done.stdout) if done.returncode == 0 else None
    if values is None:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"bench_pairs: {tree} seed {seed}: the run is not correct: true")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the parent checkout's root")
    parser.add_argument("new", type=Path, help="the changed checkout's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    directions = with_raw({metric["name"]: metric["better"] for metric in spec["end_to_end"]})
    pairs = run_pairs(
        [f"seed {seed}" for seed in args.seeds],
        lambda side, i: run_tree(getattr(args, side), args.workload, args.seeds[i], spec["run_seconds"]),
        RAW,
    )
    for line in format_rows(summarise(pairs, directions)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
