"""Time the allocators' decisions in process for two source trees, in
pairs.

Usage::

    python tools/preset_pairs.py BASE_SRC NEW_SRC [--pairs 10]

``BASE_SRC`` and ``NEW_SRC`` are directories that hold a ``qflow`` package
(a checkout's ``src``). Each pair runs one measuring process per tree,
alternating which tree goes first, by ``bench_pairs.run_pairs``. A
measuring process times, ``CALLS`` times each, the rows that no perfbench
workload measures:

* the LP-MR, SP-LR and SP-MR presets, each repetition built by
  ``repetition`` and run by ``simulate`` with its allocator wrapped in a
  timer (3 repetitions of 100 workflows each), soft_iso at the preset's
  thresholds (lplr-sparse times LP-LR's);
* the same runs of LP-MR, SP-MR and LP-LR with soft_iso under
  ``EXHAUSTIVE`` (stopping off, the path of ``skim``), rows named
  ``<scenario> exhaustive``;
* the many-class probe: three 20-node networks at link probability 0.9
  with node k's ``t1`` scaled by ``1 + 1e-6 * k``, so that every node is a
  calibration class of its own, each deciding 20 workflows of 4 (and of 5)
  tasks at the preset thresholds against a seeded random backlog, by calls
  of ``soft_iso`` through a timer;
* random_aware on LP-MR (3 repetitions of 100 workflows), row ``LP-MR
  random_aware``.

A call gives two figures per row, each lower-is-better: ``<row> mean``, the
summed time of its allocator calls over their number, in ms per decision,
and ``<row> p90``, the 90th percentile of those times in ms, each scaled
by the host-speed reference of ``perfbench/hostspeed.py``
(:func:`timed_row`) and kept unscaled beside as ``raw <figure>``. A
process reports the median of each over its calls.
The script prints each pair, then per figure ``bench_pairs``' summary:
each tree's median and quartiles, the change of the median, the pairs the
new tree won split by the side run first, and whether the gain rule holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from bench_pairs import format_rows, run_pairs, summarise

CALLS = 5  # the calls of each row per measuring process
SCENARIOS = ("LP-MR", "SP-LR", "SP-MR")
EXHAUSTIVE_SCENARIOS = ("LP-MR", "SP-MR", "LP-LR")
PROBE_SEEDS = (0, 1, 2)
PROBE_WORKFLOWS = 20


def probe_cases():
    """The many-class probe's decisions: (network, workflow, backlog) per
    task count, each network rebuilt with a calibration class per node."""
    import dataclasses
    import random

    from qflow.model import ResourceNetwork
    from qflow.profiles import load_profiles
    from qflow.workload import TopologySpec, WorkloadSpec, generate_catalog, generate_network, generate_workload

    profiles = load_profiles()
    cases = {}
    for tasks in (4, 5):
        decisions = []
        for seed in PROBE_SEEDS:
            drawn = generate_network(TopologySpec(node_count=20, link_probability=0.9, seed=seed), profiles)
            nodes = tuple(
                dataclasses.replace(node, t1=node.t1 * (1 + 1e-6 * k)) for k, node in enumerate(drawn.nodes)
            )
            network = ResourceNetwork(nodes, drawn.links)
            assert len(network.calibration_classes[0]) == len(nodes)
            catalog = generate_catalog(128, seed=seed)
            spec = WorkloadSpec(batch_size=PROBE_WORKFLOWS, tasks_per_group=tasks, tasks_per_group_min=tasks, seed=seed)
            rng = random.Random(seed)
            for wf in generate_workload(spec, catalog):
                decisions.append((network, wf, [rng.uniform(0.0, 2.0) for _ in nodes]))
        cases[f"20-class, {tasks} tasks"] = decisions
    return cases


def timed_row(row: str, host, run: Callable, *args) -> dict[str, float]:
    """Run ``run(timing, *args)``, which times the calls of
    ``timing(function)``'s wrapper, ``host.tick()`` before each, with a
    ``host`` sample just before and after the run. The row's figures:
    ``<row> mean``, in ms per call, and ``<row> p90``, in ms, each times
    ``host.scale`` over the row's span, then the same figures unscaled
    (``raw <figure>``)."""
    spent: list[float] = []

    def timing(function):
        def timed(*args, **kwargs):
            host.tick()
            started = time.perf_counter()
            outcome = function(*args, **kwargs)
            spent.append(time.perf_counter() - started)
            return outcome

        return timed

    t0 = time.perf_counter()
    host.sample()
    run(timing, *args)
    host.sample()
    scale = host.scale(t0, time.perf_counter())
    mean, p90 = 1e3 * sum(spent) / len(spent), 1e3 * statistics.quantiles(spent, n=10)[-1]
    return {f"{row} mean": mean * scale, f"raw {row} mean": mean, f"{row} p90": p90 * scale, f"raw {row} p90": p90}


def measure() -> dict[str, float]:
    """Each row's figures (:func:`timed_row`), each the median over
    ``CALLS`` calls, scaled by the ``HostSpeed`` of this tool's own
    checkout, so that both trees time the same kernel."""
    import dataclasses

    from qflow.allocators import EXHAUSTIVE, SoftIsoConfig, soft_iso
    from qflow.experiments import repetition, scenario_config, simulate
    from qflow.model import NetworkParams, WeightConfig

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))  # as running perfbench/run.py puts it
    from hostspeed import HostSpeed

    def scenario(name: str, algorithm: str, soft_config: dict):
        return scenario_config(name, algorithm, repetitions=3, workload={"batch_size": 100}, soft_config=soft_config)

    def simulated(timing, config):
        for index in range(config.repetitions):
            rep = repetition(config, index)
            simulate(config, rep._replace(allocator=timing(rep.allocator)))

    def decided(timing, decisions):
        timed, settings = timing(soft_iso), (WeightConfig(), NetworkParams(), SoftIsoConfig())
        for network, wf, backlog in decisions:
            timed(wf, network, *settings, backlog)

    runs = [(name, scenario(name, "soft_iso", {})) for name in SCENARIOS]
    runs += [(f"{name} exhaustive", scenario(name, "soft_iso", dataclasses.asdict(EXHAUSTIVE)))
             for name in EXHAUSTIVE_SCENARIOS]
    runs.append(("LP-MR random_aware", scenario("LP-MR", "random_aware", {})))
    host = HostSpeed()
    figures: dict[str, list[float]] = {}
    for _ in range(CALLS):
        rows = [timed_row(row, host, simulated, config) for row, config in runs]
        rows += [timed_row(name, host, decided, decisions) for name, decisions in probe_cases().items()]
        for row in rows:
            for name, value in row.items():
                figures.setdefault(name, []).append(value)
    return {name: statistics.median(values) for name, values in figures.items()}


def run_tree(src: Path) -> dict[str, float]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, __file__, "--measure"]
    done = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", type=Path, help="the reference tree's src directory")
    parser.add_argument("new", nargs="?", type=Path, help="the changed tree's src directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--measure", action="store_true", help="measure the qflow on PYTHONPATH and print JSON")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.base is None or args.new is None:
        parser.error("give the base and new src directories")
    pairs = run_pairs(
        [f"pair {i + 1}" for i in range(args.pairs)],
        lambda side, i: run_tree(getattr(args, side)),
        [f"{name} mean" for name in SCENARIOS],
    )
    for line in format_rows(summarise(pairs, dict.fromkeys(pairs[0]["base"], "lower"))):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
