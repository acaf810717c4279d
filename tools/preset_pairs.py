"""Time the cost-aware allocators' decisions and the input builders in
process for two source trees, in pairs.

Usage::

    python tools/preset_pairs.py BASE_SRC NEW_SRC [--pairs 3] [--calls 5]

``BASE_SRC`` and ``NEW_SRC`` are directories that hold a ``qflow`` package
(a checkout's ``src``). Each pair runs one measuring process per tree,
alternating which tree goes first, so that drift of the host falls on both
sides alike. A measuring process times, ``--calls`` times each:

* the four scenario presets, each repetition built by ``repetition`` and
  run by ``simulate`` (3 repetitions of 100 workflows each), soft_iso at
  the preset's thresholds;
* the same runs of LP-MR, SP-MR and LP-LR with soft_iso under
  ``EXHAUSTIVE`` (stopping off, the path of ``skim``), rows named
  ``<scenario> exhaustive``;
* the many-class probe: three 20-node networks at link probability 0.9
  with node k's ``t1`` scaled by ``1 + 1e-6 * k``, so that every node is a
  calibration class of its own, each deciding 20 workflows of 4 (and of 5)
  tasks at the preset thresholds against a seeded random backlog;
* random_aware on the default config in the shape of the benchmark's
  sim-churn workload (5 nodes, 1 to 3 tasks, retry limit 3; 3 repetitions
  of 1,000 workflows), row ``default random_aware``, and on LP-MR (3
  repetitions of 100 workflows), row ``LP-MR random_aware``;
* the same default-config runs timed whole, each ``simulate`` call end
  to end, allocator calls and bookkeeping together, row ``sim-churn
  run`` (ms per run); its allocator calls still pass through the timing
  wrapper of the row before;
* the input builders, ``generate_catalog`` (128 tasks) then
  ``generate_workload``, seeded as perfbench seeds a unit's builds: in the
  shape of sim-churn (the default config's workload of 3,000 workflows of 1
  to 3 tasks; 10 builds), row ``builds sim-churn``, and of lplr-sparse (the
  LP-LR preset's workload of 50 workflows of 4 tasks; 100 builds), row
  ``builds lplr-sparse``;
* the catalog builder alone, ``generate_catalog`` (128 tasks over 5 to 100
  qubits), seeded as perfbench seeds a unit's catalog (100 builds), row
  ``builds catalog``;
* the network builder, ``generate_network`` on the LP-LR preset's topology
  (10 nodes, link probability 0.3) and on LP-MR's (20 nodes, 0.9), each at
  100 seeds seeded as perfbench seeds a unit's network, with the network's
  ``neighbour_masks`` and ``dfs_order`` read after each build, row
  ``builds networks``;
* a task's first-use term evaluation, ``task_terms`` over the tasks of one
  LP-LR workload of 50 workflows (built once, as the first unit of
  lplr-sparse builds it) on each fresh network of the row before, its
  calibration classes read untimed after the build, row ``terms cold`` (ms
  per network).

A call gives two figures per row: the summed time of its allocator calls
(or builds, or runs) over their number (the mean, in ms per decision, build
or run) and the 90th percentile of their times (the p90, in ms), so that a
tail claim on the preset paths, which no perfbench workload runs, can be
checked in process. A process reports the median of each over its calls. The script
prints each pair and, per row and figure, the median over pairs, the change
and the number of pairs the new tree won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCENARIOS = ("LP-MR", "LP-LR", "SP-LR", "SP-MR")
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


def measure(calls: int) -> dict[str, list[float]]:
    """For each row, the median over ``calls`` calls of the mean ms per
    allocator decision and of the 90th percentile of its decision times."""
    import dataclasses

    import qflow.allocators as alg
    from qflow.allocators import EXHAUSTIVE, SoftIsoConfig
    from qflow.costs import task_terms
    from qflow.experiments import ExperimentConfig, repetition, scenario_config, simulate
    from qflow.model import NetworkParams, WeightConfig
    from qflow.profiles import load_profiles
    from qflow.workload import generate_catalog, generate_network, generate_workload

    spent: list[float] = []
    whole: list[float] = []  # simulate calls, end to end

    def timing(function, times):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            outcome = function(*args, **kwargs)
            times.append(time.perf_counter() - started)
            return outcome

        return timed

    def figures(times=spent) -> tuple[float, float]:
        return 1e3 * sum(times) / len(times), 1e3 * statistics.quantiles(times, n=10)[-1]

    # the simulator's allocators look these names up at each call
    alg.soft_iso, alg.random_aware = timing(alg.soft_iso, spent), timing(alg.random_aware, spent)
    timed_simulate = timing(simulate, whole)
    rows: dict[str, list[tuple[float, float]]] = {}

    def scenario(name: str, algorithm: str, soft_config: dict) -> ExperimentConfig:
        return scenario_config(name, algorithm, repetitions=3, workload={"batch_size": 100}, soft_config=soft_config)

    runs = [(name, scenario(name, "soft_iso", {})) for name in SCENARIOS]
    runs += [(f"{name} exhaustive", scenario(name, "soft_iso", dataclasses.asdict(EXHAUSTIVE)))
             for name in EXHAUSTIVE_SCENARIOS]
    churn = ExperimentConfig.from_dict({"algorithm": "random_aware", "repetitions": 3, "workload": {"batch_size": 1000}})
    runs += [("default random_aware", churn), ("LP-MR random_aware", scenario("LP-MR", "random_aware", {}))]
    lplr = scenario_config("LP-LR", "soft_iso", workload={"batch_size": 50})
    shapes = [
        ("builds sim-churn", ExperimentConfig.from_dict({"workload": {"batch_size": 3000}}), 10),
        ("builds lplr-sparse", lplr, 100),
    ]
    profiles = load_profiles()
    topologies = [scenario_config(name, "soft_iso").topology for name in ("LP-LR", "LP-MR")]
    # the terms cold row's tasks: lplr-sparse's first unit's workload
    cold_tasks = [t for wf in repetition(lplr, 0).workload for t in wf.tasks]
    for _ in range(calls):
        for row, config in runs:
            spent.clear()
            whole.clear()
            for index in range(config.repetitions):
                timed_simulate(config, repetition(config, index))
            rows.setdefault(row, []).append(figures())
            if row == "default random_aware":
                rows.setdefault("sim-churn run", []).append(figures(whole))
        weights, params, config = WeightConfig(), NetworkParams(), SoftIsoConfig()
        for name, decisions in probe_cases().items():
            spent.clear()
            for network, wf, backlog in decisions:
                alg.soft_iso(wf, network, weights, params, config, backlog)
            rows.setdefault(name, []).append(figures())
        for row, config, builds in shapes:
            spent.clear()
            spec = config.workload
            for u in range(builds):
                started = time.perf_counter()
                catalog = generate_catalog(config.catalog_size, spec.qubit_range, seed=4 * u + 3, shots=spec.shots_default)
                generate_workload(dataclasses.replace(spec, seed=4 * u + 1), catalog)
                spent.append(time.perf_counter() - started)
            rows.setdefault(row, []).append(figures())
        spent.clear()
        for u in range(100):
            started = time.perf_counter()
            generate_catalog(128, (5, 100), seed=4 * u + 3)
            spent.append(time.perf_counter() - started)
        rows.setdefault("builds catalog", []).append(figures())
        spent.clear()
        for topology in topologies:
            for u in range(100):
                started = time.perf_counter()
                network = generate_network(dataclasses.replace(topology, seed=4 * u + 2), profiles)
                network.neighbour_masks, network.dfs_order  # read, so that the build times its views
                spent.append(time.perf_counter() - started)
        rows.setdefault("builds networks", []).append(figures())
        spent.clear()
        for topology in topologies:
            for u in range(100):
                network = generate_network(dataclasses.replace(topology, seed=4 * u + 2), profiles)
                network.calibration_classes  # read, so that the row times the term evaluation alone
                started = time.perf_counter()
                task_terms(cold_tasks, network, lplr.params)
                spent.append(time.perf_counter() - started)
        rows.setdefault("terms cold", []).append(figures())
    return {name: [statistics.median(column) for column in zip(*values)] for name, values in rows.items()}


def run_tree(src: Path, calls: int) -> dict[str, list[float]]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, __file__, "--measure", "--calls", str(calls)]
    done = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", type=Path, help="the reference tree's src directory")
    parser.add_argument("new", nargs="?", type=Path, help="the changed tree's src directory")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--calls", type=int, default=5)
    parser.add_argument("--measure", action="store_true", help="measure the qflow on PYTHONPATH and print JSON")
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.calls)))
        return 0
    if args.base is None or args.new is None:
        parser.error("give the base and new src directories")
    pairs = []
    for i in range(args.pairs):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        pair = {side: run_tree(getattr(args, side), args.calls) for side in order}
        pairs.append(pair)
        print(f"pair {i + 1} ({' then '.join(order)}):")
        for name, base in pair["base"].items():
            new = pair["new"][name]
            print(f"  {name:20} {change(base[0], new[0], unit(name))}, p90 {change(base[1], new[1], 'ms')}")
    print("medians over pairs:")
    for name in pairs[0]["base"]:
        cells = []
        for k, label in (0, unit(name)), (1, "ms"):  # the mean, then the p90
            base = statistics.median(p["base"][name][k] for p in pairs)
            new = statistics.median(p["new"][name][k] for p in pairs)
            won = sum(p["new"][name][k] < p["base"][name][k] for p in pairs)
            cells.append(change(base, new, label, f", won {won} of {len(pairs)}"))
        print(f"  {name:20} {cells[0]}, p90 {cells[1]}")
    return 0


def unit(row: str) -> str:
    if row.endswith(" run"):
        return "ms/run"
    if row == "terms cold":
        return "ms/network"
    return "ms/build" if row.startswith("builds") else "ms/decision"


def change(base: float, new: float, label: str, won: str = "") -> str:
    return f"{base:9.4f} -> {new:9.4f} {label} ({100 * (new / base - 1):+.1f}%{won})"


if __name__ == "__main__":
    sys.exit(main())
