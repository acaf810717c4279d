"""Command-line experiment runner.

One entry point drives three modes: a single experiment from a JSON config,
a named stress scenario, or a sweep over one config field with a failure
histogram across the swept experiments. The same flags override the config
in every mode.

Exit codes: 0 on success, 1 on configuration errors (a missing or malformed
input file the config names included), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .costs import classical_link_cost, quantum_link_cost
from .experiments import (
    SCENARIO_NAMES,
    SWEEP_ALIASES,
    ConfigError,
    ExperimentConfig,
    apply_sweep_value,
    emit_failure_histogram,
    replace_fields,
    run_experiment,
    scenario_config,
)
from .model import TaskSpec
from .profiles import load_profiles, node_from_profile
from .simulation import ALLOCATOR_NAMES
from .workload import RANDOM_CIRCUIT_DEPTH_BAND, import_task_catalog


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Bad usage is a configuration error: exit 1, not argparse's 2.
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qflow", description="Quantum workflow allocation experiments")
    parser.add_argument("--config", type=Path, help="JSON experiment config file")
    parser.add_argument("--algo", choices=ALLOCATOR_NAMES, help="allocation algorithm")
    parser.add_argument("--seed", type=int, help="base seed (run i uses seed base+i)")
    parser.add_argument("--reps", type=int, help="number of seeded repetitions")
    parser.add_argument("--scenario", choices=SCENARIO_NAMES, help="run a named stress scenario")
    parser.add_argument(
        "--sweep",
        metavar="KEY=V1,V2,...",
        help="sweep one config field (e.g. tasks_per_group=1,2,3,4,5)",
    )
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--profiles", type=Path, help="calibration profile file")
    parser.add_argument(
        "--strict-pseudocode",
        action="store_true",
        help="freeze the early-stopping previous-cost reference at zero",
    )
    parser.add_argument(
        "--no-dep-gating",
        action="store_true",
        help="let tasks start as soon as their QPU frees up, ignoring DAG order",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="write zero decision times for byte-reproducible outputs",
    )
    return parser


def load_config(args) -> ExperimentConfig:
    """The scenario preset or the JSON config (default fields without one),
    with the command-line flags applied in both modes."""
    if args.scenario:
        ignored = [flag for flag, given in (("--config", args.config), ("--sweep", args.sweep)) if given]
        if ignored:
            raise ConfigError(f"--scenario runs a preset and cannot be combined with {' or '.join(ignored)}")
        config = scenario_config(args.scenario, "soft_iso")
    else:
        raw = {}
        if args.config:
            try:
                raw = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}")
        config = ExperimentConfig.from_dict(raw)
    # a flag left out is None and keeps the config's value
    flags = {
        "algorithm": args.algo,
        "base_seed": args.seed,
        "repetitions": args.reps,
        "profiles_path": args.profiles and str(args.profiles),
        "soft_config": {"strict_pseudocode": True} if args.strict_pseudocode else None,
        "dependency_gating": False if args.no_dep_gating else None,
        "measure_timing": False if args.no_timing else None,
    }
    return replace_fields(config, {name: value for name, value in flags.items() if value is not None})


def check_inputs(config: ExperimentConfig) -> None:
    """Load the input files ``config`` names, build one node per pooled
    profile, require each one's link cost, quantum and then with the
    classical term, to stay finite in a repetition's sums, the last arrival
    time and each task's layer count (depth times shots) to stay in float
    range, and an imported catalog to hold a task within
    ``workload.qubit_range``: a bad input is a configuration error before
    anything runs."""
    where = f"profiles_path ({config.profiles_path or 'the bundled file'})"
    try:
        profiles = load_profiles(config.profiles_path)
        where = "topology.profile_pool"
        nodes = [node_from_profile(name, profiles) for name in config.topology.profile_pool]
        lo, hi = config.workload.qubit_range
        largest = TaskSpec("largest", hi, 1, 0, hi)
        # a repetition adds a link term into each of its `tasks` start times
        # through at most `tasks * (per_group - 1) / 2` gates, and the term is
        # linear in qubits, so the largest task measuring every qubit on each
        # profile bounds the sums
        where = "workload.batch_size"
        tasks = config.workload.batch_size * config.workload.tasks_per_group
        # a float, as the products below take it; an int past float range raises OverflowError here
        terms = float(tasks * tasks * (config.workload.tasks_per_group - 1) // 2)
        for node in nodes:
            where = f"params.transmission_efficiency on profile {node.id}"
            # taken with no gate too, as a run takes every task's term; only a gate adds it into a sum
            quantum = quantum_link_cost(largest, node, config.params)
            if terms and not quantum * terms < math.inf:
                raise ValueError(f"the quantum link cost of a {hi}-qubit task overflows a run")
            where = "params.classical_latency"
            if terms and not (quantum + classical_link_cost(largest, config.params)) * terms < math.inf:
                raise ValueError(f"the link cost of a {hi}-qubit task measuring every qubit overflows a run")
        where = "workload.arrival_rate"
        # a gap, -log(1.0 - random()) / rate, is at most -log(2**-53) / rate, about 36.7 / rate;
        # refused whatever the seed, as some seed draws such gaps
        rate = config.workload.effective_rate
        if not config.workload.batch_size * 37 / rate < math.inf:
            raise ValueError(f"{config.workload.batch_size} arrivals at rate {rate} can pass float range")
        where = "catalog_path"
        if config.catalog_path:
            tasks = [task for task in import_task_catalog(config.catalog_path) if lo <= task.qubits <= hi]
            if not tasks:
                raise ValueError(f"{config.catalog_path} has no task within workload.qubit_range [{lo}, {hi}]")
            layers = [(f"task {task.id}", task.depth * task.shots) for task in tasks]
        else:
            where = "workload.shots_default"
            # shor's 4 * n * n is the deepest family past 3 qubits, a random circuit's band end below
            depth = max(4 * hi * hi, RANDOM_CIRCUIT_DEPTH_BAND[1])
            layers = [(f"the deepest {hi}-qubit task", depth * config.workload.shots_default)]
        for name, count in layers:  # the cost terms take a task's layers, depth * shots, as a float
            try:
                float(count)
            except OverflowError:
                raise ValueError(f"{name}: depth times shots overflows a float") from None
    except (OSError, OverflowError, ValueError, ZeroDivisionError) as exc:
        # ZeroDivisionError: coherence mean times attenuation can underflow to 0
        raise ConfigError(f"{where}: {exc}") from exc


def _run_sweep(config: ExperimentConfig, sweep: str, out: Path) -> None:
    if "=" not in sweep:
        raise ConfigError("--sweep expects KEY=V1,V2,...")
    key, _, raw_values = sweep.partition("=")
    key = SWEEP_ALIASES.get(key.strip(), key.strip())
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--sweep needs at least one value")
    if repeated := next((v for i, v in enumerate(values) if v in values[:i]), None):  # one sub-run per directory
        raise ConfigError(f"--sweep {key}: value {repeated!r} is given twice")
    # every value is checked before the first sub-run writes anything
    variants = [(value, apply_sweep_value(config, key, value)) for value in values]
    for _, variant in variants:
        check_inputs(variant)
    results = []
    for value, variant in variants:
        sub_dir = out / f"{key.replace('.', '_')}={value}"
        results.append(run_experiment(variant, out_dir=sub_dir))
        print(f"sweep {key}={value}: completion {results[-1].mean('completion_pct'):.2f}%")
    emit_failure_histogram(results, out / "failure_histogram.csv")
    print(f"wrote {out / 'failure_histogram.csv'}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args)
        if not args.sweep:  # a sweep checks each of its variants
            check_inputs(config)
        if args.scenario:
            result = run_experiment(config, out_dir=args.out)
            print(
                f"{config.algorithm:>14s}  {args.scenario}: completion {round(result.mean('completion_pct'))}%  "
                f"decision {result.mean('decision_time'):.4f} s"
            )
            return 0
        if args.sweep:
            if not args.out:
                raise ConfigError("--sweep requires --out DIR")
            _run_sweep(config, args.sweep, args.out)
            return 0
        result = run_experiment(config, out_dir=args.out)
        print(
            f"{config.algorithm}: reps={config.repetitions} "
            f"completion {result.mean('completion_pct'):.2f}% "
            f"comm {result.mean('comm_overhead'):.4f} "
            f"decision {result.mean('decision_time'):.4f} s"
        )
        if args.out:
            print(f"wrote {args.out / 'results.csv'}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
