"""Command-line experiment runner.

One entry point drives three modes: a single experiment from a JSON config,
a named stress scenario, or a sweep over one config field with a failure
histogram across the swept experiments. The same flags override the config
in every mode.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .experiments import (
    SCENARIO_NAMES,
    SWEEP_ALIASES,
    ConfigError,
    ExperimentConfig,
    ScenarioResult,
    apply_sweep_value,
    emit_failure_histogram,
    run_experiment,
    scenario_config,
)
from .simulation import ALLOCATOR_NAMES


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
    parser.add_argument("--profiles", type=Path, help="calibration profile file (or set QFLOW_PROFILES)")
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
                raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}")
        config = ExperimentConfig.from_dict(raw)
    replacements = {}
    if args.algo:
        replacements["algorithm"] = args.algo
    if args.seed is not None:
        replacements["base_seed"] = args.seed
    if args.reps is not None:
        replacements["repetitions"] = args.reps
    if args.profiles:
        replacements["profiles_path"] = str(args.profiles)
    if args.strict_pseudocode:
        replacements["soft_config"] = dataclasses.replace(config.soft_config, strict_pseudocode=True)
    if args.no_dep_gating:
        replacements["dependency_gating"] = False
    if args.no_timing:
        replacements["measure_timing"] = False
    if replacements:
        try:
            config = dataclasses.replace(config, **replacements)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return config


def _run_sweep(config: ExperimentConfig, sweep: str, out: Path) -> None:
    if "=" not in sweep:
        raise ConfigError("--sweep expects KEY=V1,V2,...")
    key, _, raw_values = sweep.partition("=")
    key = SWEEP_ALIASES.get(key.strip(), key.strip())
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--sweep needs at least one value")
    # every value is checked before the first sub-run writes anything
    variants = [(value, apply_sweep_value(config, key, value)) for value in values]
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
        if args.scenario:
            result = run_experiment(config, out_dir=args.out)
            print(ScenarioResult.of(args.scenario, result).table_row())
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
