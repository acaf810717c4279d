"""Config-driven experiment runner: repetition sweeps, scenario presets and
failure histograms.

An experiment is ``repetitions`` independent seeded simulation runs over
freshly generated workloads and topologies. Outputs are a per-run CSV table
(stable column order), a per-QPU share table and a JSON summary carrying the
full effective configuration for auditability. With timing capture disabled
the output files are byte-identical across reruns of the same config; with
it enabled (the default) the decision-time column carries wall-clock
seconds (``time.perf_counter``), measured by the simulator around each
allocator call, and is therefore hardware- and load-dependent.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .costs import BOUND_FLOOR
from .model import NetworkParams, WeightConfig, check_count
from .allocators import SoftIsoConfig
from .profiles import load_profiles
from .simulation import (
    ALLOCATOR_NAMES,
    DEFAULT_RETRY_LIMIT,
    make_allocator,
    qpu_time_distribution,
    run_simulation,
)
from .workload import TopologySpec, WorkloadSpec, generate_catalog, generate_network, generate_workload, import_task_catalog

METRIC_FIELDS = (
    "execution_time",
    "wait_time",
    "avg_fidelity",
    "comm_overhead",
    "decision_time",
    "completion_pct",
)
# The run's identity (with "seed" holding "mean" or "std" on summary rows),
# then the metrics.
RESULT_COLUMNS = ("algorithm", "seed", "batch", "nodes", "tasks_per_group", "rho_q", *METRIC_FIELDS)

SCENARIO_NAMES = ("SP-LR", "SP-MR", "LP-LR", "LP-MR")

# (tasks per group, batch size) presets; small-program vs large-program.
_PROGRAM_PRESETS = {"SP": (2, 10), "LP": (4, 500)}
# (link probability, node count) presets; less vs more resources.
_RESOURCE_PRESETS = {"LR": (0.3, 10), "MR": (0.9, 20)}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "soft_iso"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    weights: WeightConfig = field(default_factory=WeightConfig)
    params: NetworkParams = field(default_factory=NetworkParams)
    soft_config: SoftIsoConfig = field(default_factory=SoftIsoConfig)
    repetitions: int = 100
    base_seed: int = 0
    catalog_size: int = 128
    catalog_path: str | None = None
    retry_limit: int = DEFAULT_RETRY_LIMIT
    dependency_gating: bool = True
    gate_comm_latency: bool = True
    trial_multiplier: int = 1
    measure_timing: bool = True
    workers: int = 1
    profiles_path: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALLOCATOR_NAMES:
            raise ConfigError(f"algorithm: unknown value {self.algorithm!r}, expected one of {ALLOCATOR_NAMES}")
        counts = {"repetitions": 1, "retry_limit": 0, "trial_multiplier": 1, "workers": 1, "catalog_size": 1}
        try:
            for name, minimum in counts.items():
                object.__setattr__(self, name, check_count(name, getattr(self, name), minimum))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from a plain dict (the JSON config file schema),
        reporting bad fields with their dotted paths."""
        nested = {
            "workload": WorkloadSpec,
            "topology": TopologySpec,
            "weights": WeightConfig,
            "params": NetworkParams,
            "soft_config": SoftIsoConfig,
        }
        kwargs = {}
        for key, value in raw.items():
            if key in nested:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: expected an object")
                sub = dict(value)
                for tuple_field in ("qubit_range", "profile_pool"):
                    if tuple_field in sub and isinstance(sub[tuple_field], list):
                        sub[tuple_field] = tuple(sub[tuple_field])
                try:
                    kwargs[key] = nested[key](**sub)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
            else:
                kwargs[key] = value
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        try:
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class RunResult:
    """Metrics row of one seeded run plus the per-node busy shares."""

    seed: int
    execution_time: float
    wait_time: float
    avg_fidelity: float
    comm_overhead: float
    decision_time: float
    completion_pct: float
    qpu_shares: list[float]
    node_ids: list[str]


def _derive_seed(base: int, index: int, stream: int) -> int:
    # Distinct deterministic streams for workload, topology and allocator rng.
    return (base + index) * 7_919 + stream


def run_single(config: ExperimentConfig, index: int) -> RunResult:
    """Execute repetition ``index`` of the experiment."""
    profiles = load_profiles(config.profiles_path)
    run_seed = config.base_seed + index
    workload_spec = dataclasses.replace(config.workload, seed=_derive_seed(config.base_seed, index, 1))
    topology_spec = dataclasses.replace(config.topology, seed=_derive_seed(config.base_seed, index, 2))
    if config.catalog_path:
        catalog = import_task_catalog(config.catalog_path)
    else:
        catalog = generate_catalog(
            config.catalog_size,
            qubit_range=workload_spec.qubit_range,
            seed=_derive_seed(config.base_seed, index, 3),
            shots=workload_spec.shots_default,
        )
    workload = generate_workload(workload_spec, catalog)
    network = generate_network(topology_spec, profiles)
    allocator = make_allocator(
        config.algorithm,
        config.weights,
        config.params,
        soft_config=config.soft_config,
        base_seed=_derive_seed(config.base_seed, index, 4),
        trial_multiplier=config.trial_multiplier,
    )
    state = run_simulation(
        workload,
        network,
        allocator,
        config.params,
        retry_limit=config.retry_limit,
        dependency_gating=config.dependency_gating,
        gate_comm_latency=config.gate_comm_latency,
    )
    m = state.metrics
    return RunResult(
        seed=run_seed,
        execution_time=m.execution_time,
        wait_time=m.wait_time,
        avg_fidelity=m.avg_fidelity,
        comm_overhead=m.communication_overhead,
        decision_time=m.decision_time if config.measure_timing else 0.0,
        completion_pct=m.completion_pct,
        qpu_shares=qpu_time_distribution(state),
        node_ids=[node.id for node in state.network.nodes],
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list[RunResult]

    def metric_values(self, name: str) -> list[float]:
        return [getattr(r, name) for r in self.runs]

    def mean(self, name: str) -> float:
        return statistics.fmean(self.metric_values(name))

    def std(self, name: str) -> float:
        values = self.metric_values(name)
        return statistics.pstdev(values) if len(values) > 1 else 0.0


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run all repetitions (optionally across a process pool), ordered by
    seed, and write the result tables when an output directory is given."""
    indices = list(range(config.repetitions))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            runs = list(pool.map(run_single, [config] * len(indices), indices))
    else:
        runs = [run_single(config, i) for i in indices]
    runs.sort(key=lambda r: r.seed)
    result = ExperimentResult(config=config, runs=runs)
    if out_dir is not None:
        write_outputs(result, Path(out_dir))
    return result


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_outputs(result: ExperimentResult, out_dir: Path) -> dict[str, Path]:
    """Write results.csv, qpu_shares.csv and summary.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = result.config
    results_path = out_dir / "results.csv"

    def row(seed, metrics) -> list[str]:
        identity = (
            config.algorithm,
            seed,
            config.workload.batch_size,
            config.topology.node_count,
            config.workload.tasks_per_group,
            config.topology.link_probability,
        )
        return [_fmt(value) for value in (*identity, *metrics)]

    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in result.runs:
            writer.writerow(row(r.seed, (getattr(r, name) for name in METRIC_FIELDS)))
        for label, fn in (("mean", result.mean), ("std", result.std)):
            writer.writerow(row(label, map(fn, METRIC_FIELDS)))

    shares_path = out_dir / "qpu_shares.csv"
    with open(shares_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "node_index", "node_id", "share_pct"])
        for r in result.runs:
            for k, share in enumerate(r.qpu_shares):
                writer.writerow([r.seed, k, r.node_ids[k], _fmt(share)])
        n_nodes = len(result.runs[0].qpu_shares) if result.runs else 0
        for k in range(n_nodes):
            series = [r.qpu_shares[k] for r in result.runs]
            writer.writerow(["mean", k, result.runs[0].node_ids[k], _fmt(statistics.fmean(series))])
            writer.writerow(
                ["std", k, result.runs[0].node_ids[k], _fmt(statistics.pstdev(series) if len(series) > 1 else 0.0)]
            )

    summary_path = out_dir / "summary.json"
    summary = {
        "config": dataclasses.asdict(config),
        "effective_arrival_rate": config.workload.effective_rate,
        "normalization": {
            "rule": "per-decision upper bounds; raw components clipped to [0, 1]",
            "bound_floor": BOUND_FLOOR,
        },
        "metrics_mean": {name: result.mean(name) for name in METRIC_FIELDS},
        "metrics_std": {name: result.std(name) for name in METRIC_FIELDS},
        "timing_note": (
            "decision_time is measured wall-clock time (perf_counter) and varies across reruns"
            if config.measure_timing
            else "timing capture disabled; outputs are byte-reproducible"
        ),
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    return {"results": results_path, "shares": shares_path, "summary": summary_path}


def scenario_config(
    name: str,
    algorithm: str,
    base_seed: int = 0,
    repetitions: int = 10,
    **overrides,
) -> ExperimentConfig:
    """Preset configs for the four stress scenarios.

    SP/LP set (tasks per group, batch) = (2, 10) / (4, 500); LR/MR set
    (link probability, nodes) = (0.3, 10) / (0.9, 20). Workflow sizes are
    pinned to the preset's task count so that the scenario stresses exactly
    the advertised program size, and failed allocations are terminal
    (retry_limit 0): scenario completion percentages measure pure
    first-attempt allocation power.
    """
    if name not in SCENARIO_NAMES:
        raise ConfigError(f"scenario: unknown name {name!r}, expected one of {SCENARIO_NAMES}")
    program, resources = name.split("-")
    tasks, batch = _PROGRAM_PRESETS[program]
    rho, nodes = _RESOURCE_PRESETS[resources]
    workload_kwargs = dict(batch_size=batch, tasks_per_group=tasks, tasks_per_group_min=tasks)
    workload_kwargs.update(overrides.pop("workload", {}))
    topology_kwargs = dict(node_count=nodes, link_probability=rho)
    topology_kwargs.update(overrides.pop("topology", {}))
    overrides.setdefault("retry_limit", 0)
    workload = WorkloadSpec(**workload_kwargs)
    topology = TopologySpec(**topology_kwargs)
    return ExperimentConfig(
        algorithm=algorithm,
        workload=workload,
        topology=topology,
        base_seed=base_seed,
        repetitions=repetitions,
        **overrides,
    )


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    algorithm: str
    completion_pct: float
    completion_tablev: int
    decision_time: float

    @classmethod
    def of(cls, name: str, result: ExperimentResult) -> "ScenarioResult":
        """Table entry of scenario ``name`` from its experiment result."""
        completion = result.mean("completion_pct")
        return cls(
            name=name,
            algorithm=result.config.algorithm,
            completion_pct=completion,
            completion_tablev=round(completion),
            decision_time=result.mean("decision_time"),
        )

    def table_row(self) -> str:
        return f"{self.algorithm:>14s}  {self.name}: completion {self.completion_tablev}%  decision {self.decision_time:.4f} s"


def run_scenario(
    name: str,
    algorithm: str,
    base_seed: int = 0,
    repetitions: int = 10,
    out_dir: str | Path | None = None,
    **overrides,
) -> ScenarioResult:
    """Run one scenario preset and report completion and decision time in
    the integer-percent scenario-table format."""
    config = scenario_config(name, algorithm, base_seed=base_seed, repetitions=repetitions, **overrides)
    return ScenarioResult.of(name, run_experiment(config, out_dir=out_dir))


def emit_failure_histogram(
    results: list[ExperimentResult], path: str | Path, bin_width: float = 5.0
) -> list[tuple[str, float, float, int]]:
    """Bin experiments by unfulfilled-task percentage, one series per
    algorithm; bins partition [0, 100] and rows sum to the experiment count."""
    if not results:
        raise ValueError("need at least one completed experiment")
    n_bins = int(100.0 / bin_width)
    rows = []
    by_algorithm: dict[str, list[float]] = {}
    for res in results:
        unfulfilled = 100.0 - res.mean("completion_pct")
        by_algorithm.setdefault(res.config.algorithm, []).append(unfulfilled)
    for algorithm in sorted(by_algorithm):
        counts = [0] * n_bins
        for value in by_algorithm[algorithm]:
            idx = min(int(value / bin_width), n_bins - 1)
            counts[idx] += 1
        for b in range(n_bins):
            rows.append((algorithm, b * bin_width, (b + 1) * bin_width, counts[b]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "bin_lower_pct", "bin_upper_pct", "experiments"])
        for row in rows:
            writer.writerow([row[0], _fmt(row[1]), _fmt(row[2]), row[3]])
    return rows


def apply_sweep_value(config: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    """Return a copy of the config with one dotted-path field replaced,
    coercing the string value to the field's type."""
    parts = key.split(".")
    if len(parts) == 1:
        return _replace_field(config, parts[0], value)
    if len(parts) == 2 and parts[0] in ("workload", "topology", "weights", "params", "soft_config"):
        sub = getattr(config, parts[0])
        new_sub = _replace_field(sub, parts[1], value)
        return dataclasses.replace(config, **{parts[0]: new_sub})
    raise ConfigError(f"sweep key {key!r} is not a config field")


# Short sweep aliases matching the result-table column names.
SWEEP_ALIASES = {
    "batch": "workload.batch_size",
    "batch_size": "workload.batch_size",
    "nodes": "topology.node_count",
    "node_count": "topology.node_count",
    "tasks_per_group": "workload.tasks_per_group",
    "rho_q": "topology.link_probability",
    "link_probability": "topology.link_probability",
}


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _replace_field(obj, name: str, raw_value: str):
    matching = [f for f in dataclasses.fields(obj) if f.name == name]
    if not matching:
        raise ConfigError(f"{type(obj).__name__} has no field {name!r}")
    kind = type(getattr(obj, name))
    if kind is type(None):  # a field annotated ``X | None`` left at None takes X
        kind = next(a for a in typing.get_args(typing.get_type_hints(type(obj))[name]) if a is not kind)
    value: object
    try:
        if kind is bool:
            word = raw_value.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"expected one of {'/'.join(_BOOL_WORDS)}, got {raw_value!r}")
            value = _BOOL_WORDS[word]
        elif kind in (int, float):
            value = kind(raw_value)
        else:
            value = raw_value
        return dataclasses.replace(obj, **{name: value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
