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
import math
import statistics
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .costs import BOUND_FLOOR
from .model import NetworkParams, ResourceNetwork, WeightConfig, Workflow, check_count
from .allocators import SoftIsoConfig
from .profiles import load_profiles
from .simulation import (
    ALLOCATOR_NAMES,
    DEFAULT_RETRY_LIMIT,
    Allocator,
    MetricsAccumulator,
    SimState,
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
FAILURE_BIN_PCT = 5.0  # width of the failure histogram's bins, in percent; divides 100

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
        counts = {
            "repetitions": 1, "retry_limit": 0, "trial_multiplier": 1, "workers": 1, "catalog_size": 1,
            "base_seed": -math.inf,  # any whole seed, negative ones included
        }
        try:
            for name, minimum in counts.items():
                object.__setattr__(self, name, check_count(name, getattr(self, name), minimum))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.workers != 1:
            raise ConfigError(f"workers: must be 1, got {self.workers}; repetitions run in one process")

        for name, kind in _SECTIONS.items():
            if not isinstance(section := getattr(self, name), kind):
                raise ConfigError(f"{name}: expected an object")
            if getattr(section, "seed", 0) != 0:  # workload and topology hold a seed
                raise ConfigError(f"{name}.seed: must be 0, got {section.seed!r}; repetitions derive it from base_seed")
        for name in ("catalog_path", "profiles_path"):
            if not isinstance(value := getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name}: expected a string or null, got {value!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from a plain dict (the JSON config file schema)."""
        return replace_fields(cls(), raw)


def replace_fields(obj, values: dict, path: str = ""):
    """Return the dataclass ``obj`` with the fields named in ``values``
    replaced; a dict given for a field that holds a dataclass is applied to
    that dataclass's fields in turn. An unknown key, a bool given for a field
    that holds a float or None, anything but a bool for a field that holds a
    bool, or a bad value raises a ``ConfigError`` naming its dotted path
    (``path`` prefixes it)."""
    if not isinstance(values, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'}: expected an object, got {type(values).__name__}")
    unknown = set(values) - {f.name for f in dataclasses.fields(obj)}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(path + name for name in sorted(unknown))}")
    changes = {}
    for name, value in values.items():
        current = getattr(obj, name)
        if isinstance(value, dict) and dataclasses.is_dataclass(current):
            value = replace_fields(current, value, f"{path}{name}.")
        elif isinstance(value, bool) and (current is None or type(current) is float):
            # a bool is an int, so a real-valued field would take it as 0 or 1
            raise ConfigError(f"{path}{name}: a bool is not accepted, got {value!r}")
        elif type(current) is bool and type(value) is not bool:
            # a switch would take any other value by its truth: "false" turns it on
            raise ConfigError(f"{path}{name}: expected true or false, got {value!r}")
        changes[name] = value
    try:
        return dataclasses.replace(obj, **changes)
    except ConfigError:  # ExperimentConfig's own checks name their field
        raise
    except (TypeError, ValueError) as exc:
        # the first changed field whose old value lets the others pass; else the one changed field that raises
        # this error alone; with none or several (a rule over several, as a sum rule), the section
        put_back = [name for name in changes if _error(obj, {**changes, name: getattr(obj, name)}) is None]
        named = put_back[:1] or [name for name in changes if _error(obj, {name: changes[name]}) == str(exc)]
        if len(named) == 1:
            raise ConfigError(f"{path}{named[0]}: {exc}") from exc
        raise ConfigError(f"{path.rstrip('.')}: {exc}" if path else str(exc)) from exc


def _error(obj, changes: dict) -> str | None:
    """The message of the error that replacing ``changes`` in the
    dataclass ``obj`` raises, or None when it raises none."""
    try:
        dataclasses.replace(obj, **changes)
    except (TypeError, ValueError) as exc:
        return str(exc)
    return None


# The nested config sections by field name: every field whose type is a
# dataclass.
_SECTIONS = {
    name: kind for name, kind in typing.get_type_hints(ExperimentConfig).items() if dataclasses.is_dataclass(kind)
}


@dataclass
class RunResult:
    """One seeded run: the simulator's metrics, read by the names in
    ``METRIC_FIELDS``, and the per-node busy shares."""

    seed: int
    metrics: MetricsAccumulator
    qpu_shares: list[float]
    node_ids: list[str]


def _derive_seed(base: int, index: int, stream: int) -> int:
    # Distinct deterministic streams for workload, topology and allocator rng.
    return (base + index) * 7_919 + stream


class Repetition(typing.NamedTuple):
    """One repetition's inputs: its seed, workload, network and allocator."""

    seed: int
    workload: list[Workflow]
    network: ResourceNetwork
    allocator: Allocator


def repetition(config: ExperimentConfig, index: int) -> Repetition:
    """Build repetition ``index``'s inputs from seeds derived from ``base_seed``;
    each call builds a fresh network and an allocator whose draws start over."""
    profiles = load_profiles(config.profiles_path)
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
    return Repetition(config.base_seed + index, workload, network, allocator)


def simulate(config: ExperimentConfig, rep: Repetition) -> SimState:
    """Run ``rep`` under the config's simulator options."""
    return run_simulation(
        rep.workload, rep.network, rep.allocator, config.params, retry_limit=config.retry_limit,
        dependency_gating=config.dependency_gating, gate_comm_latency=config.gate_comm_latency,
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list[RunResult]

    def metric_values(self, name: str) -> list[float]:
        return [getattr(r.metrics, name) for r in self.runs]

    def mean(self, name: str) -> float:
        return statistics.fmean(self.metric_values(name))

    def std(self, name: str) -> float:
        return statistics.pstdev(self.metric_values(name))


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run all repetitions in seed order, in this process, and write the
    result tables when an output directory is given. A run with a
    non-finite metric raises ValueError before anything is written."""
    runs = []
    for index in range(config.repetitions):
        rep = repetition(config, index)
        state = simulate(config, rep)
        metrics = state.metrics if config.measure_timing else dataclasses.replace(state.metrics, decision_time=0.0)
        for name in METRIC_FIELDS:
            if not math.isfinite(value := getattr(metrics, name)):
                raise ValueError(f"metric {name} is {value} in the run of seed {rep.seed}")
        runs.append(RunResult(rep.seed, metrics, qpu_time_distribution(state), [node.id for node in rep.network.nodes]))
        del rep, state  # so that no two repetitions' networks and caches are held at once
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
            writer.writerow(row(r.seed, (getattr(r.metrics, name) for name in METRIC_FIELDS)))
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
            writer.writerow(["std", k, result.runs[0].node_ids[k], _fmt(statistics.pstdev(series))])

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


def scenario_config(name: str, algorithm: str, **overrides) -> ExperimentConfig:
    """Preset configs for the four stress scenarios.

    SP/LP set (tasks per group, batch) = (2, 10) / (4, 500); LR/MR set
    (link probability, nodes) = (0.3, 10) / (0.9, 20). Workflow sizes are
    pinned to the preset's task count so that the scenario stresses exactly
    the advertised program size, and failed allocations are terminal
    (retry_limit 0): scenario completion percentages measure pure
    first-attempt allocation power. ``overrides`` are applied to the preset
    with :func:`replace_fields`, so a dict given for any section
    (``workload={"batch_size": 20}``, ``weights={"zeta": 0.0}``) replaces
    only the fields it names.
    """
    if name not in SCENARIO_NAMES:
        raise ConfigError(f"scenario: unknown name {name!r}, expected one of {SCENARIO_NAMES}")
    program, resources = name.split("-")
    tasks, batch = _PROGRAM_PRESETS[program]
    rho, nodes = _RESOURCE_PRESETS[resources]
    preset = ExperimentConfig(
        algorithm=algorithm,
        workload=WorkloadSpec(batch_size=batch, tasks_per_group=tasks, tasks_per_group_min=tasks),
        topology=TopologySpec(node_count=nodes, link_probability=rho),
        repetitions=10,
        retry_limit=0,
    )
    return replace_fields(preset, overrides)


def emit_failure_histogram(results: list[ExperimentResult], path: str | Path) -> list[tuple[str, float, float, int]]:
    """Bin experiments by unfulfilled-task percentage, one series per
    algorithm, in ``FAILURE_BIN_PCT``-wide bins that partition [0, 100]
    (100% falls in the last bin); rows sum to the experiment count."""
    if not results:
        raise ValueError("need at least one completed experiment")
    n_bins = math.ceil(100.0 / FAILURE_BIN_PCT)
    rows = []
    by_algorithm: dict[str, list[float]] = {}
    for res in results:
        unfulfilled = 100.0 - res.mean("completion_pct")
        by_algorithm.setdefault(res.config.algorithm, []).append(unfulfilled)
    for algorithm in sorted(by_algorithm):
        counts = [0] * n_bins
        for value in by_algorithm[algorithm]:
            idx = min(int(value / FAILURE_BIN_PCT), n_bins - 1)
            counts[idx] += 1
        for b in range(n_bins):
            rows.append((algorithm, b * FAILURE_BIN_PCT, (b + 1) * FAILURE_BIN_PCT, counts[b]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "bin_lower_pct", "bin_upper_pct", "experiments"])
        for row in rows:
            writer.writerow([row[0], _fmt(row[1]), _fmt(row[2]), row[3]])
    return rows


def apply_sweep_value(config: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    """Return a copy of the config with one dotted-path field set from a
    string, coerced to the field's type."""
    *sections, name = key.split(".")
    owner = config
    for section in sections:
        owner = getattr(owner, section, None)
    if not (dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}):
        raise ConfigError(f"sweep key {key!r} names no field of the config")
    try:
        changes = {name: _coerce(owner, name, value)}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    for section in reversed(sections):
        changes = {section: changes}
    return replace_fields(config, changes)


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


def _coerce(obj, name: str, raw_value: str):
    """``raw_value`` as the type of ``obj``'s field ``name``: a bool word,
    an int, a float, or the string itself. A tuple field is rejected."""
    kind = type(getattr(obj, name))
    if kind is tuple:
        raise ValueError("a tuple field cannot be swept; set it in a config file")
    if kind is type(None):  # a field annotated ``X | None`` left at None takes X
        kind = next(a for a in typing.get_args(typing.get_type_hints(type(obj))[name]) if a is not kind)
    if kind is bool:
        word = raw_value.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"expected one of {'/'.join(_BOOL_WORDS)}, got {raw_value!r}")
        return _BOOL_WORDS[word]
    if kind in (int, float):
        return kind(raw_value)
    return raw_value
