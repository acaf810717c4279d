"""qflow benchmark: run one workload and print its metrics as JSON.

Run from the repository root; the benchmark imports qflow from ``src/``:

    python3 perfbench/run.py --workload lpmr-search --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: ``run_simulation`` calls the allocator
synchronously and arrivals happen in simulated time, so the benchmark
reports host work per host second at a fixed input size. Simulated seconds
never enter a host-time metric.

A run repeats *units* of identical size until ``--seconds`` would be
exceeded, with at least ``min_units`` and at most ``max_units`` of them.
Unit ``i`` of seed ``s`` always gets the same inputs, built just before it
runs: profiles, catalog, workflows and a fresh network, because
``run_simulation`` mutates the network's queue state. Every build is timed
into ``setup_s`` and kept out of the unit's own timing; for ``lplr-sparse``
these are the builds that ``run_experiment`` makes for each repetition.

Inputs come from the seed folded onto the recorded ones: ``seed % 21``,
except for the held-out seed 4242, which is used as given.

Host times are scaled to a reference host speed by :mod:`hostspeed`: each
unit's times are multiplied by the scale its kernel samples give, and the
samples' own time is left out of the unit's.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs every unit twice, untraced and then traced on a freshly
built network, requires both passes to reach the same digest, and prints the
per-layer metrics taken from the spans of :mod:`tracing`.

Correctness: every simulation is checked structurally (allocations valid,
per-QPU FIFO timeline, dependency order, completion accounting, result
files), and the digest of everything each of the first ``min_units`` units
decides must equal the one recorded in ``digests/<workload>.json`` for that
seed.
The last line of standard output is the result object; the line before it
holds the digests, exact counts and sample sizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed
from tracing import DECIDE, RUN, SPAN_NAMES, Tracer, patched, swapped

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
DIGEST_DIR = BENCH_DIR / "digests"
OUTPUT_FILES = ("results.csv", "qpu_shares.csv", "summary.json")
WARMUP_INDEX = 9_999
MIN_SETUP_SAMPLES = 31  # over an untraced run's first min_units units
SEED_CYCLE = 21  # digests are recorded for seeds 0..20 ...
HELD_OUT_SEED = 4242  # ... and for the held-out seed
BUILDERS = ("load_profiles", "generate_catalog", "generate_workload", "generate_network")
TRACED_MIN_UNITS = 2  # a traced unit runs twice; its exact counts are taken over these units
HOST_SAMPLES_AROUND_UNIT = 5  # host-speed samples before and after each unit and build

clock = time.perf_counter


def import_qflow():
    """Import qflow from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "qflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'qflow'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import qflow

    if SRC.resolve() not in Path(qflow.__file__).resolve().parents:
        sys.exit(f"perfbench: imported qflow from {qflow.__file__}, not from {SRC}")
    return qflow


qflow = None  # bound by main()


# --------------------------------------------------------------------------
# Workloads


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: object  # qflow.experiments.ExperimentConfig
    min_units: int  # of an untraced run; its exact metrics are taken over these units
    max_units: int
    warmup_workflows: int
    fixed_topology: bool = False  # the network spec keeps its seed; seeds vary workflows only
    repetitions: int = 0  # > 0: a unit is one run_experiment call with this many repetitions


def workloads() -> dict[str, Workload]:
    from qflow.allocators import SoftIsoConfig
    from qflow.experiments import ExperimentConfig, scenario_config

    # LP-MR preset with the stop thresholds off: every decision scores the
    # preset's full budget of 10**4 candidates. With the thresholds on, the
    # mean per decision swings from about 600 to 6,300 between seeds. Units
    # are small so that a run averages over many networks: mean_cost of 100
    # decisions spreads 13.8% between seeds in units of 20 workflows and
    # 5.8% in units of 5.
    lpmr = scenario_config(
        "LP-MR",
        "soft_iso",
        workload={"batch_size": 5, "arrival_rate": 50.0},
        soft_config=SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf),
    )
    # LP-LR preset cut to 50 workflows at the preset's 50 workflows/s, with 10
    # repetitions (10 sparse networks) per unit. The network drives the work:
    # candidates per repetition vary about four times as much between
    # networks as between workflow streams, so a run covers as many networks
    # as it can. With 16 networks of 500 workflows per run, completion_pct
    # spread 10% between seeds; with 70 of 100 workflows it spread 1.4%.
    lplr = scenario_config(
        "LP-LR", "soft_iso", workload={"batch_size": 50, "arrival_rate": 50.0}, measure_timing=False
    )
    churn_base = ExperimentConfig(algorithm="random_aware")
    churn = dataclasses.replace(churn_base, workload=dataclasses.replace(churn_base.workload, batch_size=3000))
    return {
        "lpmr-search": Workload("lpmr-search", lpmr, min_units=20, max_units=40, warmup_workflows=2),
        "lplr-sparse": Workload("lplr-sparse", lplr, min_units=14, max_units=36, warmup_workflows=20, repetitions=10),
        "sim-churn": Workload("sim-churn", churn, min_units=3, max_units=10, warmup_workflows=200, fixed_topology=True),
    }


def input_seed(seed: int) -> int:
    """The recorded seed whose inputs a run with ``--seed seed`` uses."""
    return seed if seed == HELD_OUT_SEED else seed % SEED_CYCLE


def unit_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


Interval = tuple[float, float]  # perf_counter readings at start and end


@dataclasses.dataclass
class Inputs:
    workflows: list
    network: object
    times: dict[str, Interval]


def build_inputs(wl: Workload, seed: int, index: int) -> Inputs:
    """Profiles, catalog, workflows and a fresh network for one unit (for
    ``lplr-sparse``, the warm-up's, built the way ``run_experiment`` builds
    one repetition)."""
    cfg = wl.config
    u = unit_seed(seed, index)
    t0 = clock()
    profiles = qflow.load_profiles(cfg.profiles_path)
    t1 = clock()
    catalog = qflow.generate_catalog(
        cfg.catalog_size, qubit_range=cfg.workload.qubit_range, seed=4 * u + 3, shots=cfg.workload.shots_default
    )
    t2 = clock()
    workflows = qflow.generate_workload(dataclasses.replace(cfg.workload, seed=4 * u + 1), catalog)
    t3 = clock()
    topology = cfg.topology if wl.fixed_topology else dataclasses.replace(cfg.topology, seed=4 * u + 2)
    network = qflow.generate_network(topology, profiles)
    t4 = clock()
    times = {"profiles": (t0, t1), "catalog": (t1, t2), "workflows": (t2, t3), "network": (t3, t4)}
    return Inputs(workflows, network, times)


def make_allocator(wl: Workload, seed: int, index: int):
    cfg = wl.config
    return qflow.make_allocator(
        cfg.algorithm,
        cfg.weights,
        cfg.params,
        soft_config=cfg.soft_config,
        base_seed=4 * unit_seed(seed, index) + 4,
        trial_multiplier=cfg.trial_multiplier,
    )


# --------------------------------------------------------------------------
# One simulation, recorded


class CheckFailed(Exception):
    """A run's outputs break an invariant or differ from the recorded digest."""


@dataclasses.dataclass
class SimRecord:
    workflows: list
    network: object
    state: object
    calls: list  # (workflow, start, end, AllocationOutcome) per allocator call
    span: Interval


def check_idle(network) -> None:
    for node in network.nodes:
        if node.next_available_time != 0.0 or node.queue:
            raise CheckFailed(f"node {node.id} is not idle at the start of a timed run")


def timed_builders(module, setups: list[dict[str, Interval]], host: HostSpeed) -> dict[str, object]:
    """Timing wrappers for the input builders that ``module`` looks up. Each
    ``load_profiles`` call opens a new set-up sample in ``setups``."""
    keys = dict(zip(BUILDERS, ("profiles", "catalog", "workflows", "network")))

    def wrap(name):
        fn = getattr(module, name)

        def builder(*args, **kwargs):
            host.tick()
            t0 = clock()
            out = fn(*args, **kwargs)
            if name == "load_profiles":
                setups.append({})
            setups[-1][keys[name]] = (t0, clock())
            return out

        return builder

    return {name: wrap(name) for name in BUILDERS}


def recording_simulate(run_simulation, records: list, tracer: Tracer | None, host: HostSpeed):
    """A drop-in for ``run_simulation`` that checks the network is idle,
    times every allocator call and keeps what the run decided. Untraced, it
    samples host speed between allocator calls."""

    def simulate(workflows, network, allocator, params, **kwargs):
        check_idle(network)
        calls: list = []
        if tracer is None:

            def call(workflow, *args):
                host.tick()
                t0 = clock()
                outcome = allocator(workflow, *args)
                calls.append((workflow, t0, clock(), outcome))
                return outcome

        else:
            attempts: Counter = Counter()

            def call(workflow, *args):
                attempts[workflow.id] += 1
                t0 = clock()
                with tracer.span(DECIDE, (workflow.id, attempts[workflow.id])):
                    outcome = allocator(workflow, *args)
                calls.append((workflow, t0, clock(), outcome))
                return outcome

        t0 = clock()
        if tracer is None:
            state = run_simulation(workflows, network, call, params, **kwargs)
        else:
            with tracer.span(RUN):
                state = run_simulation(workflows, network, call, params, **kwargs)
        records.append(SimRecord(list(workflows), network, state, calls, (t0, clock())))
        return state

    return simulate


def check_record(rec: SimRecord) -> None:
    """Structural checks that hold for any correct run."""
    by_id = {wf.id: wf for wf in rec.workflows}
    accepted = {}
    for wf, _, _, outcome in rec.calls:
        if wf.id in accepted:
            raise CheckFailed(f"{wf.id} offered again after it was placed")
        if outcome.succeeded:
            if not qflow.validate_allocation(wf, rec.network, outcome.allocation):
                raise CheckFailed(f"{wf.id}: allocation violates a constraint")
            accepted[wf.id] = outcome.allocation.assignment
    state = rec.state
    completed = [wf.id for wf in state.completed]
    failed = [wf.id for wf in state.failed]
    if set(completed) != set(accepted) or len(completed) != len(accepted):
        raise CheckFailed("completed workflows differ from accepted allocations")
    if set(completed) & set(failed) or len(completed) + len(failed) != len(by_id):
        raise CheckFailed("completed and failed workflows do not partition the workload")

    starts, finishes = {}, {}
    node_last: dict[int, float] = {}
    for ex in state.executions:
        wf = by_id[ex.workflow_id]
        if accepted[wf.id][ex.task_index] != ex.node_index:
            raise CheckFailed(f"{wf.id} task {ex.task_index} ran off its assigned node")
        if ex.start < wf.arrival_time or ex.finish < ex.start:
            raise CheckFailed(f"{wf.id} task {ex.task_index} has an impossible interval")
        if ex.start < node_last.get(ex.node_index, 0.0):
            raise CheckFailed(f"node {ex.node_index} runs two tasks at once")
        node_last[ex.node_index] = ex.finish
        starts[(wf.id, ex.task_index)] = ex.start
        finishes[(wf.id, ex.task_index)] = ex.finish
    allocated = 0
    for wf_id in completed:
        wf = by_id[wf_id]
        allocated += len(wf.tasks)
        if any((wf_id, j) not in starts for j in range(len(wf.tasks))):
            raise CheckFailed(f"{wf_id}: placed but not every task ran")
        for a, b in wf.edges:
            if starts[(wf_id, b)] < finishes[(wf_id, a)]:
                raise CheckFailed(f"{wf_id}: task {b} started before its predecessor {a} finished")
    m = state.metrics
    total = sum(len(wf.tasks) for wf in rec.workflows)
    if m.tasks_allocated != allocated or m.tasks_total != total or len(state.executions) != allocated:
        raise CheckFailed("task accounting differs from the timeline")


def check_files(files: dict[str, bytes], records: list[SimRecord], repetitions: int) -> None:
    """The timing-free result files agree with the recorded simulations."""
    rows = files["results.csv"].decode().splitlines()
    header = rows[0].split(",")
    body = [dict(zip(header, row.split(","))) for row in rows[1:]]
    if len(body) != repetitions + 2 or len(records) != repetitions:
        raise CheckFailed("results.csv does not hold one row per repetition plus mean and std")
    for row, rec in zip(body, records):
        if row["decision_time"] != "0.0":
            raise CheckFailed("results.csv carries a decision time although timing is off")
        if row["completion_pct"] != repr(rec.state.metrics.completion_pct):
            raise CheckFailed("results.csv completion differs from the simulation")
    summary = json.loads(files["summary.json"])
    if summary["config"]["repetitions"] != repetitions or "disabled" not in summary["timing_note"]:
        raise CheckFailed("summary.json does not describe the timing-free run")


def digest(records: list[SimRecord], files: dict[str, bytes]) -> str:
    """Hash of everything the unit decided: each attempt's outcome and
    assignment, the task timeline, completion and the result files. Host
    times never enter it."""
    h = hashlib.sha256()
    for rec in records:
        attempts: Counter = Counter()
        for wf, _, _, outcome in rec.calls:
            attempts[wf.id] += 1
            placed = sorted(outcome.allocation.assignment.items()) if outcome.succeeded else None
            h.update(f"A {wf.id} {attempts[wf.id]} {placed}\n".encode())
        for ex in rec.state.executions:
            h.update(f"E {ex.workflow_id} {ex.task_index} {ex.node_index} {ex.start!r} {ex.finish!r}\n".encode())
        completed = sorted(wf.id for wf in rec.state.completed)
        failed = sorted(wf.id for wf in rec.state.failed)
        h.update(f"C {completed} F {failed} {rec.state.metrics.completion_pct!r}\n".encode())
    for name in sorted(files):
        h.update(name.encode() + b"\n" + files[name])
    return h.hexdigest()[:20]


# --------------------------------------------------------------------------
# Units


def build_seconds(times: dict[str, Interval], scale: float) -> dict[str, float]:
    """One build's times, in reference seconds."""
    return {key: (t1 - t0) * scale for key, (t0, t1) in times.items()}


def sampled_build(wl: Workload, seed: int, index: int, host: HostSpeed) -> tuple[Inputs, dict[str, float]]:
    """Build unit ``index``'s inputs between host-speed samples; return them
    with the build's times in reference seconds."""
    s0 = clock()
    host.sample(HOST_SAMPLES_AROUND_UNIT)
    inputs = build_inputs(wl, seed, index)
    host.sample(HOST_SAMPLES_AROUND_UNIT)
    return inputs, build_seconds(inputs.times, host.scale(s0, clock()))


@dataclasses.dataclass
class Pass:
    """What the metrics need from one execution of a unit's inputs,
    untraced or traced; the simulation state itself is not kept. Times are
    in reference seconds (see :mod:`hostspeed`), apart from ``raw_wall``."""

    wall: float
    raw_wall: float
    scale: float  # reference seconds per host second over the unit
    sim_wall: float
    call_seconds: list[float]
    raw_call_seconds: list[float]
    candidates: list[int]
    accepted_costs: list[float]
    workflows_offered: int
    tasks_allocated: int
    tasks_total: int
    digest: str
    setups: list[dict[str, float]]
    tracer: Tracer | None = None

    @classmethod
    def summarize(
        cls,
        host: HostSpeed,
        scale: float,
        raw_wall: float,
        records: list[SimRecord],
        digest: str,
        setups: list[dict[str, Interval]],
        tracer: Tracer | None,
    ) -> "Pass":
        calls = [c for rec in records for c in rec.calls]
        return cls(
            wall=raw_wall * scale,
            raw_wall=raw_wall,
            scale=scale,
            sim_wall=sum(rec.span[1] - rec.span[0] - host.spent(*rec.span) for rec in records) * scale,
            call_seconds=[(t1 - t0) * scale for _, t0, t1, _ in calls],
            raw_call_seconds=[t1 - t0 for _, t0, t1, _ in calls],
            candidates=[outcome.candidates_examined for _, _, _, outcome in calls],
            accepted_costs=[o.allocation.cost_breakdown.total for _, _, _, o in calls if o.succeeded],
            workflows_offered=sum(len({c[0].id for c in rec.calls}) for rec in records),
            tasks_allocated=sum(rec.state.metrics.tasks_allocated for rec in records),
            tasks_total=sum(rec.state.metrics.tasks_total for rec in records),
            digest=digest,
            setups=[build_seconds(times, scale) for times in setups],
            tracer=tracer,
        )


def run_pass(wl: Workload, seed: int, index: int, tracer: Tracer | None, host: HostSpeed) -> Pass:
    """Build unit ``index``'s inputs and run it once; ``wall`` excludes the
    builds, which are returned as set-up samples, and the host-speed
    samples."""
    records: list[SimRecord] = []
    files: dict[str, bytes] = {}
    setups: list[dict[str, Interval]] = []
    s0 = clock()
    host.sample(HOST_SAMPLES_AROUND_UNIT)
    if wl.repetitions:
        experiments = sys.modules["qflow.experiments"]
        config = dataclasses.replace(wl.config, base_seed=unit_seed(seed, index) * wl.repetitions, repetitions=wl.repetitions)
        out_dir = OUT_DIR / wl.name / f"unit-{index}"
        shutil.rmtree(out_dir, ignore_errors=True)
        names = timed_builders(experiments, setups, host)
        names["run_simulation"] = recording_simulate(experiments.run_simulation, records, tracer, host)
        with swapped(experiments, names):
            t0 = clock()
            qflow.run_experiment(config, out_dir)
            t1 = clock()
        builds = sum(b - a for times in setups for a, b in times.values())
        files = {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}
        check_files(files, records, wl.repetitions)
    else:
        inputs = build_inputs(wl, seed, index)
        setups.append(inputs.times)
        builds = 0.0
        simulate = recording_simulate(qflow.run_simulation, records, tracer, host)
        cfg = wl.config
        allocator = make_allocator(wl, seed, index)
        t0 = clock()
        simulate(
            inputs.workflows,
            inputs.network,
            allocator,
            cfg.params,
            retry_limit=cfg.retry_limit,
            dependency_gating=cfg.dependency_gating,
            gate_comm_latency=cfg.gate_comm_latency,
        )
        t1 = clock()
    host.sample(HOST_SAMPLES_AROUND_UNIT)
    scale = host.scale(s0, clock())
    raw_wall = t1 - t0 - host.spent(t0, t1) - builds
    for rec in records:
        check_record(rec)
    return Pass.summarize(host, scale, raw_wall, records, digest(records, files), setups, tracer)


def digest_path(workload: str) -> Path:
    return DIGEST_DIR / f"{workload}.json"


def expected_digests(workload: str, seed: int) -> list[str]:
    """Per-unit digests recorded for this seed by ``record.py``; empty when
    none are, which fails every unit the digests should cover."""
    return json.loads(digest_path(workload).read_text(encoding="utf-8")).get(str(seed), [])


def run_units(wl: Workload, seed: int, seconds: float, trace: bool, host: HostSpeed):
    """Warm up, then run units until the time budget is spent."""
    expected = expected_digests(wl.name, seed)
    setups: list[dict[str, float]] = []

    warm, warm_setup = sampled_build(wl, seed, WARMUP_INDEX, host)
    setups.append(warm_setup)
    simulate = recording_simulate(qflow.run_simulation, [], None, host)
    simulate(warm.workflows[: wl.warmup_workflows], warm.network, make_allocator(wl, seed, WARMUP_INDEX), wl.config.params)

    plain: list[Pass] = []
    traced: list[Pass] = []
    durations: list[float] = []
    attempted = failed = 0
    started = clock()
    index = 0
    min_units = TRACED_MIN_UNITS if trace else wl.min_units
    setups_per_unit = -(-MIN_SETUP_SAMPLES // wl.min_units)
    while index < wl.max_units:
        if index >= min_units and clock() - started + statistics.median(durations) > seconds:
            break
        unit_started = clock()
        attempted += 1
        try:
            first = run_pass(wl, seed, index, None, host)
            setups.extend(first.setups)
            if index < wl.min_units:
                if index >= len(expected):
                    raise CheckFailed(f"unit {index}: no digest recorded for seed {seed}")
                if first.digest != expected[index]:
                    raise CheckFailed(f"unit {index}: digest {first.digest} differs from recorded {expected[index]}")
            if trace:
                tracer = Tracer()
                with patched(tracer):
                    second = run_pass(wl, seed, index, tracer, host)
                setups.extend(second.setups)
                if second.digest != first.digest:
                    raise CheckFailed(f"unit {index}: traced digest {second.digest} differs from untraced {first.digest}")
                traced.append(second)
            plain.append(first)
            # Rebuilding the unit's inputs keeps set-up samples spread over the run.
            for _ in range(setups_per_unit - len(first.setups)):
                setups.append(sampled_build(wl, seed, index, host)[1])
        except Exception:  # a failing unit is counted and reported; the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
        durations.append(clock() - unit_started)
        index += 1
    return plain, traced, setups, attempted, failed, len(expected)


# --------------------------------------------------------------------------
# Metrics


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def counts(passes: list[Pass]) -> dict[str, float]:
    """Exact counts over the given passes; they repeat for a given seed."""
    n_calls = sum(len(p.call_seconds) for p in passes)
    candidates = [c for p in passes for c in p.candidates]
    out = {
        "allocators.calls": n_calls,
        "allocators.success_ratio": sum(len(p.accepted_costs) for p in passes) / n_calls,
        "allocators.candidates_mean": statistics.fmean(candidates),
        "allocators.candidates_p50": statistics.median(candidates),
        "allocators.candidates_p99": quantile(candidates, 99),
        "simulation.attempts": n_calls,
        "simulation.retries": n_calls - sum(p.workflows_offered for p in passes),
    }
    tracers = [p.tracer for p in passes if p.tracer is not None]
    if tracers:
        span_counts = [t.totals()[2] for t in tracers]
        out.update(
            {
                "costs.score_calls": sum(c["score"] for c in span_counts),
                "costs.bounds_calls": sum(c["bounds"] for c in span_counts),
                "allocators.feasible_calls": sum(c["feasible"] for c in span_counts),
                "matcher.mappings": sum(t.mappings for t in tracers),
                "matcher.streams": sum(t.streams for t in tracers),
                "matcher.streams_exhausted": sum(t.streams_exhausted for t in tracers),
                "experiments.bytes_written": sum(t.bytes_written for t in tracers),
            }
        )
    return out


def raw_times(plain: list[Pass]) -> dict[str, float]:
    """The unscaled host times behind ``wall_s`` and ``decision_ms_*``."""
    call_ms = [1e3 * seconds for p in plain for seconds in p.raw_call_seconds]
    return {
        "wall_s": statistics.median(p.raw_wall for p in plain),
        "decision_ms_p50": statistics.median(call_ms),
        "decision_ms_p90": quantile(call_ms, 90),
    }


def end_to_end(wl: Workload, plain: list[Pass], setups: list[dict[str, float]], ok_pct: float) -> dict:
    call_ms = [1e3 * seconds for p in plain for seconds in p.call_seconds]
    exact = plain[: wl.min_units]
    allocated = sum(p.tasks_allocated for p in exact)
    total = sum(p.tasks_total for p in exact)
    costs = [cost for p in exact for cost in p.accepted_costs]
    return {
        "setup_s": (statistics.median(sum(s.values()) for s in setups), "s"),
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "decisions_per_s": (len(call_ms) / sum(p.sim_wall for p in plain), "1/s"),
        "decision_ms_p50": (statistics.median(call_ms), "ms"),
        "decision_ms_p90": (quantile(call_ms, 90), "ms"),
        "completion_pct": (100.0 * allocated / total, "%"),
        "mean_cost": (statistics.fmean(costs), "cost"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "units_ok_pct": (ok_pct, "%"),
    }


def per_layer(wl: Workload, plain: list[Pass], traced: list[Pass], setups: list[dict[str, float]]):
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    n_spans = dict.fromkeys(SPAN_NAMES, 0)
    for p in traced:
        t, s, c = p.tracer.totals()
        for key in SPAN_NAMES:
            totals[key] += t[key] * p.scale
            own[key] += s[key] * p.scale
            n_spans[key] += c[key]
    n = len(traced)
    traced_wall = sum(p.wall for p in traced)
    plain_wall = sum(p.wall for p in plain[:n])
    exact = counts(traced[:TRACED_MIN_UNITS])

    def per_unit(key: str) -> float:
        return totals[key] / n

    def share(part: float, whole: float) -> float:
        return 100.0 * part / whole if whole else 0.0

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    metrics = {
        "profiles.load_s": (setup_median("profiles"), "s"),
        "workload.catalog_s": (setup_median("catalog"), "s"),
        "workload.workflows_s": (setup_median("workflows"), "s"),
        "workload.network_s": (setup_median("network"), "s"),
        "matcher.enum_pct": (share(totals["enum"], totals["decide"]), "%"),
        "matcher.mappings": (exact["matcher.mappings"], "count"),
        "matcher.streams": (exact["matcher.streams"], "count"),
        "matcher.streams_exhausted": (exact["matcher.streams_exhausted"], "count"),
        "costs.score_s": (per_unit("score"), "s"),
        "costs.score_calls": (exact["costs.score_calls"], "count"),
        "costs.us_per_score": (1e6 * totals["score"] / max(n_spans["score"], 1), "us"),
        "costs.bounds_s": (per_unit("bounds"), "s"),
        "costs.bounds_calls": (exact["costs.bounds_calls"], "count"),
        "allocators.calls": (exact["allocators.calls"], "count"),
        "allocators.decide_s": (per_unit("decide"), "s"),
        "allocators.self_s": (own["decide"] / n, "s"),
        "allocators.feasible_calls": (exact["allocators.feasible_calls"], "count"),
        "allocators.feasible_s": (per_unit("feasible"), "s"),
        "allocators.success_ratio": (exact["allocators.success_ratio"], "ratio"),
        "allocators.candidates_mean": (exact["allocators.candidates_mean"], "count"),
        "allocators.candidates_p50": (exact["allocators.candidates_p50"], "count"),
        "allocators.candidates_p99": (exact["allocators.candidates_p99"], "count"),
        "simulation.run_s": (per_unit("run"), "s"),
        "simulation.self_s": (own["run"] / n, "s"),
        "simulation.attempts": (exact["simulation.attempts"], "count"),
        "simulation.retries": (exact["simulation.retries"], "count"),
        "simulation.us_per_attempt_self": (1e6 * own["run"] / max(n_spans["decide"], 1), "us"),
        "experiments.write_pct": (share(totals["write"], traced_wall), "%"),
        "experiments.bytes_written": (exact["experiments.bytes_written"], "bytes"),
        "trace.overhead_pct": (100.0 * (traced_wall / plain_wall - 1.0), "%"),
    }
    # Times of layers that some workload never enters; printed on the info
    # line rather than as metrics, where they would read 0 on every run.
    extra = {
        "counts_first_units": exact,
        "matcher.enum_s": per_unit("enum"),
        "matcher.us_per_mapping": 1e6 * totals["enum"] / n_spans["enum"] if n_spans["enum"] else None,
        "experiments.write_s": per_unit("write"),
        "layer_shares_pct": {
            "matcher.enum": share(totals["enum"], traced_wall),
            "costs.score": share(totals["score"], traced_wall),
            "costs.bounds": share(totals["bounds"], traced_wall),
            "allocators.feasible": share(totals["feasible"], traced_wall),
            "allocators.self": share(own["decide"], traced_wall),
            "simulation.self": share(own["run"], traced_wall),
            "experiments.write": share(totals["write"], traced_wall),
            "unattributed": share(traced_wall - totals["run"] - totals["write"], traced_wall),
        },
    }
    return metrics, extra


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    global qflow
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qflow = import_qflow()
    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(table)}")
    wl = table[args.workload]
    trace = bool(args.trace)

    seed = input_seed(args.seed)
    host = HostSpeed()
    plain, traced, setups, attempted, failed, n_recorded = run_units(wl, seed, args.seconds, trace, host)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    if not plain:
        print(json.dumps(result))
        return 1

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "input_seed": seed,
        "units": len(plain),
        "digests": [p.digest for p in plain],
        "digests_recorded": n_recorded,
        "decision_samples": sum(len(p.call_seconds) for p in plain),
        "setup_samples": len(setups),
        "host_kernel_ms_median": 1e3 * statistics.median(host.durations),
        "host_samples": len(host.durations),
        "raw_host_seconds": raw_times(plain),
    }
    if trace:
        metrics, extra = per_layer(wl, plain, traced, setups)
        info.update(extra)
        trace_dir = OUT_DIR / "trace"
        for stale in trace_dir.glob(f"{wl.name}-s{args.seed}-u*"):
            stale.unlink()
        for i, p in enumerate(traced):
            p.tracer.write(trace_dir / f"{wl.name}-s{args.seed}-u{i}")
    else:
        ok_pct = 100.0 * (attempted - failed) / attempted
        metrics = end_to_end(wl, plain, setups, ok_pct)
        info["counts_first_units"] = counts(plain[: wl.min_units])
    print(json.dumps(info, sort_keys=True))
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
