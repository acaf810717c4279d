"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report. Two sub-checks need a word on what they compare:

* criterion 4, SP-LR completion for random_aware. The allocator makes
  ``len(tasks)`` draws per attempt; each draw respects capacity but not
  connectivity, and is kept only if the skeleton lands on links. Scenario
  failures are terminal (``retry_limit=0``). A 2-task chain on a network of
  n nodes and m links is therefore placed with probability
  ``1 - (1 - m/C(n,2))**2``, about 50%, and no document promises 100%. The
  check asserts that the observed count agrees with that rate, computed
  from each repetition's own network, within a binomial |z| <= 3. At base
  seed 0 it reads 44 placed of 100 against 50.8 +- 4.9 expected; over
  2,000 workflows (base seeds 0-190, step 10) 1,032 were placed against
  1,048 +- 22. A single draw per attempt would read about 30% (z near -4);
  a connectivity-aware or retrying allocator about 100% (z near +10).
* criterion 5, the 0.8 soft/greedy overhead ratio. ``comm_overhead`` sums
  over placed workflows, and soft_iso places 96.1% of tasks against
  greedy_dfs's 71.1%, so the plain sums (66.71 against 48.82, ratio 1.366)
  reward placing less; per completed workflow the ratio is still 1.16
  (mean over repetitions; 1.13 pooled), because greedy completes the
  smaller workflows. The check therefore compares the same work: within
  each repetition, the network cost of the workflows both allocators
  placed. That paired ratio reads 0.873 (0.858 with soft_iso's early
  stopping off), so the check stays red: on identical workflows soft_iso's
  placements carry 12.7% less overhead, short of the 20% the bound asks.
  The classical term (0.02 per measured qubit, pinned by criterion 1) does
  not depend on placement; what placement can avoid is
  brisbane's quantum term, about 9x that of torino or marrakesh. With
  zeta = 0 the paired ratio is 0.799, with zeta = 0 and gamma = 1 it is
  0.807, so the bound sits at the limit of what placement can reach with
  the bundled profiles. The abstract does not say against which baseline,
  weights or normalisation its 30% was measured, so the bound stays 0.8.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from qflow.allocators import (
    EXHAUSTIVE,
    exhaustive_oracle,
    greedy_dfs,
    random_aware,
    soft_iso,
)
from qflow.costs import (
    classical_link_cost,
    error_cost,
    fidelity,
    quantum_link_cost,
    runtime_cost,
    workflow_network_cost,
)
from qflow.experiments import ExperimentConfig, repetition, run_experiment, scenario_config, simulate
from qflow.model import Allocation, NetworkParams, WeightConfig, validate_allocation
from qflow.simulation import AllocationOutcome, qpu_time_distribution, run_simulation
from qflow.workload import TopologySpec, WorkloadSpec

from .conftest import backlog_at, chain_workflow, make_network, make_task, random_small_instance

getcontext().prec = 50

WEIGHTS = WeightConfig()
PARAMS = NetworkParams()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def replayed(config: ExperimentConfig) -> list:
    """``(workload, final state)`` of each repetition of ``config``, in
    repetition order."""
    reps = (repetition(config, i) for i in range(config.repetitions))
    return [(rep.workload, simulate(config, rep)) for rep in reps]


def mean(runs, name: str) -> float:
    """The mean of metric ``name`` over replayed runs, as ``ExperimentResult.mean``."""
    return statistics.fmean(getattr(state.metrics, name) for _, state in runs)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_cost_formula_unit_suite(brisbane):
    started = time.perf_counter()
    task = make_task(qubits=5, depth=6, two_qubit_gates=4, measured_qubits=5, shots=1000)

    err_oracle = float(
        1
        - (1 - Decimal("2.517e-4")) ** 6
        * (1 - Decimal("7.042e-3")) ** 2
        * (1 - Decimal("2.393e-2")) ** 5
    )
    rt_oracle = float(Fraction(6 * 1000, 180000))
    hm = 2 * Decimal("220.53e-6") * Decimal("128.92e-6") / (
        Decimal("220.53e-6") + Decimal("128.92e-6")
    )
    nq_oracle = float(Decimal("0.5") * 10 * 5 * Decimal("660e-9") / hm)
    nc_oracle = 0.02 * 5

    checks = {
        "error": (error_cost(task, brisbane), err_oracle),
        "runtime": (runtime_cost(task, brisbane), rt_oracle),
        "quantum_link": (quantum_link_cost(task, brisbane, PARAMS), nq_oracle),
        "classical_link": (classical_link_cost(task, PARAMS), nc_oracle),
        "fidelity": (fidelity(task, brisbane), 1.0 - err_oracle),
    }
    elapsed = time.perf_counter() - started
    ok = all(math.isclose(got, want, rel_tol=1e-9) for got, want in checks.values())
    report(
        "1",
        ok and elapsed < 1.0,
        f"error {checks['error'][0]:.6f}~0.1278, runtime {checks['runtime'][0]:.6f}, "
        f"Nq {checks['quantum_link'][0]:.6f}~0.1014, Nc {checks['classical_link'][0]:.4f}, "
        f"elapsed {elapsed:.3f}s",
    )
    for name, (got, want) in checks.items():
        assert math.isclose(got, want, rel_tol=1e-9), name
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_25)
    instances = 0
    feasible = 0
    for _ in range(250):
        wf, net, backlog = random_small_instance(rng, max_tasks=4, max_nodes=6)
        instances += 1
        soft = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE, backlog)
        oracle = exhaustive_oracle(wf, net, WEIGHTS, PARAMS, backlog)
        assert soft.succeeded == oracle.succeeded, f"instance {instances}"
        if soft.succeeded:
            feasible += 1
            assert abs(
                soft.allocation.cost_breakdown.total - oracle.allocation.cost_breakdown.total
            ) <= 1e-9
    elapsed = time.perf_counter() - started
    assert instances >= 200
    assert elapsed < 60.0
    report(
        "2",
        True,
        f"{instances} instances ({feasible} feasible) identical to the exhaustive optimum "
        f"within 1e-9, elapsed {elapsed:.1f}s",
    )


# ------------------------------------------------------- criteria 3 and 6

@pytest.fixture(scope="module")
def fuzz_corpus():
    """10,000 allocator invocations over seeded random instances."""
    rng = random.Random(0xF00D)
    records = []
    per_algorithm = 2500
    for i in range(per_algorithm):
        wf, net, free_at = random_small_instance(rng, max_tasks=4, max_nodes=6)
        backlog = backlog_at(free_at, rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        records.append(("soft_iso", wf, net, soft_iso(wf, net, WEIGHTS, PARAMS, backlog=backlog)))
        records.append(
            (
                "random_aware",
                wf,
                net,
                random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=i, backlog=backlog),
            )
        )
        records.append(("greedy_dfs", wf, net, greedy_dfs(wf, net)))
        records.append(
            ("exhaustive_oracle", wf, net, exhaustive_oracle(wf, net, WEIGHTS, PARAMS, backlog))
        )
    return records


def test_criterion_3_feasibility_fuzzing(fuzz_corpus):
    started = time.perf_counter()
    violations = 0
    successes = 0
    for name, wf, net, outcome in fuzz_corpus:
        if outcome.succeeded:
            successes += 1
            if not validate_allocation(wf, net, outcome.allocation):
                violations += 1
    elapsed = time.perf_counter() - started
    report(
        "3",
        violations == 0,
        f"{len(fuzz_corpus)} invocations, {successes} successes, {violations} constraint "
        f"violations, check {elapsed:.1f}s",
    )
    assert len(fuzz_corpus) == 10_000
    assert violations == 0


def test_criterion_6_soft_iso_candidate_bound(fuzz_corpus):
    worst = 0.0
    for name, wf, net, outcome in fuzz_corpus:
        if name != "soft_iso":
            continue
        cap = 10 ** len(wf.tasks)
        assert outcome.candidates_examined <= cap
        worst = max(worst, outcome.candidates_examined / cap)
    report("6", True, f"every soft_iso call within its 10^|T| budget (worst {worst:.3f} of cap)")


# ---------------------------------------------------------------- criterion 4

SP_REPS = 10
DESK_REPS = 20


@pytest.fixture(scope="module")
def desk_lp_lr():
    """Desk-scaled LP-LR: pinned 4-task workflows, batch 100, terminal failures."""
    results = {}
    for algo in ("soft_iso", "greedy_dfs", "random_aware"):
        config = scenario_config(
            "LP-LR",
            algo,
            base_seed=0,
            repetitions=DESK_REPS,
            workload={"batch_size": 100, "tasks_per_group": 4, "tasks_per_group_min": 4},
        )
        results[algo] = run_experiment(config)
    return results


@pytest.fixture(scope="module")
def desk_lp_mr():
    results = {}
    for algo in ("soft_iso", "greedy_dfs", "random_aware"):
        config = scenario_config(
            "LP-MR", algo, base_seed=0, repetitions=5, workload={"batch_size": 50}
        )
        results[algo] = run_experiment(config)
    return results


def random_chain_placement(runs) -> tuple[int, float, float]:
    """Placed workflows, expected placements and sd under random_aware's
    documented rate: one attempt per 2-task chain, two connectivity-blind
    draws, each landing on one of m links among C(n,2) node pairs."""
    placed, expected, variance = 0, 0.0, 0.0
    for workload, state in runs:
        network = state.network
        hit = len(network.links) / math.comb(len(network.nodes), 2)
        for wf in workload:
            assert len(wf.tasks) == 2 and len(wf.skeleton) == 1, wf.id
            assert all(node.qubits >= t.qubits for node in network.nodes for t in wf.tasks)
            p = 1 - (1 - hit) ** len(wf.tasks)
            expected += p
            variance += p * (1 - p)
        placed += len(state.completed)
    return placed, expected, math.sqrt(variance)


def test_criterion_4_small_program_scenarios():
    rows = {
        (name, algo): replayed(scenario_config(name, algo, base_seed=0, repetitions=SP_REPS))
        for name in ("SP-LR", "SP-MR")
        for algo in ("soft_iso", "greedy_dfs", "random_aware")
    }
    placed, expected, sd = random_chain_placement(rows.pop(("SP-LR", "random_aware")))
    z = (placed - expected) / sd
    full = {key: mean(runs, "completion_pct") for key, runs in rows.items()}
    detail = "; ".join(f"{name}/{algo}={round(pct)}%" for (name, algo), pct in full.items())
    ok = all(round(pct) == 100 for pct in full.values()) and abs(z) <= 3
    report(
        "4 (SP completion)",
        ok,
        f"{detail}; SP-LR/random_aware placed {placed} vs expected {expected:.1f} +- {sd:.1f} "
        f"(z {z:+.2f}, needs |z| <= 3)",
    )
    for (name, algo), pct in full.items():
        assert round(pct) == 100, f"{name} {algo}: {pct:.2f}%"
    assert abs(z) <= 3, (
        f"SP-LR random_aware placed {placed} workflows, expected {expected:.1f} +- {sd:.1f} "
        f"from its documented draw rate (z {z:+.2f}); see the module docstring"
    )


def test_criterion_4_desk_lp_lr_margins(desk_lp_lr):
    soft = desk_lp_lr["soft_iso"].mean("completion_pct")
    greedy = desk_lp_lr["greedy_dfs"].mean("completion_pct")
    rand = desk_lp_lr["random_aware"].mean("completion_pct")
    ok = soft >= 2 * greedy and rand < greedy and rand < soft
    report(
        "4 (LP-LR margins)",
        ok,
        f"soft {soft:.2f}% >= 2x greedy {greedy:.2f}%; random {rand:.2f}% lowest",
    )
    assert soft >= 2 * greedy
    assert rand < greedy and rand < soft


def test_criterion_4_decision_time_ordering(desk_lp_lr, desk_lp_mr):
    for label, batch in (("LP-LR", desk_lp_lr), ("LP-MR", desk_lp_mr)):
        greedy = batch["greedy_dfs"].mean("decision_time")
        rand = batch["random_aware"].mean("decision_time")
        soft = batch["soft_iso"].mean("decision_time")
        report(
            f"4 (decision time {label})",
            greedy < rand < soft,
            f"greedy {greedy:.4f}s < random {rand:.4f}s < soft {soft:.4f}s",
        )
        assert greedy < rand < soft


# ---------------------------------------------------------------- criterion 5

def trend_config(algo: str, tasks: int) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=algo,
        workload=WorkloadSpec(batch_size=50, tasks_per_group=tasks),
        topology=TopologySpec(node_count=5, link_probability=0.5),
        repetitions=100,
        base_seed=0,
        measure_timing=False,
    )


def placed_network_costs(state) -> dict[str, float]:
    """``workflow_network_cost`` of every workflow a run placed, by id."""
    assignments: dict[str, dict[int, int]] = {}
    for e in state.executions:
        assignments.setdefault(e.workflow_id, {})[e.task_index] = e.node_index
    return {
        wf.id: workflow_network_cost(wf, assignments[wf.id], state.network, PARAMS)
        for wf in state.completed
    }


def test_criterion_5_comm_overhead_trends():
    started = time.perf_counter()
    means = []
    for tasks in range(1, 6):
        runs = replayed(trend_config("soft_iso", tasks))
        means.append(mean(runs, "comm_overhead"))
        if tasks == 3:
            soft_runs = runs
    nondecreasing = all(means[i + 1] >= means[i] for i in range(len(means) - 1))
    greedy_runs = replayed(trend_config("greedy_dfs", 3))
    elapsed = time.perf_counter() - started
    report(
        "5 (monotone trend)",
        nondecreasing,
        "soft comm by tasks_per_group: " + ", ".join(f"{m:.2f}" for m in means),
    )
    # compare placements of the same work: the workflows both allocators
    # placed within each repetition (same seeds, so same workload and network)
    assert len(soft_runs) == len(greedy_runs) == 100
    paired, soft_sum, greedy_sum = 0, 0.0, 0.0
    for (workload, soft_state), (greedy_workload, greedy_state) in zip(soft_runs, greedy_runs):
        assert workload == greedy_workload
        soft_costs = placed_network_costs(soft_state)
        greedy_costs = placed_network_costs(greedy_state)
        assert math.isclose(sum(soft_costs.values()), soft_state.metrics.comm_overhead)
        for wf_id in sorted(soft_costs.keys() & greedy_costs.keys()):
            paired += 1
            soft_sum += soft_costs[wf_id]
            greedy_sum += greedy_costs[wf_id]
    ratio = soft_sum / greedy_sum
    report(
        "5 (soft vs greedy ratio)",
        ratio <= 0.8,
        f"paired ratio {ratio:.3f} (needs <= 0.8) over {paired} workflows placed by both: "
        f"soft {soft_sum:.2f} vs greedy {greedy_sum:.2f}; completion soft "
        f"{mean(soft_runs, 'completion_pct'):.1f}% greedy {mean(greedy_runs, 'completion_pct'):.1f}%; "
        f"elapsed {elapsed:.1f}s",
    )
    assert elapsed < 600.0
    assert nondecreasing
    assert ratio <= 0.8, (
        f"on the {paired} workflows both placed, soft_iso's network cost is {ratio:.3f} of "
        f"greedy_dfs's; see the module docstring"
    )


# ---------------------------------------------------------------- criterion 7

def _write_twice(config: ExperimentConfig, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out_dir=a)
    run_experiment(config, out_dir=b)
    return a, b


def test_criterion_7_determinism(tmp_path):
    plain = ExperimentConfig(
        algorithm="soft_iso",
        workload=WorkloadSpec(batch_size=8, tasks_per_group=3),
        topology=TopologySpec(node_count=5, link_probability=0.5),
        repetitions=3,
        base_seed=5,
        measure_timing=False,
    )
    scenario = scenario_config(
        "SP-LR", "random_aware", base_seed=2, repetitions=3, measure_timing=False
    )
    identical = True
    for config in (plain, scenario):
        a, b = _write_twice(config, tmp_path / config.algorithm)
        for name in ("results.csv", "qpu_shares.csv", "summary.json"):
            identical &= (a / name).read_bytes() == (b / name).read_bytes()
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    # with measured timing, everything except the clock column is identical
    timed = ExperimentConfig(
        algorithm="greedy_dfs",
        workload=WorkloadSpec(batch_size=6, tasks_per_group=2),
        topology=TopologySpec(node_count=4, link_probability=0.7),
        repetitions=3,
        measure_timing=True,
    )
    a, b = _write_twice(timed, tmp_path / "timed")
    import csv as _csv

    rows_a = list(_csv.reader((a / "results.csv").open()))
    rows_b = list(_csv.reader((b / "results.csv").open()))
    drop = rows_a[0].index("decision_time")
    strip = lambda rows: [[c for i, c in enumerate(r) if i != drop] for r in rows]
    assert strip(rows_a) == strip(rows_b)
    report(
        "7",
        identical,
        "byte-identical reruns for timing-free configs; measured-timing reruns identical "
        "in all columns except decision_time",
    )


# ---------------------------------------------------------------- criterion 8

def _fixed_allocator(assignments):
    def call(workflow, network, backlog):
        mapping = assignments.get(workflow.id)
        allocation = Allocation(assignment=mapping) if mapping else None
        return AllocationOutcome(allocation=allocation, candidates_examined=1)

    return call


def test_criterion_8_simulation_timeline_oracle():
    tol = 1e-12

    # 1: empty workload, every metric zero
    net = make_network([127], [])
    state = run_simulation([], net, _fixed_allocator({}), PARAMS)
    assert state.metrics.execution_time == 0.0
    assert state.metrics.wait_time == 0.0
    assert state.metrics.comm_overhead == 0.0
    assert state.metrics.completion_pct == 0.0

    # 2: one task on an idle node -> no wait, makespan is the task runtime
    net = make_network([127], [])
    wf = chain_workflow([5], wf_id="w0")
    state = run_simulation([wf], net, _fixed_allocator({"w0": {0: 0}}), PARAMS)
    duration = 6 * 1000 / 180000.0
    assert abs(state.metrics.wait_time - 0.0) <= tol
    assert abs(state.metrics.execution_time - duration) <= tol

    # 3: two identical workflows share one node -> the second waits exactly
    # the first task's duration
    net = make_network([127], [])
    wa = chain_workflow([5], wf_id="wa")
    wb = chain_workflow([5], wf_id="wb")
    state = run_simulation([wa, wb], net, _fixed_allocator({"wa": {0: 0}, "wb": {0: 0}}), PARAMS)
    starts = {e.workflow_id: e.start for e in state.executions}
    assert abs(starts["wa"] - 0.0) <= tol
    assert abs(starts["wb"] - duration) <= tol
    assert abs(state.metrics.wait_time - duration) <= tol
    assert abs(state.metrics.execution_time - 2 * duration) <= tol
    assert qpu_time_distribution(state) == [100.0]

    report("8", True, "all three hand-traced queue timelines exact to 1e-12")
