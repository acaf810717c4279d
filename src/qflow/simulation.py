"""Discrete-event simulation of the allocation pipeline.

Decision instants are event-driven: every distinct arrival time triggers a
pass in which all arrived, still-pending workflows are offered to the
allocator in FCFS order (ties broken by total qubit requirement, then user
priority). A successful allocation books each task on its QPU, first come
first served; a failed one is retried at later decision instants a bounded
number of times and then recorded as failed.

Task start times respect both the QPU's earlier bookings and, by default,
the workflow's dependency edges including the per-edge communication delay.
Both gating behaviours can be switched off to replicate the fully
asynchronous reading.

The simulator owns the decision clock: it times every allocator call with
``time.perf_counter``, so allocators stay pure functions of their inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Protocol

from . import allocators as alg
from .allocators import AllocationOutcome
from .costs import task_terms
from .model import NetworkParams, ResourceNetwork, Workflow, validate_allocation

DEFAULT_RETRY_LIMIT = 3


class Allocator(Protocol):
    def __call__(self, workflow: Workflow, network: ResourceNetwork, backlog: list[float]) -> AllocationOutcome: ...


@dataclass
class MetricsAccumulator:
    """Running totals of the six evaluation metrics, one attribute or
    property per name in :data:`qflow.experiments.METRIC_FIELDS`."""

    execution_time: float = 0.0
    wait_time: float = 0.0
    fidelity_sum: float = 0.0
    comm_overhead: float = 0.0
    decision_time: float = 0.0
    tasks_allocated: int = 0
    tasks_total: int = 0

    @property
    def avg_fidelity(self) -> float:
        return self.fidelity_sum / self.tasks_allocated if self.tasks_allocated else 0.0

    @property
    def completion_pct(self) -> float:
        return 100.0 * self.tasks_allocated / self.tasks_total if self.tasks_total else 0.0


@dataclass(slots=True)
class TaskExecution:
    """Timeline record of one executed task."""

    workflow_id: str
    task_index: int
    node_index: int
    start: float
    finish: float


@dataclass
class SimState:
    """Live simulation state; returned with final metrics after a run."""

    clock: float
    network: ResourceNetwork
    completed: list[Workflow] = field(default_factory=list)
    failed: list[Workflow] = field(default_factory=list)
    metrics: MetricsAccumulator = field(default_factory=MetricsAccumulator)
    executions: list[TaskExecution] = field(default_factory=list)
    busy_seconds: list[float] = field(default_factory=list)  # summed task durations per node
    free_at: list[float] = field(default_factory=list)  # when each node finishes its booked tasks


def run_simulation(
    workload: list[Workflow],
    network: ResourceNetwork,
    allocator: Allocator,
    params: NetworkParams,
    retry_limit: int = DEFAULT_RETRY_LIMIT,
    dependency_gating: bool = True,
    gate_comm_latency: bool = True,
) -> SimState:
    """Run one workload through the pipeline and return the final state.

    The network is only read. Each node's free time lives in
    ``state.free_at``, and an allocator call at decision time ``t`` gets the
    backlog ``max(free_at[k] - t, 0.0)`` per node, built once per pass and
    again after each booking, so no allocator may mutate it. So runs may
    share a network, and the cost terms the allocators cache on it stay
    valid. A successful outcome whose placement fails
    :func:`qflow.model.validate_allocation`, an index out of range included,
    raises ValueError naming the workflow before any of its tasks is booked;
    so does a workflow id repeated in ``workload``, before the first
    allocator call.

    Metrics follow the evaluation conventions: execution time is the
    workload makespan, wait time sums per-task (start - arrival), fidelity
    averages over allocated tasks, communication overhead sums the raw
    per-workflow network cost, decision time sums the wall-clock time
    (``time.perf_counter``) of every allocator invocation, failed attempts
    included, measured here around each call.
    """
    n = len(network.nodes)
    state = SimState(clock=0.0, network=network, busy_seconds=[0.0] * n, free_at=[0.0] * n)
    state.metrics.tasks_total = sum(len(wf.tasks) for wf in workload)
    order = sorted(workload, key=lambda wf: (wf.arrival_time, wf.total_qubits, wf.priority, wf.id))
    instants = itertools.groupby(order, key=lambda wf: wf.arrival_time)
    attempts: dict[str, int] = {}  # allocator calls per workflow id
    for wf in workload:
        if wf.id in attempts:
            raise ValueError(f"workflow id {wf.id!r} is repeated; the retry count is kept per id")
        attempts[wf.id] = 0
    retrying: list[Workflow] = []
    decision_time = 0.0
    # One pass per distinct arrival time offers the retry list, then that
    # instant's arrivals. Both are in FCFS order and every retry arrived
    # earlier, so each pass sees all pending workflows in FCFS order. After
    # the last arrival, retries are spent in further passes at the final clock.
    while True:
        t, arrivals = next(instants, (state.clock, ()))
        offered = [*retrying, *arrivals]
        if not offered:
            break
        state.clock = t
        retrying = []
        backlog = None  # t is fixed in a pass and only a booking moves free_at
        for wf in offered:
            attempts[wf.id] += 1
            if backlog is None:
                backlog = [max(f - t, 0.0) for f in state.free_at]
            started = perf_counter()
            outcome = allocator(wf, network, backlog)
            decision_time += perf_counter() - started
            if outcome.succeeded:
                if not validate_allocation(wf, network, outcome.allocation):
                    raise ValueError(f"workflow {wf.id}: the allocator returned an invalid placement")
                _execute(wf, outcome, state, params, t, dependency_gating, gate_comm_latency)
                state.completed.append(wf)
                backlog = None
            elif attempts[wf.id] > retry_limit:
                state.failed.append(wf)
            else:
                retrying.append(wf)

    state.metrics.decision_time = decision_time
    if state.executions:
        state.metrics.execution_time = max(e.finish for e in state.executions) - order[0].arrival_time
    return state


def _execute(
    workflow: Workflow,
    outcome: AllocationOutcome,
    state: SimState,
    params: NetworkParams,
    now: float,
    dependency_gating: bool,
    gate_comm_latency: bool,
) -> None:
    """Book an allocated workflow's tasks on their nodes and advance the
    nodes' free times. Runtimes, fidelities and edge costs are read off the
    network's cached terms and added as ``qflow.costs`` adds them, so every
    float is equal."""
    assignment = outcome.allocation.assignment
    free_at, busy_seconds, record = state.free_at, state.busy_seconds, state.executions.append
    metrics = state.metrics
    wait_time, fidelity_sum = metrics.wait_time, metrics.fidelity_sum
    wf_id, arrival = workflow.id, workflow.arrival_time
    terms = task_terms(workflow.tasks, state.network, params)
    finish_times = [0.0] * len(terms)
    gated = dependency_gating and bool(workflow.edges)
    if gated:
        preds: list[list[int]] = [[] for _ in terms]
        for a, b in workflow.edges:  # unsorted: only the maximum gate is read
            preds[b].append(a)

    for j in workflow.topological_order:
        node_index = assignment[j]
        t = terms[j]
        ready = now
        if gated:
            for p in preds[j]:
                gate = finish_times[p]
                if gate_comm_latency:
                    tp = terms[p]
                    gate += (tp.qlink[assignment[p]] + t.qlink[node_index]) / 2.0 + (tp.clink + t.clink) / 2.0
                if gate > ready:  # max(ready, gate), ties and NaN included
                    ready = gate
        start = free_at[node_index]
        if ready > start:  # max(free_at[node_index], ready), likewise
            start = ready
        duration = t.run[node_index]
        finish = start + duration
        finish_times[j] = finish
        free_at[node_index] = finish
        busy_seconds[node_index] += duration
        record(TaskExecution(wf_id, j, node_index, start, finish))
        wait_time += start - arrival
        fidelity_sum += 1.0 - t.err[node_index]
    metrics.wait_time, metrics.fidelity_sum = wait_time, fidelity_sum
    metrics.tasks_allocated += len(terms)

    net = 0.0
    for a, b in workflow.skeleton:
        ka, kb = assignment[a], assignment[b]
        net += (terms[a].qlink[ka] + terms[b].qlink[kb]) / 2.0 + (terms[a].clink + terms[b].clink) / 2.0
    metrics.comm_overhead += net


def qpu_time_distribution(state: SimState) -> list[float]:
    """Percentage of total busy time spent on each node; zeros when the run
    executed nothing."""
    # a left-to-right fold, not sum(): from CPython 3.12 on, sum() adds
    # floats with compensated summation (gh-100425), which moves the last
    # digit of a share
    total = 0.0
    for busy in state.busy_seconds:
        total += busy
    return [100.0 * busy / total if total > 0 else 0.0 for busy in state.busy_seconds]


def make_allocator(
    name: str,
    weights,
    params,
    soft_config=None,
    base_seed: int = 0,
    trial_multiplier: int = 1,
) -> Allocator:
    """Bind an allocator name to a uniform (workflow, network, backlog)
    callable for the simulation loop.

    The random strategy derives a fresh seed per invocation from the base
    seed and an invocation counter, so retries draw new trials while the
    whole run stays reproducible. ``exact`` is soft_iso under ``EXHAUSTIVE``, exact on a
    network of any size with ties broken in stream order (``exhaustive_oracle`` is the referee).
    """
    if name == "soft_iso":
        def call(workflow, network, backlog):
            return alg.soft_iso(workflow, network, weights, params, soft_config, backlog)
    elif name == "random_aware":
        counter = [0]

        def call(workflow, network, backlog):
            counter[0] += 1
            seed = base_seed * 1_000_003 + counter[0]
            return alg.random_aware(
                workflow, network, weights, params, seed, backlog, trial_multiplier
            )
    elif name == "greedy_dfs":
        def call(workflow, network, backlog):
            return alg.greedy_dfs(workflow, network)
    elif name == "exact":
        def call(workflow, network, backlog):
            return alg.soft_iso(workflow, network, weights, params, alg.EXHAUSTIVE, backlog)
    else:
        raise ValueError(f"unknown allocator {name!r}")
    return call


ALLOCATOR_NAMES = ("soft_iso", "random_aware", "greedy_dfs", "exact")
