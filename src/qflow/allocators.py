"""Allocation strategies mapping one workflow onto the QPU network.

Every strategy is a pure function of its inputs: it reads the network and
returns an :class:`AllocationOutcome` value, and keeps no clock (the
simulator times each call). Four strategies share one outcome record:

* :func:`soft_iso` walks the lazy monomorphism stream, scores every
  candidate from a per-decision term table, and stops early once the cost
  signal stabilizes or a candidate budget is exhausted.
* :func:`random_aware` draws a few random capacity-respecting assignments,
  scores them from the same kind of table, and keeps the cheapest one that
  satisfies the connectivity constraint.
* :func:`greedy_dfs` ignores costs entirely and pins qubit-sorted tasks onto
  a depth-first traversal of the network.
* :func:`exhaustive_oracle` enumerates every injective assignment on small
  instances and returns the exact optimum; it exists to referee the others.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .costs import DecisionTable, aggregate_cost, compute_bounds
from .matcher import workflow_monomorphisms
from .model import (
    Allocation,
    NetworkParams,
    ResourceNetwork,
    WeightConfig,
    Workflow,
    mapping_feasible,
    validate_allocation,
)

ORACLE_MAX_TASKS = 5
ORACLE_MAX_NODES = 8


@dataclass(frozen=True)
class SoftIsoConfig:
    """Early-stopping knobs of :func:`soft_iso`.

    The candidate budget is ``counter_cap_base ** n_tasks``. Set both
    thresholds to ``inf`` and the base to ``inf`` to disable stopping, in
    which case the search degenerates to an exhaustive scan of the
    monomorphism stream. ``strict_pseudocode`` freezes the previous-cost
    reference at zero instead of updating it every iteration.
    """

    thres_max: float = 0.1
    thres_prev: float = 0.03
    counter_cap_base: float = 10.0
    strict_pseudocode: bool = False

    def __post_init__(self):
        if self.thres_max < 0 or self.thres_prev < 0:
            raise ValueError("thresholds must be >= 0")
        if self.counter_cap_base < 1:
            raise ValueError("counter_cap_base must be >= 1")

    def cap(self, n_tasks: int) -> float:
        return self.counter_cap_base ** n_tasks


EXHAUSTIVE = SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf, counter_cap_base=math.inf)


@dataclass(frozen=True)
class AllocationOutcome:
    """Result of one allocator invocation.

    ``allocation`` is None when the workflow could not be placed.
    ``candidates_examined`` counts scored candidates (soft_iso, oracle) or
    attempted trials (random_aware). ``incumbent_costs`` records the
    incumbent's total after each improvement, for instrumentation.
    """

    allocation: Allocation | None
    candidates_examined: int
    incumbent_costs: tuple[float, ...] = field(default=())

    @property
    def succeeded(self) -> bool:
        return self.allocation is not None


def soft_iso(
    workflow: Workflow,
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    config: SoftIsoConfig | None = None,
    sim_time: float = 0.0,
) -> AllocationOutcome:
    """Cost-aware embedding search with soft early stopping.

    Iterates candidate embeddings from the monomorphism stream; tracks the
    maximum cost seen; whenever a candidate beats the incumbent it replaces
    it, and the stop rule is evaluated: break once the cost deviates from
    both the maximum and the previous cost by more than the configured
    thresholds, or once the candidate budget is spent. The budget is also
    enforced at the top of the loop so the number of scored candidates
    never exceeds it. The stream yields only injective, qubit-fitting,
    edge-preserving mappings, so no candidate needs a feasibility check.

    Candidates are scored from one per-decision :class:`DecisionTable`,
    whose scorer returns the same float as :func:`aggregate_cost`; the full
    breakdown is computed for the final incumbent only.
    """
    config = config or SoftIsoConfig()
    cap = config.cap(len(workflow.tasks))
    table = DecisionTable(workflow, network, params, sim_time)
    score = table.scorer(weights)

    mincost = math.inf
    maxcost = -math.inf
    prevcost = 0.0
    examined = 0
    incumbent: dict[int, int] | None = None
    history: list[float] = []

    for mapping in workflow_monomorphisms(workflow, network):
        if examined >= cap:
            break
        examined += 1
        cost = score(mapping)
        maxcost = max(cost, maxcost)
        if cost < mincost:
            mincost = cost
            incumbent = mapping
            history.append(cost)
            if (
                abs(cost - maxcost) > config.thres_max
                and abs(cost - prevcost) > config.thres_prev
            ) or examined >= cap:
                break
        if not config.strict_pseudocode:
            prevcost = cost

    return _scored_outcome(workflow, network, weights, params, sim_time, table, incumbent, examined, history)


def random_aware(
    workflow: Workflow,
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    rng_seed: int = 0,
    sim_time: float = 0.0,
    trial_multiplier: int = 1,
) -> AllocationOutcome:
    """Randomized placement: per trial, assign tasks in ascending qubit
    order to uniformly drawn capacious nodes (without replacement), then
    keep the cheapest trial whose mapping respects workflow connectivity.

    The trial count is the task count; a multiplier is available since more
    trials buy better placements at linear extra cost. A trial whose
    candidate pool runs empty counts as an infeasible trial.

    Trials are scored from one per-decision :class:`DecisionTable`, which
    also supplies the normalization bounds, so every term is evaluated once
    per decision; the full breakdown is computed for the final incumbent
    only.
    """
    rng = random.Random(rng_seed)
    n_tasks = len(workflow.tasks)
    table = DecisionTable(workflow, network, params, sim_time)
    score = table.scorer(weights)
    order = sorted(range(n_tasks), key=lambda j: (workflow.tasks[j].qubits, j))

    mincost = math.inf
    incumbent: dict[int, int] | None = None
    history: list[float] = []
    trials = 0
    for _ in range(n_tasks * trial_multiplier):
        trials += 1
        assignment: dict[int, int] = {}
        used: set[int] = set()
        aborted = False
        for j in order:
            pool = [
                k
                for k, node in enumerate(network.nodes)
                if node.qubits >= workflow.tasks[j].qubits and k not in used
            ]
            if not pool:
                aborted = True
                break
            pick = rng.choice(pool)
            assignment[j] = pick
            used.add(pick)
        if aborted:
            continue
        cost = score(assignment)
        if cost < mincost and mapping_feasible(assignment, workflow, network):
            mincost = cost
            incumbent = assignment
            history.append(cost)

    return _scored_outcome(workflow, network, weights, params, sim_time, table, incumbent, trials, history)


def _scored_outcome(
    workflow: Workflow,
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    sim_time: float,
    table: DecisionTable,
    incumbent: dict[int, int] | None,
    examined: int,
    history: list[float],
) -> AllocationOutcome:
    """The outcome of a table-scored search: the incumbent, if any, with its
    full :func:`aggregate_cost` breakdown under the table's bounds."""
    allocation = None
    if incumbent is not None:
        candidate = [incumbent[j] for j in range(len(workflow.tasks))]
        breakdown = aggregate_cost(workflow, candidate, network, weights, params, table.bounds, sim_time)
        allocation = Allocation(workflow_id=workflow.id, assignment=incumbent, cost_breakdown=breakdown)
    return AllocationOutcome(allocation, examined, tuple(history))


def dfs_node_order(network: ResourceNetwork) -> list[int]:
    """Depth-first traversal order: start at the node with the fewest
    qubits, visit neighbors in ascending qubit order, and restart from the
    next unvisited minimum-qubit node if the graph is a forest."""
    n = len(network.nodes)
    key = lambda k: (network.nodes[k].qubits, k)
    adjacency = network.adjacency()
    visited: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(n), key=key):
        if start in seen:
            continue
        stack = [start]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            visited.append(u)
            for v in sorted(adjacency[u], key=key, reverse=True):
                if v not in seen:
                    stack.append(v)
    return visited


def greedy_dfs(
    workflow: Workflow,
    network: ResourceNetwork,
    sim_time: float = 0.0,
) -> AllocationOutcome:
    """Constraint-only baseline: qubit-sorted tasks walk the DFS node order
    and each task takes the next node large enough to hold it.

    Never evaluates costs, so the outcome is independent of the weight
    configuration. Fails when the walk runs out of nodes or the resulting
    assignment violates workflow connectivity.
    """
    order = sorted(range(len(workflow.tasks)), key=lambda j: (workflow.tasks[j].qubits, j))
    assignment: dict[int, int] = {}
    pending = list(order)
    for k in dfs_node_order(network):
        if not pending:
            break
        j = pending[0]
        if network.nodes[k].qubits >= workflow.tasks[j].qubits:
            assignment[j] = k
            pending.pop(0)
    allocation = None
    if not pending:
        candidate = Allocation(workflow_id=workflow.id, assignment=assignment)
        if validate_allocation(workflow, network, candidate):
            allocation = candidate
    return AllocationOutcome(allocation, candidates_examined=1)


def exhaustive_oracle(
    workflow: Workflow,
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    sim_time: float = 0.0,
) -> AllocationOutcome:
    """Exact minimum-cost assignment by full enumeration.

    Guarded to small instances; iterates injective node tuples in
    lexicographic order, so cost ties resolve to the smallest tuple. Used as
    the reference implementation in equivalence tests, so it scores with
    :func:`aggregate_cost` and shares no search or scoring table with
    :func:`soft_iso`.
    """
    import itertools

    n_tasks = len(workflow.tasks)
    n_nodes = len(network.nodes)
    if n_tasks > ORACLE_MAX_TASKS or n_nodes > ORACLE_MAX_NODES:
        raise ValueError(
            f"oracle guard: instance {n_tasks} tasks x {n_nodes} nodes exceeds "
            f"{ORACLE_MAX_TASKS} x {ORACLE_MAX_NODES}"
        )
    bounds = compute_bounds(workflow, network, params, sim_time)

    best = None
    best_cost = math.inf
    best_breakdown = None
    examined = 0
    for tup in itertools.permutations(range(n_nodes), n_tasks):
        if not mapping_feasible(tup, workflow, network):
            continue
        examined += 1
        breakdown = aggregate_cost(workflow, list(tup), network, weights, params, bounds, sim_time)
        if breakdown.total < best_cost:
            best_cost = breakdown.total
            best = tup
            best_breakdown = breakdown

    allocation = None
    if best is not None:
        allocation = Allocation(
            workflow_id=workflow.id,
            assignment={j: best[j] for j in range(n_tasks)},
            cost_breakdown=best_breakdown,
        )
    return AllocationOutcome(allocation, examined)
