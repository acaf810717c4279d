"""Allocation strategies mapping one workflow onto the QPU network.

Every strategy is a pure function of its inputs, the cost-aware ones of the
simulator's backlog vector too (``None``: an idle network). It returns an
:class:`AllocationOutcome` value and keeps no clock (the simulator times
each call). Four strategies share one outcome record:

* :func:`soft_iso` walks the lazy monomorphism stream block by block,
  scores each block of candidates from a per-decision term table, and
  stops early once the cost signal stabilizes or a candidate budget is
  exhausted.
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
from collections.abc import Sequence
from dataclasses import dataclass, field

from .costs import CostBreakdown, DecisionTable, aggregate_cost, compute_bounds
# workflow_monomorphisms is not called here; it stays bound because
# perfbench's tracer times the matcher by swapping this name.
from .matcher import mask_hosts, workflow_monomorphism_groups, workflow_monomorphisms
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
        if not (self.thres_max >= 0 and self.thres_prev >= 0):
            raise ValueError("thresholds must be >= 0, not NaN")
        if not self.counter_cap_base >= 1:
            raise ValueError("counter_cap_base must be >= 1, not NaN")

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
    backlog: Sequence[float] | None = None,
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

    The stream arrives in groups of blocks. A block holds the candidates
    that differ only in the host of the last task in visit order, ``v``; a
    group holds the blocks that differ only in the hosts of ``v`` and of
    the task before it, ``u``. Each block is scored in one call
    of a :meth:`DecisionTable.block_scorer`, built at the first block from
    the per-decision table, whose floats equal :func:`aggregate_cost`'s.
    The last block is cut to the budget. A block none of whose costs beats
    the incumbent cannot stop the search, so it only updates the maximum
    and previous costs; any other block is walked candidate by candidate
    with the rule above. The outcome, including the incumbent's key order,
    is that of a walk over single candidates. The final incumbent's
    breakdown is read from the same table.

    When a threshold is infinite, ``abs(cost - maxcost) > thres_max`` or
    ``abs(cost - prevcost) > thres_prev`` is never true, so only the budget
    stops the search and the maximum and previous costs go unread. The
    scorer then gets the incumbent's cost as its floor, and a block whose
    exact lower bound is not below it is counted without being scored or
    having its host mask decoded. One level up, ``u`` is put on the
    table's sentinel host first: a group whose exact lower bound (the
    host terms of ``u`` and ``v`` at their minima) is not below the
    incumbent is counted by the popcounts of its leaf masks, cut to the
    budget, and skipped. Every block of such a group would have been
    skipped one by one with the incumbent unchanged, so the count and the
    budget cut are those of the block-by-block walk.
    """
    config = config or SoftIsoConfig()
    cap = config.cap(len(workflow.tasks))
    table = DecisionTable(workflow, network, params, backlog)
    score = None
    bounded = math.inf in (config.thres_max, config.thres_prev)

    mincost = math.inf
    maxcost = -math.inf
    prevcost = 0.0
    examined = 0
    incumbent: dict[int, int] | None = None
    history: list[float] = []

    for prefix, u, v, pairs in workflow_monomorphism_groups(workflow, network):
        if examined >= cap:
            break
        if score is None:
            score = table.block_scorer(weights, v)
        if bounded and u is not None:
            prefix[u] = len(network.nodes)  # u's sentinel host: its least terms
            if score(prefix, 0, mincost) is None:
                # no block of the group has a cost below mincost
                size = sum(mask.bit_count() for _, mask in pairs)
                examined += size if examined + size <= cap else math.ceil(cap - examined)
                continue
        stop = False
        for h, mask in pairs:
            if examined >= cap:
                break
            if u is not None:
                prefix[u] = h
            size = mask.bit_count()
            if examined + size > cap:
                size = math.ceil(cap - examined)
                mask = sum(1 << k for k in mask_hosts(mask)[:size])
            costs = score(prefix, mask, mincost if bounded else None)
            if costs is None:
                # every cost of the block is >= mincost, and nothing else is read
                examined += size
                continue
            if min(costs) >= mincost:
                # no candidate of the block improves, so none can stop the search
                examined += size
                maxcost = max(maxcost, max(costs))
                if not config.strict_pseudocode:
                    prevcost = costs[-1]
                continue
            for cost in costs:
                low = mask & -mask  # this cost's host: the lowest bit left
                mask ^= low
                examined += 1
                maxcost = max(cost, maxcost)
                if cost < mincost:
                    mincost = cost
                    incumbent = prefix.copy()
                    incumbent[v] = low.bit_length() - 1
                    history.append(cost)
                    if (
                        abs(cost - maxcost) > config.thres_max
                        and abs(cost - prevcost) > config.thres_prev
                    ) or examined >= cap:
                        stop = True
                        break
                if not config.strict_pseudocode:
                    prevcost = cost
            if stop:
                break
        if stop:
            break

    best = table.breakdown(incumbent, weights) if incumbent is not None else None
    return _outcome(workflow, incumbent, best, examined, history)


def random_aware(
    workflow: Workflow,
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    rng_seed: int = 0,
    backlog: Sequence[float] | None = None,
    trial_multiplier: int = 1,
) -> AllocationOutcome:
    """Randomized placement: per trial, assign tasks in ascending qubit
    order to uniformly drawn capacious nodes (without replacement), then
    keep the cheapest trial whose mapping respects workflow connectivity.

    The trial count is the task count; a multiplier is available since more
    trials buy better placements at linear extra cost. A trial whose
    candidate pool runs empty counts as an infeasible trial.

    Each task's pool of qubit-fitting nodes is listed once per decision,
    and a trial draws from it the nodes not used yet, in ascending order.
    Trials are scored by the :meth:`DecisionTable.breakdown` of one
    per-decision table, which also supplies the normalization bounds; the
    incumbent keeps its trial's breakdown.
    """
    rng = random.Random(rng_seed)
    tasks = workflow.tasks
    table = DecisionTable(workflow, network, params, backlog)
    order = sorted(range(len(tasks)), key=lambda j: (tasks[j].qubits, j))
    fits = [[k for k, node in enumerate(network.nodes) if node.qubits >= task.qubits] for task in tasks]

    mincost = math.inf
    incumbent: dict[int, int] | None = None
    best = None
    history: list[float] = []
    trials = 0
    for _ in range(len(tasks) * trial_multiplier):
        trials += 1
        assignment: dict[int, int] = {}
        used: set[int] = set()
        aborted = False
        for j in order:
            pool = [k for k in fits[j] if k not in used]
            if not pool:
                aborted = True
                break
            pick = rng.choice(pool)
            assignment[j] = pick
            used.add(pick)
        if aborted:
            continue
        cost = table.breakdown(assignment, weights)
        if cost.total < mincost and mapping_feasible(assignment, workflow, network):
            mincost = cost.total
            incumbent = assignment
            best = cost
            history.append(mincost)

    return _outcome(workflow, incumbent, best, trials, history)


def _outcome(
    workflow: Workflow,
    incumbent: dict[int, int] | None,
    breakdown: CostBreakdown | None,
    examined: int,
    history: list[float],
) -> AllocationOutcome:
    """The outcome of a table-scored search: the incumbent, if any, with its
    breakdown."""
    allocation = None
    if incumbent is not None:
        allocation = Allocation(workflow_id=workflow.id, assignment=incumbent, cost_breakdown=breakdown)
    return AllocationOutcome(allocation, examined, tuple(history))


def greedy_dfs(workflow: Workflow, network: ResourceNetwork) -> AllocationOutcome:
    """Constraint-only baseline: qubit-sorted tasks walk the DFS node order
    and each task takes the next node large enough to hold it.

    The walk is the network's :meth:`~ResourceNetwork.dfs_order`, derived
    once per network. Never evaluates costs, so the outcome is independent
    of the weight configuration. Fails when the walk runs out of nodes or
    the resulting assignment violates workflow connectivity.
    """
    order = sorted(range(len(workflow.tasks)), key=lambda j: (workflow.tasks[j].qubits, j))
    assignment: dict[int, int] = {}
    pending = list(order)
    for k in network.dfs_order():
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
    backlog: Sequence[float] | None = None,
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
    bounds = compute_bounds(workflow, network, params, backlog)

    best = None
    best_cost = math.inf
    best_breakdown = None
    examined = 0
    for tup in itertools.permutations(range(n_nodes), n_tasks):
        if not mapping_feasible(tup, workflow, network):
            continue
        examined += 1
        breakdown = aggregate_cost(workflow, list(tup), network, weights, params, bounds, backlog)
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
