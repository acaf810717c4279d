"""Allocation strategies mapping one workflow onto the QPU network.

Every strategy is a pure function of its inputs, the cost-aware ones of the
simulator's backlog vector too (``None``: an idle network). It returns an
:class:`AllocationOutcome` value and keeps no clock (the simulator times
each call). Four strategies share one outcome record:

* :func:`soft_iso` walks the lazy monomorphism stream, scores its blocks
  of candidates from a per-decision term table, a run of blocks that
  cannot improve at a time, and stops early once the cost signal
  stabilizes or a candidate budget is exhausted.
* :func:`random_aware` draws a few random capacity-respecting assignments,
  scores them from the same kind of table, and keeps the cheapest one that
  satisfies the connectivity constraint.
* :func:`greedy_dfs` ignores costs entirely and pins qubit-sorted tasks onto
  a depth-first traversal of the network.
* :func:`exhaustive_oracle` enumerates every injective assignment on small
  instances and returns the exact optimum; it referees the others. The run row
  ``exact`` is :func:`soft_iso` under :data:`EXHAUSTIVE`, exact on any network.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .costs import CostBreakdown, DecisionTable, aggregate_cost, compute_bounds
from .matcher import mask_hosts, workflow_monomorphisms
from .model import (
    Allocation,
    NetworkParams,
    ResourceNetwork,
    WeightConfig,
    Workflow,
    mapping_feasible,
)

ORACLE_MAX_TASKS = 5
ORACLE_MAX_NODES = 8


@dataclass(frozen=True)
class SoftIsoConfig:
    """Early-stopping knobs of :func:`soft_iso`.

    The candidate budget is ``counter_cap_base ** n_tasks``, rounded up to
    a whole count. Set both thresholds to ``inf`` and the base to ``inf``
    to disable stopping, in which case the search degenerates to an
    exhaustive scan of the monomorphism stream. ``strict_pseudocode``
    freezes the previous-cost reference at zero instead of updating it
    every iteration.
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

    def cap(self, n_tasks: int) -> int | float:
        """The candidate budget as an int, ``inf`` where the power is
        infinite or overflows a float."""
        try:
            return math.ceil(self.counter_cap_base ** n_tasks)
        except OverflowError:
            return math.inf


EXHAUSTIVE = SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf, counter_cap_base=math.inf)


class AllocationOutcome(NamedTuple):
    """Result of one allocator invocation (a named tuple).

    ``allocation`` is None when the workflow could not be placed.
    ``candidates_examined`` counts the candidates a search has passed:
    soft_iso's from the stream, scored or, on the ``skim`` path, ruled out
    by an exact bound without scoring; the oracle's feasible tuples, each
    scored; random_aware's attempted trials, feasible or not. greedy_dfs
    makes one walk and reports 1. ``incumbent_costs`` records the
    incumbent's total after each improvement, for instrumentation.
    """

    allocation: Allocation | None
    candidates_examined: int
    incumbent_costs: tuple[float, ...] = ()

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
    it, and the stop rule is evaluated: the search returns once the cost
    deviates from both the maximum and the previous cost by more than the
    configured thresholds. It also ends once the candidate budget is spent,
    which is checked after each block and after each group; the block that
    reaches the budget is cut to it, so the number of candidates passed,
    scored or ruled out by a bound, never exceeds it. The stream yields
    only injective, qubit-fitting, edge-preserving mappings, so no
    candidate needs a feasibility check.

    The stream (this module's ``workflow_monomorphisms``, read at each
    call) yields groups of blocks. A block holds the candidates that differ
    only in the host of the last task in visit order, ``v``; a group holds
    the blocks that differ only in the hosts of ``v`` and of the task
    before it, ``u`` (one task: ``v`` itself, on the sentinel host).
    The :meth:`DecisionTable.group_scorer` of the per-decision table, built
    at the first group, folds each group's prefix, adding up its terms once
    per decision for each class tuple of its hosts, with floats equal to
    :func:`aggregate_cost`'s. A block none of whose costs beats the
    incumbent cannot stop the search, so it only moves the maximum and
    previous costs. One call of the scorer's run closure takes a run of
    such blocks at once (their count, maximum and last cost) and returns
    the block to walk after it, which is walked candidate by candidate with
    the rule above; the next call starts past that block, so no block after
    the one where the search stops is scored. The outcome, including the
    incumbent's key order, is that of a walk over single candidates. The
    final incumbent's breakdown is read from the same table.

    The run closure is ``walk``, or ``skim`` when a threshold is infinite:
    then ``abs(cost - maxcost) > thres_max`` or ``abs(cost - prevcost) >
    thres_prev`` is never true, so only the budget stops the search. ``skim``
    counts what its exact bounds rule out and returns only the candidates
    that improve in turn, leaving out the maximum and last cost, never read;
    it scans a block only where a calibration class, at the least wait of
    its hosts in the block, has a total below the incumbent, so every block
    it scans improves. On this path the loop enters a group through the
    scorer's ``skip``, which folds and counts in one call each group that
    ``u`` and ``v`` on the sentinel host rule out and returns the first that
    may improve, so the loop and ``skim`` see only those groups (the group
    bound is ``skip``'s alone). ``walk``'s path keeps one loop pass per group.
    """
    config = config or SoftIsoConfig()
    cap = config.cap(len(workflow.tasks))
    step = None
    thres_max, thres_prev, strict = config.thres_max, config.thres_prev, config.strict_pseudocode

    mincost = math.inf
    maxcost = -math.inf
    prevcost = 0.0
    examined = 0
    incumbent: dict[int, int] | None = None
    history: list[float] = []

    groups = workflow_monomorphisms(workflow, network)
    for group in groups:
        if step is None:
            table = DecisionTable(workflow, network, params, backlog)
            fold, _, walk, skim, skip = table.group_scorer(weights, group[1], group[2])
            step = skim if math.inf in (thres_max, thres_prev) else walk
        if step is skim:  # count the groups ruled out whole, up to the next that may improve
            size, group = skip(group, groups, mincost, cap - examined)
            examined += size
            if group is None:
                break
        else:
            fold(group[0])
        prefix, u, v, hosts, leaves, links = group
        while examined < cap and hosts:
            size, top, last, h, mask, costs = step(hosts, leaves, links, mincost, cap - examined)
            if size:
                # a run of blocks none of whose candidates improves, so none can stop the search
                examined += size
                if top > maxcost:
                    maxcost = top
                if not strict:
                    prevcost = last
            if costs is None:
                break
            for cost, k in zip(costs, mask_hosts(mask)):
                examined += 1
                if cost > maxcost:
                    maxcost = cost
                if cost < mincost:
                    mincost = cost
                    incumbent = {**prefix, u: h, v: k}
                    history.append(cost)
                    if abs(cost - maxcost) > thres_max and abs(cost - prevcost) > thres_prev:
                        return _outcome(incumbent, table.breakdown(incumbent, weights), examined, history)
                if not strict:
                    prevcost = cost
            hosts &= -2 << h  # the hosts of u after h
        if examined >= cap:
            break

    best = table.breakdown(incumbent, weights) if incumbent is not None else None
    return _outcome(incumbent, best, examined, history)


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

    A trial draws each task from the network's :meth:`~ResourceNetwork.qubit_mask`
    for its qubit count less the nodes used so far, listed ascending once
    per network, at the mask's first read (:attr:`~ResourceNetwork.host_tuples`). Only
    trials that satisfy the constraint are scored, by the
    :meth:`DecisionTable.breakdown` of one per-decision table, which also
    supplies the normalization bounds and is built at the first such trial,
    so a decision none of whose trials is feasible builds none; the
    incumbent keeps its trial's breakdown.
    """
    rng = random.Random(rng_seed)
    tasks = workflow.tasks
    order = sorted(range(len(tasks)), key=lambda j: (tasks[j].qubits, j))
    fits = [(j, network.qubit_mask(tasks[j].qubits)) for j in order]
    pools = network.host_tuples
    table = None

    mincost = math.inf
    incumbent: dict[int, int] | None = None
    best = None
    history: list[float] = []
    trials = len(tasks) * trial_multiplier
    for _ in range(trials):
        assignment: dict[int, int] = {}
        used = 0
        for j, fit in fits:
            if (pool := pools.get(free := fit & ~used)) is None:
                pool = pools[free] = tuple(mask_hosts(free))
            if not pool:
                break
            pick = rng.choice(pool)
            assignment[j] = pick
            used |= 1 << pick
        if len(assignment) < len(tasks) or not mapping_feasible(assignment, workflow, network):
            continue
        if table is None:
            table = DecisionTable(workflow, network, params, backlog)
        cost = table.breakdown(assignment, weights)
        if cost.total < mincost:
            mincost = cost.total
            incumbent = assignment
            best = cost
            history.append(mincost)

    return _outcome(incumbent, best, trials, history)


def _outcome(
    incumbent: dict[int, int] | None, breakdown: CostBreakdown | None, examined: int, history: list[float]
) -> AllocationOutcome:
    """The outcome of a table-scored search: the incumbent, if any, with its
    breakdown."""
    allocation = None if incumbent is None else Allocation(incumbent, breakdown)
    return AllocationOutcome(allocation, examined, tuple(history))


def greedy_dfs(workflow: Workflow, network: ResourceNetwork) -> AllocationOutcome:
    """Constraint-only baseline: qubit-sorted tasks walk the DFS node order
    and each task takes the next node large enough to hold it.

    The walk is the network's :attr:`~ResourceNetwork.dfs_order`, derived
    once per network. Never evaluates costs, so the outcome is independent
    of the weight configuration. Fails when the walk runs out of nodes or
    the resulting assignment violates workflow connectivity.
    """
    pending = sorted(range(len(workflow.tasks)), key=lambda j: (workflow.tasks[j].qubits, j))
    assignment: dict[int, int] = {}
    for k in network.dfs_order:
        if not pending:
            break
        if network.nodes[k].qubits >= workflow.tasks[pending[0]].qubits:
            assignment[pending.pop(0)] = k
    placed = not pending and mapping_feasible(assignment, workflow, network)
    return AllocationOutcome(Allocation(assignment) if placed else None, candidates_examined=1)


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
            best = dict(enumerate(tup))
            best_breakdown = breakdown
    return _outcome(best, best_breakdown, examined, [])
