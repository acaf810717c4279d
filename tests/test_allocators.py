"""Allocator behaviour: correctness, equivalence with the oracle, bounds."""

from __future__ import annotations

import math
import random

import pytest

from qflow.allocators import (
    EXHAUSTIVE,
    AllocationOutcome,
    SoftIsoConfig,
    exhaustive_oracle,
    greedy_dfs,
    random_aware,
    soft_iso,
)
from qflow.costs import aggregate_cost, compute_bounds
from qflow.matcher import workflow_monomorphisms
from qflow.model import Allocation, NetworkParams, WeightConfig, mapping_feasible, validate_allocation

from .conftest import chain_workflow, make_network, random_small_instance, scenario_instances

WEIGHTS = WeightConfig()
PARAMS = NetworkParams()


class TestSoftIso:
    def test_single_task_single_node(self):
        wf = chain_workflow([5])
        net = make_network([127], [])
        outcome = soft_iso(wf, net, WEIGHTS, PARAMS)
        assert outcome.succeeded
        assert outcome.allocation.assignment == {0: 0}
        assert outcome.candidates_examined >= 1

    def test_triangle_workflow_into_tree_fails(self):
        wf = chain_workflow([5, 5, 5])
        wf = type(wf)(id="tri", tasks=wf.tasks, edges=frozenset({(0, 1), (1, 2), (0, 2)}))
        tree = make_network([127, 127, 127, 127], [(0, 1), (0, 2), (0, 3)])
        outcome = soft_iso(wf, tree, WEIGHTS, PARAMS)
        assert not outcome.succeeded
        assert outcome.allocation is None

    def test_disabled_stopping_matches_oracle(self):
        rng = random.Random(101)
        checked = 0
        for _ in range(120):
            wf, net = random_small_instance(rng)
            soft = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE)
            oracle = exhaustive_oracle(wf, net, WEIGHTS, PARAMS)
            assert soft.succeeded == oracle.succeeded
            if soft.succeeded:
                checked += 1
                assert soft.allocation.cost_breakdown.total == pytest.approx(
                    oracle.allocation.cost_breakdown.total, abs=1e-9
                )
        assert checked > 40  # the sample must actually exercise feasible instances

    def test_candidate_budget_respected(self):
        # a complete host makes the stream long; a tight budget must cap it
        wf = chain_workflow([2, 2, 2])
        net = make_network([10] * 6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
        tight = SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf, counter_cap_base=2)
        outcome = soft_iso(wf, net, WEIGHTS, PARAMS, tight)
        assert outcome.candidates_examined <= 2 ** 3
        assert outcome.succeeded  # first candidate is always feasible

    def test_cap_never_exceeded_on_random_instances(self):
        rng = random.Random(55)
        for _ in range(100):
            wf, net = random_small_instance(rng)
            outcome = soft_iso(wf, net, WEIGHTS, PARAMS)
            assert outcome.candidates_examined <= 10 ** len(wf.tasks)

    def test_strict_pseudocode_mode_runs_and_matches_default_when_exhaustive(self):
        rng = random.Random(7)
        wf, net = random_small_instance(rng)
        strict = SoftIsoConfig(
            thres_max=math.inf, thres_prev=math.inf, counter_cap_base=math.inf, strict_pseudocode=True
        )
        a = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE)
        b = soft_iso(wf, net, WEIGHTS, PARAMS, strict)
        assert a.succeeded == b.succeeded
        if a.succeeded:
            assert a.allocation.assignment == b.allocation.assignment

    def test_strict_pseudocode_freezes_previous_cost_reference(self):
        # 1-task workflow over nodes whose backlogs make the normalized cost
        # stream 0.50, 0.42, 0.39, 1.00 under zeta=1. At the third candidate
        # the max-deviation clause holds (0.11 > 0.1) and the previous-cost
        # clause differs: |0.39 - 0.42| = 0.03 is not > 0.03, but against a
        # frozen zero reference 0.39 > 0.03 is, so only strict mode stops.
        wf = chain_workflow([5])
        net = make_network([127] * 4, [(0, 1), (1, 2), (2, 3)])
        for k, nat in enumerate([0.5, 0.42, 0.39, 1.0]):
            net.nodes[k].next_available_time = nat
        weights = WeightConfig(zeta=1.0)
        config = SoftIsoConfig(thres_max=0.1, thres_prev=0.03)
        default = soft_iso(wf, net, weights, PARAMS, config, sim_time=0.0)
        strict = soft_iso(
            wf, net, weights, PARAMS,
            SoftIsoConfig(thres_max=0.1, thres_prev=0.03, strict_pseudocode=True),
            sim_time=0.0,
        )
        assert strict.candidates_examined == 3
        assert default.candidates_examined == 4
        assert default.allocation.assignment == strict.allocation.assignment == {0: 2}

    def test_incumbent_costs_strictly_decreasing(self):
        rng = random.Random(23)
        for _ in range(40):
            wf, net = random_small_instance(rng)
            outcome = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE)
            costs = outcome.incumbent_costs
            assert all(costs[i + 1] < costs[i] for i in range(len(costs) - 1))

    def test_every_success_validates(self):
        rng = random.Random(77)
        for _ in range(150):
            wf, net = random_small_instance(rng)
            outcome = soft_iso(wf, net, WEIGHTS, PARAMS)
            if outcome.succeeded:
                assert validate_allocation(wf, net, outcome.allocation)


def reference_soft_iso(workflow, network, weights, params, config, sim_time):
    """soft_iso's search loop scoring every candidate with aggregate_cost.

    Returns (assignment, candidates examined, incumbent costs, breakdown).
    """
    n_tasks = len(workflow.tasks)
    cap = config.cap(n_tasks)
    bounds = compute_bounds(workflow, network, params, sim_time)
    mincost, maxcost, prevcost = math.inf, -math.inf, 0.0
    examined = 0
    incumbent = incumbent_breakdown = None
    history = []
    for mapping in workflow_monomorphisms(workflow, network):
        if examined >= cap:
            break
        examined += 1
        candidate = [mapping[j] for j in range(n_tasks)]
        breakdown = aggregate_cost(workflow, candidate, network, weights, params, bounds, sim_time)
        cost = breakdown.total
        maxcost = max(cost, maxcost)
        if cost < mincost:
            if mapping_feasible(mapping, workflow, network):
                mincost = cost
                incumbent = mapping
                incumbent_breakdown = breakdown
                history.append(cost)
            if (
                abs(cost - maxcost) > config.thres_max
                and abs(cost - prevcost) > config.thres_prev
            ) or examined >= cap:
                break
        if not config.strict_pseudocode:
            prevcost = cost
    return incumbent, examined, tuple(history), incumbent_breakdown


def reference_outcome(workflow, assignment, examined, history, breakdown):
    """The whole outcome a reference loop's results describe."""
    allocation = None
    if assignment is not None:
        allocation = Allocation(workflow_id=workflow.id, assignment=assignment, cost_breakdown=breakdown)
    return AllocationOutcome(allocation=allocation, candidates_examined=examined, incumbent_costs=history)


class TestSoftIsoReference:
    """Table scoring keeps every decision of the aggregate_cost loop."""

    @pytest.mark.parametrize(
        "scenario, node_count, config, seeds",
        [
            # most LP-MR decisions spend the full budget of 10**4 candidates
            ("LP-MR", None, SoftIsoConfig(), 2),
            ("LP-MR", 8, EXHAUSTIVE, 4),
            ("LP-LR", None, SoftIsoConfig(), 4),
            ("LP-LR", None, EXHAUSTIVE, 4),
        ],
        ids=["lpmr-default", "lpmr8-exhaustive", "lplr-default", "lplr-exhaustive"],
    )
    def test_matches_aggregate_cost_loop(self, scenario, node_count, config, seeds):
        placed = 0
        for seed in range(seeds):
            workflows, network = scenario_instances(scenario, seed, 4, node_count)
            for wf in workflows:
                sim_time = wf.arrival_time + 0.5
                assignment, examined, history, breakdown = reference_soft_iso(
                    wf, network, WEIGHTS, PARAMS, config, sim_time
                )
                outcome = soft_iso(wf, network, WEIGHTS, PARAMS, config, sim_time)
                assert outcome == reference_outcome(wf, assignment, examined, history, breakdown)
                placed += assignment is not None
        assert placed >= 4


class TestRandomAware:
    def test_complete_capacious_network_always_succeeds(self):
        wf = chain_workflow([5, 5, 5])
        net = make_network([127] * 5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        for seed in range(20):
            outcome = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=seed)
            assert outcome.succeeded
            assert validate_allocation(wf, net, outcome.allocation)

    def test_empty_candidate_pool_aborts_trial(self):
        wf = chain_workflow([200, 5])  # first task fits nowhere
        net = make_network([127, 127], [(0, 1)])
        outcome = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=3)
        assert not outcome.succeeded
        assert outcome.candidates_examined == 2  # both trials attempted

    def test_fixed_seed_replays_identically(self):
        rng = random.Random(13)
        for _ in range(30):
            wf, net = random_small_instance(rng)
            a = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=99)
            b = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=99)
            assert a.succeeded == b.succeeded
            assert a.candidates_examined == b.candidates_examined
            assert a.incumbent_costs == b.incumbent_costs
            if a.succeeded:
                assert a.allocation.assignment == b.allocation.assignment

    def test_incumbent_costs_nonincreasing(self):
        rng = random.Random(31)
        for _ in range(80):
            wf, net = random_small_instance(rng)
            outcome = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=rng.randrange(1 << 30), trial_multiplier=5)
            costs = outcome.incumbent_costs
            assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))

    def test_trial_count_scales_with_multiplier(self):
        wf = chain_workflow([5, 5])
        net = make_network([127] * 3, [(0, 1), (1, 2), (0, 2)])
        base = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=1)
        tripled = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=1, trial_multiplier=3)
        assert base.candidates_examined == 2
        assert tripled.candidates_examined == 6

    def test_every_success_validates(self):
        rng = random.Random(41)
        for _ in range(150):
            wf, net = random_small_instance(rng)
            outcome = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=rng.randrange(1 << 30))
            if outcome.succeeded:
                assert validate_allocation(wf, net, outcome.allocation)


def reference_random_aware(workflow, network, weights, params, rng_seed, sim_time, trial_multiplier):
    """random_aware's trial loop scoring every trial with aggregate_cost and
    keeping that trial's breakdown.

    Returns (assignment, trials, incumbent costs, breakdown, aborted trials).
    """
    rng = random.Random(rng_seed)
    n_tasks = len(workflow.tasks)
    bounds = compute_bounds(workflow, network, params, sim_time)
    order = sorted(range(n_tasks), key=lambda j: (workflow.tasks[j].qubits, j))
    mincost = math.inf
    incumbent = incumbent_breakdown = None
    history = []
    trials = aborts = 0
    for _ in range(n_tasks * trial_multiplier):
        trials += 1
        assignment, used = {}, set()
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
            aborts += 1
            continue
        candidate = [assignment[j] for j in range(n_tasks)]
        breakdown = aggregate_cost(workflow, candidate, network, weights, params, bounds, sim_time)
        cost = breakdown.total
        if cost < mincost and mapping_feasible(assignment, workflow, network):
            mincost = cost
            incumbent = assignment
            incumbent_breakdown = breakdown
            history.append(cost)
    return incumbent, trials, tuple(history), incumbent_breakdown, aborts


class TestRandomAwareReference:
    """Table scoring keeps every decision of the per-trial aggregate_cost loop."""

    @pytest.mark.parametrize("trial_multiplier", [1, 3])
    def test_matches_aggregate_cost_loop(self, trial_multiplier):
        rng = random.Random(500 + trial_multiplier)
        # small nodes (4-10 qubits) make trials abort when no node fits
        instances = [random_small_instance(rng, max_tasks=5, max_nodes=8) for _ in range(200)]
        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(2):
                workflows, network = scenario_instances(scenario, seed, 10)
                instances += [(wf, network) for wf in workflows]
        placed = aborted = 0
        for wf, network in instances:
            sim_time = rng.uniform(0.05, 1.5)
            seed = rng.randrange(1 << 30)
            assignment, trials, history, breakdown, aborts = reference_random_aware(
                wf, network, WEIGHTS, PARAMS, seed, sim_time, trial_multiplier
            )
            outcome = random_aware(
                wf, network, WEIGHTS, PARAMS, rng_seed=seed, sim_time=sim_time,
                trial_multiplier=trial_multiplier,
            )
            aborted += aborts
            assert outcome == reference_outcome(wf, assignment, trials, history, breakdown)
            placed += assignment is not None
        assert placed >= 100 and aborted >= 20


class TestGreedyDfs:
    def test_single_task_takes_smallest_sufficient_node_in_dfs_order(self):
        wf = chain_workflow([5])
        net = make_network([3, 8, 127], [(0, 1), (1, 2)])
        outcome = greedy_dfs(wf, net)
        assert outcome.succeeded
        # DFS starts at node 0 (3 qubits, too small); next is node 1
        assert outcome.allocation.assignment == {0: 1}

    def test_two_task_chain_two_linked_nodes(self):
        wf = chain_workflow([5, 6])
        net = make_network([127, 127], [(0, 1)])
        outcome = greedy_dfs(wf, net)
        assert outcome.succeeded
        assert sorted(outcome.allocation.assignment.values()) == [0, 1]

    def test_greedy_fails_where_soft_iso_succeeds(self):
        # path A(5) - B(3) - C(6) - D(7): greedy starts its walk at B, skips
        # it for the first task (too small), lands tasks on A and C, which
        # are not linked; the embedding search finds (C, D) instead
        net = make_network([5, 3, 6, 7], [(0, 1), (1, 2), (2, 3)])
        wf = chain_workflow([4, 6])
        greedy = greedy_dfs(wf, net)
        assert not greedy.succeeded
        soft = soft_iso(wf, net, WEIGHTS, PARAMS)
        assert soft.succeeded
        assert validate_allocation(wf, net, soft.allocation)

    def test_outcome_independent_of_weights(self):
        rng = random.Random(19)
        for _ in range(30):
            wf, net = random_small_instance(rng)
            a = greedy_dfs(wf, net)
            b = greedy_dfs(wf, net)  # greedy takes no weight argument at all
            assert a.succeeded == b.succeeded
            if a.succeeded:
                assert a.allocation.assignment == b.allocation.assignment
                assert a.allocation.cost_breakdown is None

    def test_every_success_validates(self):
        rng = random.Random(47)
        for _ in range(150):
            wf, net = random_small_instance(rng)
            outcome = greedy_dfs(wf, net)
            if outcome.succeeded:
                assert validate_allocation(wf, net, outcome.allocation)


class TestExhaustiveOracle:
    def test_guard_raises_on_oversized_instances(self):
        wf = chain_workflow([5] * 2)
        big = make_network([127] * 9, [(a, a + 1) for a in range(8)])
        with pytest.raises(ValueError, match="guard"):
            exhaustive_oracle(wf, big, WEIGHTS, PARAMS)

    def test_single_feasible_assignment_returned_regardless_of_cost(self):
        wf = chain_workflow([100, 5])
        net = make_network([127, 6], [(0, 1)])
        outcome = exhaustive_oracle(wf, net, WEIGHTS, PARAMS)
        assert outcome.succeeded
        assert outcome.allocation.assignment == {0: 0, 1: 1}

    def test_symmetric_ties_break_lexicographically(self):
        wf = chain_workflow([5, 5])
        net = make_network([127] * 4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        outcome = exhaustive_oracle(wf, net, WEIGHTS, PARAMS)
        assert outcome.succeeded
        assert [outcome.allocation.assignment[j] for j in range(2)] == [0, 1]

    def test_failure_when_no_feasible_assignment(self):
        wf = chain_workflow([5, 5, 5])
        wf = type(wf)(id="tri", tasks=wf.tasks, edges=frozenset({(0, 1), (1, 2), (0, 2)}))
        tree = make_network([127] * 4, [(0, 1), (0, 2), (0, 3)])
        outcome = exhaustive_oracle(wf, tree, WEIGHTS, PARAMS)
        assert not outcome.succeeded
