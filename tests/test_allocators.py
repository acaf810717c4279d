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

from .conftest import backlog_at, chain_workflow, make_network, random_small_instance, scenario_instances

WEIGHTS = WeightConfig()
PARAMS = NetworkParams()
# the setting of the benchmark's lpmr-search workload
THRESHOLDS_OFF = SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf, counter_cap_base=10.0)


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
            wf, net, backlog = random_small_instance(rng)
            soft = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE, backlog)
            oracle = exhaustive_oracle(wf, net, WEIGHTS, PARAMS, backlog)
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
            wf, net, backlog = random_small_instance(rng)
            outcome = soft_iso(wf, net, WEIGHTS, PARAMS, backlog=backlog)
            assert outcome.candidates_examined <= 10 ** len(wf.tasks)

    def test_strict_pseudocode_mode_runs_and_matches_default_when_exhaustive(self):
        rng = random.Random(7)
        wf, net, backlog = random_small_instance(rng)
        strict = SoftIsoConfig(
            thres_max=math.inf, thres_prev=math.inf, counter_cap_base=math.inf, strict_pseudocode=True
        )
        a = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE, backlog)
        b = soft_iso(wf, net, WEIGHTS, PARAMS, strict, backlog)
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
        backlog = [0.5, 0.42, 0.39, 1.0]
        weights = WeightConfig(zeta=1.0)
        config = SoftIsoConfig(thres_max=0.1, thres_prev=0.03)
        default = soft_iso(wf, net, weights, PARAMS, config, backlog)
        strict = soft_iso(
            wf, net, weights, PARAMS,
            SoftIsoConfig(thres_max=0.1, thres_prev=0.03, strict_pseudocode=True),
            backlog,
        )
        assert strict.candidates_examined == 3
        assert default.candidates_examined == 4
        assert default.allocation.assignment == strict.allocation.assignment == {0: 2}

    def test_incumbent_costs_strictly_decreasing(self):
        rng = random.Random(23)
        for _ in range(40):
            wf, net, backlog = random_small_instance(rng)
            outcome = soft_iso(wf, net, WEIGHTS, PARAMS, EXHAUSTIVE, backlog)
            costs = outcome.incumbent_costs
            assert all(costs[i + 1] < costs[i] for i in range(len(costs) - 1))

    def test_every_success_validates(self):
        rng = random.Random(77)
        for _ in range(150):
            wf, net, backlog = random_small_instance(rng)
            outcome = soft_iso(wf, net, WEIGHTS, PARAMS, backlog=backlog)
            if outcome.succeeded:
                assert validate_allocation(wf, net, outcome.allocation)


def reference_soft_iso(workflow, network, weights, params, config, backlog):
    """soft_iso's search loop scoring every candidate with aggregate_cost.

    Returns (assignment, candidates examined, incumbent costs, breakdown).
    """
    n_tasks = len(workflow.tasks)
    cap = config.cap(n_tasks)
    bounds = compute_bounds(workflow, network, params, backlog)
    mincost, maxcost, prevcost = math.inf, -math.inf, 0.0
    examined = 0
    incumbent = incumbent_breakdown = None
    history = []
    for mapping in workflow_monomorphisms(workflow, network):
        if examined >= cap:
            break
        examined += 1
        candidate = [mapping[j] for j in range(n_tasks)]
        breakdown = aggregate_cost(workflow, candidate, network, weights, params, bounds, backlog)
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
            # thresholds off, budget 10**4: soft_iso skips blocks by their bound
            ("LP-MR", None, THRESHOLDS_OFF, 2),
            # one infinite threshold is enough for the skip
            ("LP-MR", None, SoftIsoConfig(thres_max=math.inf, thres_prev=0.03), 1),
            ("LP-MR", None, SoftIsoConfig(thres_max=math.inf, thres_prev=0.03, strict_pseudocode=True), 1),
        ],
        ids=[
            "lpmr-default", "lpmr8-exhaustive", "lplr-default", "lplr-exhaustive",
            "lpmr-thresholds-off", "lpmr-max-off", "lpmr-max-off-strict",
        ],
    )
    def test_matches_aggregate_cost_loop(self, scenario, node_count, config, seeds):
        placed = 0
        for seed in range(seeds):
            workflows, network, free_at = scenario_instances(scenario, seed, 4, node_count)
            for wf in workflows:
                backlog = backlog_at(free_at, wf.arrival_time + 0.5)
                assignment, examined, history, breakdown = reference_soft_iso(
                    wf, network, WEIGHTS, PARAMS, config, backlog
                )
                outcome = soft_iso(wf, network, WEIGHTS, PARAMS, config, backlog)
                assert outcome == reference_outcome(wf, assignment, examined, history, breakdown)
                placed += assignment is not None
        assert placed >= 4

    @staticmethod
    def count_lpmr_search(monkeypatch):
        """Run soft_iso with the thresholds off on LP-MR draws and count the
        groups and blocks the matcher yields, the groups whose bound skips
        them and the blocks the scorer scores."""
        import qflow.allocators
        import qflow.costs

        calls = {"groups": 0, "groups_skipped": 0, "blocks": 0, "scored": 0}
        groups = qflow.allocators.workflow_monomorphism_groups
        block_scorer = qflow.costs.DecisionTable.block_scorer

        def counting_groups(workflow, network):
            for group in groups(workflow, network):
                calls["groups"] += 1
                calls["blocks"] += len(group[3])
                yield group

        def counting(table, weights, v):
            score = block_scorer(table, weights, v)

            def counted(prefix, mask, floor=None):
                costs = score(prefix, mask, floor)
                if mask:
                    calls["scored"] += costs is not None
                else:
                    calls["groups_skipped"] += costs is None
                return costs

            return counted

        monkeypatch.setattr(qflow.allocators, "workflow_monomorphism_groups", counting_groups)
        monkeypatch.setattr(qflow.costs.DecisionTable, "block_scorer", counting)
        workflows, network, free_at = scenario_instances("LP-MR", 0, 4)
        for wf in workflows:
            outcome = soft_iso(wf, network, WEIGHTS, PARAMS, THRESHOLDS_OFF, backlog_at(free_at, wf.arrival_time + 0.5))
            assert outcome.candidates_examined == 10**4
        return calls

    def test_thresholds_off_leaves_most_blocks_unscored(self, monkeypatch):
        """With the thresholds off only the budget stops the search, so
        soft_iso scores only the blocks whose bound is below the incumbent;
        on LP-MR draws at least half of all blocks go unscored."""
        calls = self.count_lpmr_search(monkeypatch)
        assert calls["blocks"] > 1_000
        assert calls["scored"] <= calls["blocks"] // 2

    def test_thresholds_off_skips_most_groups(self, monkeypatch):
        """With the thresholds off soft_iso rules out whole groups by their
        bound; on LP-MR draws at least half of all groups are skipped."""
        calls = self.count_lpmr_search(monkeypatch)
        assert calls["groups"] > 100
        assert calls["groups_skipped"] >= calls["groups"] / 2


class TestSoftIsoStopRule:
    """soft_iso scores whole blocks and walks one candidate at a time only
    through blocks that improve the incumbent; where the stop rule and a
    fractional budget bite often, every outcome still equals the loop over
    single candidates."""

    @pytest.mark.parametrize(
        "config",
        [
            SoftIsoConfig(),
            SoftIsoConfig(thres_max=0.02, thres_prev=0.002),
            SoftIsoConfig(thres_max=0.02, thres_prev=0.002, strict_pseudocode=True),
            SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf, counter_cap_base=2.5),
        ],
        ids=["default", "tight", "tight-strict", "fractional-cap"],
    )
    def test_matches_aggregate_cost_loop_on_random_instances(self, config):
        rng = random.Random(808)
        stopped_early = 0
        for _ in range(250):
            wf, network, _ = random_small_instance(rng, max_tasks=5, max_nodes=8)
            free_at = [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in network.nodes]
            backlog = backlog_at(free_at, rng.uniform(0.0, 1.0))
            assignment, examined, history, breakdown = reference_soft_iso(
                wf, network, WEIGHTS, PARAMS, config, backlog
            )
            outcome = soft_iso(wf, network, WEIGHTS, PARAMS, config, backlog)
            assert outcome == reference_outcome(wf, assignment, examined, history, breakdown)
            if assignment is not None:
                assert list(outcome.allocation.assignment) == list(assignment)
            stopped_early += examined < len(list(workflow_monomorphisms(wf, network)))
        assert stopped_early >= 25


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
            wf, net, backlog = random_small_instance(rng)
            a = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=99, backlog=backlog)
            b = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=99, backlog=backlog)
            assert a.succeeded == b.succeeded
            assert a.candidates_examined == b.candidates_examined
            assert a.incumbent_costs == b.incumbent_costs
            if a.succeeded:
                assert a.allocation.assignment == b.allocation.assignment

    def test_incumbent_costs_nonincreasing(self):
        rng = random.Random(31)
        for _ in range(80):
            wf, net, backlog = random_small_instance(rng)
            outcome = random_aware(
                wf, net, WEIGHTS, PARAMS, rng_seed=rng.randrange(1 << 30), backlog=backlog, trial_multiplier=5
            )
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
            wf, net, backlog = random_small_instance(rng)
            outcome = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=rng.randrange(1 << 30), backlog=backlog)
            if outcome.succeeded:
                assert validate_allocation(wf, net, outcome.allocation)


def reference_random_aware(workflow, network, weights, params, rng_seed, backlog, trial_multiplier):
    """random_aware's trial loop scoring every trial with aggregate_cost and
    keeping that trial's breakdown.

    Returns (assignment, trials, incumbent costs, breakdown, aborted trials).
    """
    rng = random.Random(rng_seed)
    n_tasks = len(workflow.tasks)
    bounds = compute_bounds(workflow, network, params, backlog)
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
        breakdown = aggregate_cost(workflow, candidate, network, weights, params, bounds, backlog)
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
                workflows, network, free_at = scenario_instances(scenario, seed, 10)
                instances += [(wf, network, free_at) for wf in workflows]
        placed = aborted = 0
        for wf, network, free_at in instances:
            backlog = backlog_at(free_at, rng.uniform(0.05, 1.5))
            seed = rng.randrange(1 << 30)
            assignment, trials, history, breakdown, aborts = reference_random_aware(
                wf, network, WEIGHTS, PARAMS, seed, backlog, trial_multiplier
            )
            outcome = random_aware(
                wf, network, WEIGHTS, PARAMS, rng_seed=seed, backlog=backlog,
                trial_multiplier=trial_multiplier,
            )
            aborted += aborts
            assert outcome == reference_outcome(wf, assignment, trials, history, breakdown)
            placed += assignment is not None
        assert placed >= 100 and aborted >= 20


def reference_dfs_node_order(network):
    """The DFS walk greedy_dfs used to recompute at every decision."""
    n = len(network.nodes)
    key = lambda k: (network.nodes[k].qubits, k)
    adjacency = network.adjacency()
    visited = []
    seen = set()
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


def reference_greedy_dfs(workflow, network):
    """greedy_dfs walking the reference order: the assignment or None."""
    pending = sorted(range(len(workflow.tasks)), key=lambda j: (workflow.tasks[j].qubits, j))
    assignment = {}
    for k in reference_dfs_node_order(network):
        if not pending:
            break
        if network.nodes[k].qubits >= workflow.tasks[pending[0]].qubits:
            assignment[pending.pop(0)] = k
    if pending or not mapping_feasible(assignment, workflow, network):
        return None
    return assignment


class TestGreedyDfs:
    def test_cached_order_equals_reference_walk_on_random_networks(self):
        rng = random.Random(606)
        forests = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            qubits = [rng.choice([3, 5, 7, 27]) for _ in range(n)]  # few sizes: many ties
            p = rng.choice([0.0, 0.15, 0.4, 0.9])
            links = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
            network = make_network(qubits, links)
            assert network.dfs_order() == tuple(reference_dfs_node_order(network))
            assert network.dfs_order() is network.dfs_order()
            forests += not network.is_connected()
        assert forests >= 50

    @pytest.mark.parametrize("scenario", ["SP-LR", "SP-MR", "LP-LR", "LP-MR"])
    def test_outcomes_match_reference_on_preset_draws(self, scenario):
        placed = 0
        for seed in range(3):
            workflows, network, _ = scenario_instances(scenario, seed, 40)
            for wf in workflows:
                outcome = greedy_dfs(wf, network)
                assignment = reference_greedy_dfs(wf, network)
                assert outcome.candidates_examined == 1
                if assignment is None:
                    assert outcome.allocation is None
                else:
                    assert outcome.allocation == Allocation(workflow_id=wf.id, assignment=assignment)
                    assert list(outcome.allocation.assignment) == list(assignment)
                    placed += 1
        assert placed >= 5

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
            wf, net, _ = random_small_instance(rng)
            a = greedy_dfs(wf, net)
            b = greedy_dfs(wf, net)  # greedy takes no weight argument at all
            assert a.succeeded == b.succeeded
            if a.succeeded:
                assert a.allocation.assignment == b.allocation.assignment
                assert a.allocation.cost_breakdown is None

    def test_every_success_validates(self):
        rng = random.Random(47)
        for _ in range(150):
            wf, net, _ = random_small_instance(rng)
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
