"""Allocator behaviour: correctness, equivalence with the oracle, bounds."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc

import pytest

from qflow import allocators
from qflow.allocators import (
    EXHAUSTIVE,
    AllocationOutcome,
    SoftIsoConfig,
    exhaustive_oracle,
    greedy_dfs,
    random_aware,
    soft_iso,
)
from qflow.costs import DecisionTable, aggregate_cost, compute_bounds
from qflow.experiments import repetition, scenario_config, simulate
from qflow.matcher import group_blocks, mask_hosts, workflow_monomorphisms
from qflow.model import (
    Allocation,
    NetworkParams,
    ResourceNetwork,
    WeightConfig,
    mapping_feasible,
    validate_allocation,
)
from qflow.profiles import load_profiles
from qflow.simulation import make_allocator, run_simulation
from qflow.workload import TopologySpec, WorkloadSpec, generate_catalog, generate_network, generate_workload

from .conftest import (
    backlog_at,
    chain_workflow,
    is_connected,
    listings,
    make_network,
    pattern_workflow,
    random_small_instance,
    scenario_instances,
    skim_scan,
    unrolled,
)

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

    def test_one_task_is_never_placed_on_host_n(self):
        """A one-task group's ``u`` is ``v`` on host ``N``, the node count:
        its one block is ``(N, domain)``, yet no unrolled mapping and no
        soft_iso allocation holds ``N``, under the preset thresholds (plain
        and strict), with the thresholds off and exhaustively; the
        exhaustive search places the task where the oracle does."""
        rng = random.Random(1207)
        configs = (SoftIsoConfig(), SoftIsoConfig(strict_pseudocode=True), THRESHOLDS_OFF, EXHAUSTIVE)
        placed = unplaceable = 0
        for _ in range(150):
            network, free_at = random_small_instance(rng, max_nodes=8)[1:]
            n = len(network.nodes)
            q = rng.randint(1, 11)
            wf = pattern_workflow(1, [], [q])
            domain = sum(1 << k for k, node in enumerate(network.nodes) if node.qubits >= q)
            groups = workflow_monomorphisms(wf, network)
            assert [group_blocks(*group[3:]) for group in groups] == ([[(n, domain)]] if domain else [])
            assert list(unrolled(wf, network)) == [{0: k} for k in mask_hosts(domain)]
            backlog = backlog_at(free_at, rng.uniform(0.0, 1.0))
            for config in configs:
                allocation = soft_iso(wf, network, WEIGHTS, PARAMS, config, backlog).allocation
                if not domain:
                    assert allocation is None
                    unplaceable += 1
                    continue
                assert list(allocation.assignment) == [0] and domain >> allocation.assignment[0] & 1
                placed += 1
            if domain:
                oracle = exhaustive_oracle(wf, network, WEIGHTS, PARAMS, backlog).allocation
                assert allocation.assignment == oracle.assignment
        assert placed > 300 and unplaceable > 20

    def test_triangle_workflow_into_tree_fails(self):
        wf = chain_workflow([5, 5, 5])
        wf = type(wf)(id="tri", tasks=wf.tasks, edges=frozenset({(0, 1), (1, 2), (0, 2)}))
        tree = make_network([127, 127, 127, 127], [(0, 1), (0, 2), (0, 3)])
        outcome = soft_iso(wf, tree, WEIGHTS, PARAMS)
        assert not outcome.succeeded
        assert outcome.allocation is None

    def test_decision_table_is_built_at_the_first_group(self, monkeypatch):
        built = []

        def counting_table(*args):
            built.append(args)
            return DecisionTable(*args)

        monkeypatch.setattr("qflow.allocators.DecisionTable", counting_table)
        path = make_network([127, 127, 127], [(0, 1), (1, 2)])
        triangle = pattern_workflow(3, [(0, 1), (1, 2), (0, 2)], qubits=[5, 5, 5])
        too_large = chain_workflow([200, 5])  # the first task fits no node: no group, no table
        for wf in triangle, too_large:
            outcome = soft_iso(wf, path, WEIGHTS, PARAMS)
            assert (outcome.succeeded, outcome.candidates_examined, len(built)) == (False, 0, 0)
        outcome = soft_iso(chain_workflow([5, 5]), path, WEIGHTS, PARAMS)
        assert outcome.succeeded and len(built) == 1

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

    def test_budget_is_a_whole_count(self):
        cap = SoftIsoConfig(counter_cap_base=2.5).cap(2)
        assert cap == 7 and type(cap) is int
        assert SoftIsoConfig(counter_cap_base=10.0).cap(3) == 1000
        assert SoftIsoConfig(counter_cap_base=math.inf).cap(3) == math.inf

    def test_budget_saturates_where_the_power_overflows(self):
        """A base whose power overflows a float gives an unlimited budget,
        as a base of ``inf`` does, instead of an ``OverflowError``."""
        huge = SoftIsoConfig(counter_cap_base=1e100)
        assert huge.cap(4) == math.inf
        unlimited = SoftIsoConfig(counter_cap_base=math.inf)
        rng = random.Random(404)
        checked = 0
        for _ in range(80):
            wf, net, backlog = random_small_instance(rng, max_tasks=5, max_nodes=8)
            if len(wf.tasks) >= 4:
                assert soft_iso(wf, net, WEIGHTS, PARAMS, huge, backlog) == soft_iso(
                    wf, net, WEIGHTS, PARAMS, unlimited, backlog
                )
                checked += 1
        assert checked > 10

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

    # Bounds about 45% over the peaks measured on CPython 3.11: 0.343 MB at
    # 4 tasks and 4.18 MB at 5 tasks. The scorer keeps one memo row per class
    # tuple, so a network of as many classes as nodes is where it grows.
    @pytest.mark.parametrize("tasks, bound_mb", [(4, 0.5), (5, 6.0)])
    def test_one_decision_memory_on_a_class_per_node(self, tasks, bound_mb):
        """One decision's tracemalloc peak on a 20-node network whose every
        node is its own calibration class, built as the many-class probe in
        tools/preset_pairs.py builds it: the fifth decision on its seed-0
        network, the largest peak among the probe's decisions at either
        task count."""
        drawn = generate_network(TopologySpec(node_count=20, link_probability=0.9, seed=0), load_profiles())
        nodes = tuple(dataclasses.replace(node, t1=node.t1 * (1 + 1e-6 * k)) for k, node in enumerate(drawn.nodes))
        network = ResourceNetwork(nodes, drawn.links)
        assert len(network.calibration_classes[0]) == len(nodes)
        spec = WorkloadSpec(batch_size=5, tasks_per_group=tasks, tasks_per_group_min=tasks, seed=0)
        wf = generate_workload(spec, generate_catalog(128, seed=0))[4]
        rng = random.Random(0)
        backlog = [[rng.uniform(0.0, 2.0) for _ in nodes] for _ in range(5)][4]
        tracemalloc.start()
        try:
            outcome = soft_iso(wf, network, WEIGHTS, PARAMS, SoftIsoConfig(), backlog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.succeeded
        assert peak <= bound_mb * 1e6, f"{peak / 1e6:.3f} MB"


def reference_soft_iso(workflow, network, weights, params, config, backlog, by_table=False):
    """soft_iso's search loop scoring every candidate with aggregate_cost,
    or, ``by_table``, with the ``DecisionTable.breakdown`` that
    tests/test_costs.py pins to it float for float (several times faster).

    Returns (assignment, candidates examined, incumbent costs, breakdown).
    """
    n_tasks = len(workflow.tasks)
    cap = config.cap(n_tasks)
    table = DecisionTable(workflow, network, params, backlog)
    bounds = table.bounds
    mincost, maxcost, prevcost = math.inf, -math.inf, 0.0
    examined = 0
    incumbent = incumbent_breakdown = None
    history = []
    for mapping in unrolled(workflow, network):
        if examined >= cap:
            break
        examined += 1
        if by_table:
            breakdown = table.breakdown(mapping, weights)
        else:
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


def reference_outcome(assignment, examined, history, breakdown):
    """The whole outcome a reference loop's results describe."""
    allocation = None
    if assignment is not None:
        allocation = Allocation(assignment=assignment, cost_breakdown=breakdown)
    return AllocationOutcome(allocation=allocation, candidates_examined=examined, incumbent_costs=history)


class TestSoftIsoReference:
    """Table scoring keeps every decision of the aggregate_cost loop."""

    @pytest.mark.parametrize(
        "scenario, node_count, config, seeds, batch",
        [
            # most LP-MR decisions spend the full budget of 10**4 candidates
            ("LP-MR", None, SoftIsoConfig(), 2, 4),
            ("LP-MR", 8, EXHAUSTIVE, 4, 4),
            ("LP-LR", None, SoftIsoConfig(), 4, 4),
            ("LP-LR", None, EXHAUSTIVE, 4, 4),
            # the preset thresholds with the previous cost frozen at zero:
            # blocks that do not improve update the maximum only. On LP-LR
            # at 20 workflows a stop (seeds 1 and 4) reads a maximum and a
            # previous cost set by such blocks; at a batch of 4 none did in
            # 16 seeds.
            ("LP-MR", None, SoftIsoConfig(strict_pseudocode=True), 2, 4),
            ("LP-LR", None, SoftIsoConfig(strict_pseudocode=True), 6, 20),
            # thresholds off, budget 10**4: soft_iso skips blocks by their bound
            ("LP-MR", None, THRESHOLDS_OFF, 2, 4),
            # one infinite threshold is enough for the skip
            ("LP-MR", None, SoftIsoConfig(thres_max=math.inf, thres_prev=0.03), 1, 4),
            ("LP-MR", None, SoftIsoConfig(thres_max=math.inf, thres_prev=0.03, strict_pseudocode=True), 1, 4),
            # one group of large blocks per decision; the stop rule fires
            # partway through it in 19 of these 40 SP-MR decisions, and the
            # budget of 100 cuts a listed block in 21
            ("SP-MR", None, SoftIsoConfig(), 4, 10),
            ("SP-MR", None, SoftIsoConfig(strict_pseudocode=True), 4, 10),
            ("SP-LR", None, SoftIsoConfig(), 4, 10),
            ("SP-LR", None, SoftIsoConfig(strict_pseudocode=True), 4, 10),
            # a budget of 625, at least the n**2 = 400 of a 20-node network, so
            # walk summarises blocks: about 10 per SP-MR decision, in the one
            # group the stop rule ends
            ("SP-MR", None, SoftIsoConfig(counter_cap_base=25.0), 4, 10),
            ("SP-MR", None, SoftIsoConfig(counter_cap_base=25.0, strict_pseudocode=True), 4, 10),
            # small LP-MR budgets: 81, below n**2, cuts listed blocks only; 625
            # cuts 9 listed and 7 summarised blocks in 20 decisions
            ("LP-MR", None, SoftIsoConfig(counter_cap_base=3.0), 2, 10),
            ("LP-MR", None, SoftIsoConfig(counter_cap_base=5.0), 2, 10),
            ("LP-MR", None, SoftIsoConfig(counter_cap_base=5.0, strict_pseudocode=True), 2, 10),
        ],
        ids=[
            "lpmr-default", "lpmr8-exhaustive", "lplr-default", "lplr-exhaustive",
            "lpmr-default-strict", "lplr-default-strict",
            "lpmr-thresholds-off", "lpmr-max-off", "lpmr-max-off-strict",
            "spmr-default", "spmr-default-strict", "splr-default", "splr-default-strict",
            "spmr-budget-625", "spmr-budget-625-strict",
            "lpmr-budget-81", "lpmr-budget-625", "lpmr-budget-625-strict",
        ],
    )
    def test_matches_aggregate_cost_loop(self, scenario, node_count, config, seeds, batch):
        placed = 0
        for seed in range(seeds):
            workflows, network, free_at = scenario_instances(scenario, seed, batch, node_count)
            for wf in workflows:
                backlog = backlog_at(free_at, wf.arrival_time + 0.5)
                assignment, examined, history, breakdown = reference_soft_iso(
                    wf, network, WEIGHTS, PARAMS, config, backlog
                )
                outcome = soft_iso(wf, network, WEIGHTS, PARAMS, config, backlog)
                assert outcome == reference_outcome(assignment, examined, history, breakdown)
                placed += assignment is not None
        assert placed >= 4

    def test_strict_non_improving_blocks_match_the_breakdown_loop(self):
        """Under ``strict_pseudocode`` a block that does not improve updates
        the maximum and leaves the previous cost at zero. On LP-MR, seeds 2
        and 3 at 20 workflows reach a stop that reads such a block's
        maximum and previous cost; at a batch of 4 (``lpmr-default-strict``)
        none does. The reference scores with ``DecisionTable.breakdown``, as
        the ``aggregate_cost`` loop takes about 0.2 s per decision here."""
        config = SoftIsoConfig(strict_pseudocode=True)
        placed = 0
        for seed in (2, 3):
            workflows, network, free_at = scenario_instances("LP-MR", seed, 20)
            for wf in workflows:
                backlog = backlog_at(free_at, wf.arrival_time + 0.5)
                assignment, examined, history, breakdown = reference_soft_iso(
                    wf, network, WEIGHTS, PARAMS, config, backlog, by_table=True
                )
                outcome = soft_iso(wf, network, WEIGHTS, PARAMS, config, backlog)
                assert outcome == reference_outcome(assignment, examined, history, breakdown)
                placed += assignment is not None
        assert placed >= 30

    @staticmethod
    def count_search(monkeypatch, config=THRESHOLDS_OFF, scenario="LP-MR", seeds=(0,), batch=4, simulated=False):
        """Run soft_iso on a scenario's draws (LP-MR, seed 0, 4 workflows by
        default), or, ``simulated``, on the backlogs the simulator passes in
        one repetition per seed at lpmr-search's 50 workflows per second,
        and count the groups and blocks the matcher yields, the groups
        ``skip`` rules out as a whole (a call of ``group_size`` on each
        group's own hosts of ``u``), the blocks ``skim`` bounds one by one,
        the blocks the run closure lists (calls of ``score`` under ``walk``
        and of the scan under ``skim``, told apart by their code objects)
        and the candidates each decision examines. Per group folded (by
        ``fold``, or inside ``skip``), also count the scorer's pair
        evaluations (one read of ``v``'s error row each), the calibration
        classes of the hosts of ``u`` and ``v`` its blocks use, and those
        blocks' (``u``-class, ``v``-class) pairs. A block used by a run closure (``walk`` or
        ``skim``) is one of the blocks it examined, in order, as far as the
        candidates it counted and returned reach (``skim`` counts the
        returned block's other candidates in its size). Per decision, count
        the pair evaluations, the groups folded and the keys (class tuple
        of the prefix's hosts in task order, ``u``-class, ``v``-class) the
        scorer may evaluate, the sentinel host a class of its own, and the
        candidates of the blocks ``walk`` used and of the last block it
        returned, and count the blocks ``skim`` returns."""
        import qflow.allocators
        import qflow.costs

        calls = {
            "groups": 0, "groups_skipped": 0, "blocks": 0, "block_calls": 0, "scored": 0, "examined": [], "folded": [],
            "decisions": [], "group_pairs": [], "returned": 0,
        }
        groups = qflow.allocators.workflow_monomorphisms
        group_scorer = qflow.costs.DecisionTable.group_scorer
        group_size = qflow.costs.group_size
        sized = []  # the hosts of u of each group_size call

        def counting_groups(workflow, network):
            of_node = network.calibration_classes[2]
            for group in groups(workflow, network):
                calls["groups"] += 1
                blocks = group_blocks(*group[3:])
                calls["blocks"] += len(blocks)
                calls["group_pairs"].append({(of_node[hu], of_node[h]) for hu, mask in blocks for h in mask_hosts(mask)})
                yield group

        def counting_size(hosts, leaves, links):
            sized.append(hosts)
            return group_size(hosts, leaves, links)

        def counting(table, weights, u, v):
            reads = [0]

            class Row(tuple):
                def __getitem__(self, k):
                    reads[0] += 1
                    return tuple.__getitem__(self, k)

            table.err = [*table.err]
            table.err[v] = Row(table.err[v])
            fold, score, walk, skim, skip = group_scorer(table, weights, u, v)
            of_node = table.classes[2]
            sentinel = len(table.classes[1])
            decision = {"evals": 0, "groups": 0, "keys": set(), "prefix": (), "walked": 0, "last_block": 0}
            calls["decisions"].append(decision)

            def class_of(h):
                return of_node[h] if h < len(of_node) else sentinel

            def used(hu, hosts, bounded):
                # the block's classes, pairs and key, in the group's and the decision's counts
                group = calls["folded"][-1]
                group[1].add(class_of(hu))
                group[2].update(of_node[h] for h in hosts)
                group[3].update((class_of(hu), of_node[h]) for h in hosts)
                decision["keys"].update((decision["prefix"], class_of(hu), of_node[h]) for h in hosts)
                if bounded:  # skim bounds the block with v on the sentinel host first
                    calls["block_calls"] += 1
                    decision["keys"].add((decision["prefix"], class_of(hu), sentinel))

            def enter(prefix):
                # pair evaluations, classes of u's hosts, classes of v's hosts, their pairs
                calls["folded"].append([0, set(), set(), set()])
                decision["groups"] += 1
                decision["prefix"] = tuple(of_node[prefix[j]] for j in sorted(prefix))

            def counted_fold(prefix):
                enter(prefix)
                fold(prefix)

            def counted_skip(group, groups, floor, budget):
                # skip folds each group it takes, the one given first, and bounds it with u and v on the sentinel host
                taken, skips, mark = [], len(sized), [reads[0]]

                def settle():  # the pair evaluations since the last group taken, in that group
                    calls["folded"][-1][0] += reads[0] - mark[0]
                    decision["evals"] += reads[0] - mark[0]
                    mark[0] = reads[0]

                def take(group):
                    if taken:
                        settle()
                    taken.append(group)
                    enter(group[0])
                    decision["keys"].add((decision["prefix"], sentinel, sentinel))

                def drawn():
                    for later in groups:
                        take(later)
                        yield later

                take(group)
                size, found = skip(group, drawn(), floor, budget)
                settle()
                skipped = taken if found is None else taken[:-1]
                assert sized[skips:] == [hosts for _, _, _, hosts, _, _ in skipped]
                calls["groups_skipped"] += len(skipped)
                return size, found

            def counted(step, bounded):
                lister = skim_scan(step) if bounded else score

                def run(hosts, leaves, links, floor, budget):
                    before = reads[0]
                    with listings(lister) as listed:
                        result = step(hosts, leaves, links, floor, budget)
                    calls["folded"][-1][0] += reads[0] - before
                    decision["evals"] += reads[0] - before
                    calls["scored"] += len(listed)
                    size, *_, costs = result
                    if bounded:
                        calls["returned"] += costs is not None
                    run_size = size + (0 if costs is None else len(costs))  # every candidate examined
                    for h, run_mask in group_blocks(hosts, leaves, links):
                        if run_size <= 0:
                            break
                        used(h, mask_hosts(run_mask)[:run_size], bounded)
                        run_size -= run_mask.bit_count()
                    decision["walked"] += size
                    if costs is not None:
                        decision["walked"] += len(costs)
                        decision["last_block"] = len(costs)
                    return result

                return run

            return counted_fold, score, counted(walk, False), counted(skim, True), counted_skip

        monkeypatch.setattr(qflow.allocators, "workflow_monomorphisms", counting_groups)
        monkeypatch.setattr(qflow.costs.DecisionTable, "group_scorer", counting)
        monkeypatch.setattr(qflow.costs, "group_size", counting_size)
        for seed in seeds:
            if simulated:
                run = scenario_config(
                    scenario, "soft_iso", workload={"batch_size": batch, "arrival_rate": 50.0}, soft_config=config,
                    base_seed=seed,
                )
                rep = repetition(run, 0)

                def allocate(wf, network, backlog, allocator=rep.allocator):
                    outcome = allocator(wf, network, backlog)
                    calls["examined"].append(outcome.candidates_examined)
                    return outcome

                simulate(run, rep._replace(allocator=allocate))
                continue
            workflows, network, free_at = scenario_instances(scenario, seed, batch)
            for wf in workflows:
                outcome = soft_iso(wf, network, WEIGHTS, PARAMS, config, backlog_at(free_at, wf.arrival_time + 0.5))
                calls["examined"].append(outcome.candidates_examined)
        return calls

    def test_thresholds_off_leaves_most_blocks_unscored(self, monkeypatch):
        """With the thresholds off only the budget stops the search, so
        ``skim`` scans only the blocks whose bound is below the incumbent;
        on LP-MR draws at least half of all blocks go unscanned."""
        calls = self.count_search(monkeypatch)
        assert calls["examined"] == [10**4] * 4
        assert calls["blocks"] > 1_000
        assert calls["scored"] <= calls["blocks"] // 2

    def test_thresholds_off_scores_few_of_the_blocks_it_bounds(self, monkeypatch):
        """Of the blocks ``skim`` bounds one by one, the sentinel and
        class-wise bounds rule out all but a fifth: 28 of 1,150 are scanned
        on these draws, and the sentinel bound alone let 425 through. Here
        most backlogs are zero, so the class bound in the block rules out no
        block that the class bound over the network lets through: 48 class
        checks pass both."""
        calls = self.count_search(monkeypatch)
        assert calls["examined"] == [10**4] * 4
        assert calls["block_calls"] > 200
        assert calls["scored"] <= calls["block_calls"] / 5

    def test_thresholds_off_scans_only_blocks_that_improve(self, monkeypatch):
        """``skim`` scans a block host by host only when a class of the
        block, at the least wait of its hosts in the block, has a total
        below the incumbent, so every block it scans holds a candidate that
        improves, and ``skim`` returns it. On the backlogs of three
        simulated LP-MR repetitions shaped as lpmr-search's, 105 of 212
        scans found one when the class bound took the least wait over the
        whole network."""
        calls = self.count_search(monkeypatch, seeds=range(3), batch=5, simulated=True)
        assert len(calls["examined"]) == 15
        assert calls["returned"] > 100
        assert calls["scored"] == calls["returned"]

    def test_thresholds_off_skips_most_groups(self, monkeypatch):
        """With the thresholds off ``skip`` rules out whole groups by their
        bound; on LP-MR draws at least half of all groups are skipped."""
        calls = self.count_search(monkeypatch)
        assert calls["examined"] == [10**4] * 4
        assert calls["groups"] > 100
        assert calls["groups_skipped"] >= calls["groups"] / 2

    @pytest.mark.parametrize("config", [THRESHOLDS_OFF, SoftIsoConfig()], ids=["thresholds-off", "preset"])
    def test_a_group_evaluates_each_class_pair_at_most_once(self, monkeypatch, config):
        """On LP-MR draws a group whose blocks are scored makes at most
        (its ``u`` classes + 1) x (its ``v`` classes + 1) pair evaluations,
        the sentinel host counting as one more class of each: not one per
        block, nor one per host."""
        calls = self.count_search(monkeypatch, config)
        scored = [(evals, len(us), len(vs)) for evals, us, vs, _ in calls["folded"] if us]
        assert len(scored) > 50
        assert all(evals <= (n_u + 1) * (n_v + 1) for evals, n_u, n_v in scored)

    def test_a_walk_lists_nothing_past_the_block_where_the_stop_rule_fired(self, monkeypatch):
        """An SP-MR decision is one group of large blocks, and at the preset
        thresholds the stop rule fires partway through it on about half of
        these draws. The candidates such a decision examines end in the last
        block ``walk`` returned, and the scorer evaluates only the
        (``u``-class, ``v``-class) pairs of the blocks walked up to there. A
        walk that listed the whole group before returning would keep every
        outcome, but would evaluate the pairs of the group's later blocks
        too, and on many of these decisions those are pairs the walked
        blocks do not hold."""
        calls = self.count_search(monkeypatch, SoftIsoConfig(), "SP-MR", seeds=range(4), batch=10)
        assert len(calls["decisions"]) == len(calls["examined"]) == calls["groups"] == 40
        stopped = fewer_pairs = 0
        for decision, (evals, _, _, pairs), group_pairs, examined in zip(
            calls["decisions"], calls["folded"], calls["group_pairs"], calls["examined"]
        ):
            assert evals <= len(pairs)
            if examined < 100:  # the stop rule fired, in the last block returned
                stopped += 1
                assert decision["walked"] - decision["last_block"] < examined <= decision["walked"]
                fewer_pairs += len(pairs) < len(group_pairs)
        assert stopped >= 15 and fewer_pairs >= 10

    def test_a_decision_evaluates_each_class_key_at_most_once(self, monkeypatch):
        """With the thresholds off, as in lpmr-search, a decision's scorer
        evaluates ``R`` at most once per (prefix class tuple, ``u``-class,
        ``v``-class) it meets: its memo lasts the whole decision. The
        groups of an LP-MR decision repeat few class tuples, so a memo
        cleared at every group would evaluate most keys many times."""
        calls = self.count_search(monkeypatch)
        assert len(calls["decisions"]) == 4
        for decision in calls["decisions"]:
            assert 0 < decision["evals"] <= len(decision["keys"])
            assert len({prefix for prefix, _, _ in decision["keys"]}) < decision["groups"] / 5

    def test_walk_and_skim_agree_past_the_oracle_size(self, monkeypatch):
        """On 30- and 40-node LP-MR and LP-LR networks, past the oracle's 8
        nodes, with random backlogs: thresholds of 1e300 never stop the
        search but run ``walk``, infinite ones run ``skim`` and ``skip``,
        which counts each group its bound rules out, and both give the same
        outcome. At a base of 6 the budget ends most decisions, cutting the
        block that spends it. In 71 of the 144 decisions under ``skim`` the
        budget ends inside a run of groups ``skip`` counts, past the first,
        and there ``candidates_examined`` is the cap exactly."""
        group_scorer = DecisionTable.group_scorer
        ended = []  # per skip call: whether the budget ended in a group drawn past the one given

        def counting(table, weights, u, v):
            *closures, skip = group_scorer(table, weights, u, v)

            def counted(group, groups, floor, budget):
                drawn = []
                size, found = skip(group, (drawn.append(later) or later for later in groups), floor, budget)
                ended.append(found is None and size == budget and bool(drawn))
                return size, found

            return (*closures, counted)

        monkeypatch.setattr(DecisionTable, "group_scorer", counting)
        rng = random.Random(3040)
        spent = {10.0: 0, 6.0: 0}
        cut_in_skip = 0
        for scenario in ("LP-MR", "LP-LR"):
            for node_count in (30, 40):
                for seed in range(3):
                    workflows, network, _ = scenario_instances(scenario, seed, 6, node_count=node_count)
                    for wf in workflows:
                        backlog = [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in network.nodes]
                        for base in spent:
                            walked = soft_iso(wf, network, WEIGHTS, PARAMS, SoftIsoConfig(1e300, 1e300, base), backlog)
                            off = SoftIsoConfig(math.inf, math.inf, base)
                            del ended[:]
                            skimmed = soft_iso(wf, network, WEIGHTS, PARAMS, off, backlog)
                            assert skimmed == walked and skimmed.succeeded
                            spent[base] += skimmed.candidates_examined == off.cap(len(wf.tasks))
                            if any(ended):
                                assert skimmed.candidates_examined == off.cap(len(wf.tasks))
                                cut_in_skip += 1
        assert spent[6.0] > 50 and spent[10.0] > 20, spent
        assert cut_in_skip > 50


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
            SoftIsoConfig(thres_max=0.02, thres_prev=0.002, counter_cap_base=2.5),
            # only thres_prev infinite: skim with a finite thres_max, its budget cut mid-run
            SoftIsoConfig(thres_prev=math.inf, counter_cap_base=2.5),
        ],
        ids=["default", "tight", "tight-strict", "fractional-cap", "tight-fractional-cap", "prev-off-fractional-cap"],
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
            assert outcome == reference_outcome(assignment, examined, history, breakdown)
            if assignment is not None:
                assert list(outcome.allocation.assignment) == list(assignment)
            stopped_early += examined < len(list(unrolled(wf, network)))
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

    def test_aborted_and_complete_trials_all_count(self, monkeypatch):
        # the 5-qubit task goes first: on the 127-qubit node it leaves the 100-qubit task no pool
        wf = chain_workflow([100, 5])
        net = make_network([127, 5], [(0, 1)])
        complete = []

        def counting(assignment, workflow, network):
            complete.append(dict(assignment))
            return mapping_feasible(assignment, workflow, network)

        monkeypatch.setattr(allocators, "mapping_feasible", counting)
        outcome = random_aware(wf, net, WEIGHTS, PARAMS, rng_seed=5, trial_multiplier=4)
        assert outcome.candidates_examined == 2 * 4
        assert 0 < len(complete) < 2 * 4  # some trials aborted, some completed
        assert outcome.allocation.assignment == {1: 1, 0: 0}

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

    def test_pools_are_read_from_the_network_host_tuple_store(self, monkeypatch):
        """A network lists each pool mask's hosts once: its store holds
        exactly the masks the draws read, each as ``tuple(mask_hosts(mask))``,
        and a later read returns the same tuple. A pool is ``fit & ~used``
        with fewer than T nodes used (T the most tasks of a workflow), so the
        store holds at most (distinct qubit masks read) x sum_{k<T} C(N, k)
        entries: after 3 x 100 LP-MR workflows on one 20-node network, where
        every node fits every task (one mask) and T is 4, 960 of 1,351."""

        class Reads(dict):
            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        read, listed = set(), []

        def listing(mask):
            listed.append(mask)
            return mask_hosts(mask)

        monkeypatch.setattr(allocators, "mask_hosts", listing)
        network = scenario_instances("LP-MR", 0, 1)[1]
        network.__dict__["host_tuples"] = store = Reads()  # the cached_property's slot
        seen, most_tasks = {}, 0
        for seed in range(3):
            workflows = scenario_instances("LP-MR", seed, 100)[0]
            most_tasks = max(most_tasks, *(len(wf.tasks) for wf in workflows))
            allocator = make_allocator("random_aware", WEIGHTS, PARAMS, base_seed=seed)
            assert run_simulation(workflows, network, allocator, PARAMS, retry_limit=0).completed
            assert all(store[mask] is pool for mask, pool in seen.items())  # kept, not listed again
            seen = dict(store)
        assert set(store) == read and listed == list(store)
        assert all(pool == tuple(mask_hosts(mask)) for mask, pool in store.items())
        fits = set(network._qubit_masks.values())  # the distinct qubit masks read
        bound = len(fits) * sum(math.comb(len(network.nodes), k) for k in range(most_tasks))
        assert (len(store), bound) == (960, 1_351)


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
        placed = aborted = placed_idle = 0
        for i, (wf, network, free_at) in enumerate(instances):
            backlog = backlog_at(free_at, rng.uniform(0.05, 1.5))
            if i % 4 == 0:
                backlog = None  # an idle network
            seed = rng.randrange(1 << 30)
            assignment, trials, history, breakdown, aborts = reference_random_aware(
                wf, network, WEIGHTS, PARAMS, seed, backlog, trial_multiplier
            )
            outcome = random_aware(
                wf, network, WEIGHTS, PARAMS, rng_seed=seed, backlog=backlog,
                trial_multiplier=trial_multiplier,
            )
            aborted += aborts
            assert outcome == reference_outcome(assignment, trials, history, breakdown)
            if assignment is not None:
                assert list(outcome.allocation.assignment) == list(assignment)  # qubit order
                placed += 1
                placed_idle += backlog is None
        assert placed >= 100 and aborted >= 20 and placed_idle >= 25

    def test_decision_table_is_built_at_the_first_feasible_trial(self, monkeypatch):
        built = []

        def counting_table(*args):
            built.append(args)
            return DecisionTable(*args)

        monkeypatch.setattr("qflow.allocators.DecisionTable", counting_table)
        path = make_network([127, 127, 127], [(0, 1), (1, 2)])
        triangle = pattern_workflow(3, [(0, 1), (1, 2), (0, 2)], qubits=[5, 5, 5])
        too_large = chain_workflow([200, 5])  # the first task fits no node
        # every trial fails the link check, or aborts
        for wf, trials in (triangle, 9), (too_large, 6):
            outcome = random_aware(wf, path, WEIGHTS, PARAMS, rng_seed=1, trial_multiplier=3)
            assert (outcome.succeeded, outcome.candidates_examined, len(built)) == (False, trials, 0)
        complete = make_network([127] * 4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        outcome = random_aware(chain_workflow([5, 5, 5]), complete, WEIGHTS, PARAMS, rng_seed=1, trial_multiplier=3)
        assert outcome.succeeded and len(built) == 1  # nine feasible trials, one table


def reference_dfs_node_order(network):
    """The DFS walk greedy_dfs used to recompute at every decision."""
    n = len(network.nodes)
    key = lambda k: (network.nodes[k].qubits, k)
    adjacency = [mask_hosts(mask) for mask in network.neighbour_masks]
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
            assert network.dfs_order == tuple(reference_dfs_node_order(network))
            assert network.dfs_order is network.dfs_order
            forests += not is_connected(network)
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
                    assert outcome.allocation == Allocation(assignment=assignment)
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


class TestNegativeBacklog:
    configs = (SoftIsoConfig(), SoftIsoConfig(strict_pseudocode=True), THRESHOLDS_OFF, EXHAUSTIVE)

    @staticmethod
    def observed(outcome):
        allocation = outcome.allocation
        placement = allocation and (list(allocation.assignment.items()), allocation.cost_breakdown)
        return placement, outcome.candidates_examined, outcome.incumbent_costs

    def test_negative_entries_score_as_idle_nodes(self):
        """A caller's negative backlog entry scores as 0.0: soft_iso (the
        presets, plain and strict, with the thresholds off and exhaustively)
        and the oracle return, float for float and key for key, what they
        return with the negative entries raised to 0.0. The cost functions
        clip no value below 0: each total reads ``max(wait[h], wu)`` with
        ``wu >= 0.0``, and the availability sums start at 0.0."""
        rng = random.Random(4242)
        observed = self.observed
        placed = 0
        for _ in range(400):
            wf, net, _ = random_small_instance(rng)
            backlog = [rng.uniform(-3.0, 3.0) for _ in net.nodes]
            raised = [max(x, 0.0) for x in backlog]
            for config in self.configs:
                got, want = (soft_iso(wf, net, WEIGHTS, PARAMS, config, b) for b in (backlog, raised))
                assert observed(got) == observed(want)
            got, want = (exhaustive_oracle(wf, net, WEIGHTS, PARAMS, b) for b in (backlog, raised))
            assert observed(got) == observed(want)
            placed += got.succeeded
        assert placed > 150

    def test_nan_entries_after_the_first_score_as_idle_nodes(self):
        """A NaN backlog entry other than the first (a first one is refused)
        reads as no wait, as ``max()`` reads it in the availability bound:
        soft_iso under every config, random_aware and the oracle return
        what they return with the NaN entries set to 0.0. The scenario
        networks share calibration classes, so the bounded path orders a
        class's hosts by wait, which a NaN key would leave unsorted."""
        rng = random.Random(4243)
        observed = self.observed
        instances = [random_small_instance(rng)[:2] for _ in range(200)]
        for scenario in ("SP-MR", "LP-LR"):
            for seed in range(2):
                workflows, network, _ = scenario_instances(scenario, seed, 25)
                instances += [(wf, network) for wf in workflows]
        placed = one_task = 0
        for wf, net in instances:
            backlog = [rng.uniform(0.0, 3.0) for _ in net.nodes]
            for k in rng.sample(range(1, len(backlog)), min(2, len(backlog) - 1)):
                backlog[k] = math.nan
            zeroed = [0.0 if x != x else x for x in backlog]
            for config in self.configs:
                got, want = (soft_iso(wf, net, WEIGHTS, PARAMS, config, b) for b in (backlog, zeroed))
                assert observed(got) == observed(want)
            got, want = (random_aware(wf, net, WEIGHTS, PARAMS, 7, b, 3) for b in (backlog, zeroed))
            assert observed(got) == observed(want)
            if len(net.nodes) <= allocators.ORACLE_MAX_NODES:
                got, want = (exhaustive_oracle(wf, net, WEIGHTS, PARAMS, b) for b in (backlog, zeroed))
                assert observed(got) == observed(want)
            placed += want.succeeded
            one_task += want.succeeded and len(wf.tasks) == 1
        assert placed > 150 and one_task > 20


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
