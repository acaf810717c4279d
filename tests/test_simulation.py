"""Simulation-engine tests: hand-traced timelines, FCFS discipline, metrics."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import random

import pytest

from qflow import simulation
from qflow.allocators import AllocationOutcome, greedy_dfs
from qflow.costs import edge_communication_cost, fidelity, runtime_cost, workflow_network_cost
from qflow.model import Allocation, NetworkParams, WeightConfig, Workflow
from qflow.simulation import TaskExecution, make_allocator, qpu_time_distribution, run_simulation

from .conftest import chain_workflow, make_network, make_task

PARAMS = NetworkParams()
WEIGHTS = WeightConfig()


def fixed_allocator(assignments: dict[str, dict[int, int]]):
    """Allocator stub that returns a pinned assignment per workflow id."""

    def call(workflow, network, backlog):
        mapping = assignments.get(workflow.id)
        allocation = Allocation(workflow_id=workflow.id, assignment=mapping) if mapping else None
        return AllocationOutcome(allocation=allocation, candidates_examined=1)

    return call


class TestTimelineOracles:
    """The three hand-traced queue scenarios, exact to 1e-12."""

    def test_empty_workload_all_metrics_zero(self):
        net = make_network([127], [])
        state = run_simulation([], net, fixed_allocator({}), PARAMS)
        m = state.metrics
        assert m.execution_time == 0.0
        assert m.wait_time == 0.0
        assert m.avg_fidelity == 0.0
        assert m.communication_overhead == 0.0
        assert m.decision_time == 0.0
        assert m.completion_pct == 0.0
        assert qpu_time_distribution(state) == [0.0]

    def test_single_task_on_idle_node(self):
        net = make_network([127], [])
        wf = chain_workflow([5], wf_id="w0", arrival=0.0)
        state = run_simulation([wf], net, fixed_allocator({"w0": {0: 0}}), PARAMS)
        duration = runtime_cost(wf.tasks[0], net.nodes[0])
        assert state.metrics.wait_time == pytest.approx(0.0, abs=1e-12)
        assert state.metrics.execution_time == pytest.approx(duration, abs=1e-12)
        assert state.metrics.completion_pct == 100.0
        assert state.executions[0].start == 0.0
        assert state.executions[0].finish == pytest.approx(duration, abs=1e-12)

    def test_second_workflow_waits_exactly_first_duration(self):
        net = make_network([127], [])
        wa = chain_workflow([5], wf_id="wa", arrival=0.0)
        wb = chain_workflow([5], wf_id="wb", arrival=0.0)
        state = run_simulation(
            [wa, wb], net, fixed_allocator({"wa": {0: 0}, "wb": {0: 0}}), PARAMS
        )
        duration = runtime_cost(wa.tasks[0], net.nodes[0])
        starts = {e.workflow_id: e.start for e in state.executions}
        finishes = {e.workflow_id: e.finish for e in state.executions}
        assert starts["wa"] == pytest.approx(0.0, abs=1e-12)
        assert starts["wb"] == pytest.approx(duration, abs=1e-12)
        assert finishes["wb"] == pytest.approx(2 * duration, abs=1e-12)
        assert state.metrics.wait_time == pytest.approx(duration, abs=1e-12)
        assert state.metrics.execution_time == pytest.approx(2 * duration, abs=1e-12)


class TestDependencyGating:
    def make_chain_setup(self):
        net = make_network([127, 127], [(0, 1)])
        t0 = make_task(task_id="t0", qubits=5, depth=6, two_qubit_gates=4, measured_qubits=5)
        t1 = make_task(task_id="t1", qubits=7, depth=9, two_qubit_gates=6, measured_qubits=7)
        wf = Workflow(id="w", tasks=(t0, t1), edges=frozenset({(0, 1)}), arrival_time=0.0)
        return net, wf

    def test_dependent_start_includes_comm_latency(self):
        net, wf = self.make_chain_setup()
        state = run_simulation([wf], net, fixed_allocator({"w": {0: 0, 1: 1}}), PARAMS)
        d0 = runtime_cost(wf.tasks[0], net.nodes[0])
        latency = edge_communication_cost(wf.tasks[0], net.nodes[0], wf.tasks[1], net.nodes[1], PARAMS)
        by_task = {e.task_index: e for e in state.executions}
        assert by_task[0].start == pytest.approx(0.0, abs=1e-12)
        assert by_task[1].start == pytest.approx(d0 + latency, abs=1e-12)
        expected_finish = d0 + latency + runtime_cost(wf.tasks[1], net.nodes[1])
        assert by_task[1].finish == pytest.approx(expected_finish, abs=1e-12)
        assert state.metrics.execution_time == pytest.approx(expected_finish, abs=1e-12)

    def test_gating_without_comm_latency(self):
        net, wf = self.make_chain_setup()
        state = run_simulation(
            [wf], net, fixed_allocator({"w": {0: 0, 1: 1}}), PARAMS, gate_comm_latency=False
        )
        d0 = runtime_cost(wf.tasks[0], net.nodes[0])
        by_task = {e.task_index: e for e in state.executions}
        assert by_task[1].start == pytest.approx(d0, abs=1e-12)

    def test_no_gating_runs_tasks_concurrently(self):
        net, wf = self.make_chain_setup()
        state = run_simulation(
            [wf], net, fixed_allocator({"w": {0: 0, 1: 1}}), PARAMS, dependency_gating=False
        )
        by_task = {e.task_index: e for e in state.executions}
        assert by_task[1].start == pytest.approx(0.0, abs=1e-12)
        d0 = runtime_cost(wf.tasks[0], net.nodes[0])
        d1 = runtime_cost(wf.tasks[1], net.nodes[1])
        assert state.metrics.execution_time == pytest.approx(max(d0, d1), abs=1e-12)


class TestFcfsDiscipline:
    def test_per_node_starts_follow_enqueue_order(self):
        rng = random.Random(5)
        net = make_network([127, 127, 127], [(0, 1), (1, 2)])
        workload = [
            chain_workflow([rng.randint(2, 9)], wf_id=f"w{i}", arrival=rng.random() * 2)
            for i in range(12)
        ]
        workload.sort(key=lambda wf: wf.arrival_time)
        allocator = make_allocator("greedy_dfs", WEIGHTS, PARAMS)
        state = run_simulation(workload, net, allocator, PARAMS)
        per_node: dict[int, list] = {}
        for e in state.executions:
            per_node.setdefault(e.node_index, []).append(e)
        for events in per_node.values():
            starts = [e.start for e in events]
            assert starts == sorted(starts)

    def test_free_at_equals_last_finish(self):
        net = make_network([127, 127, 127], [(0, 1), (1, 2)])
        workload = [chain_workflow([5], wf_id=f"w{i}", arrival=0.1 * (i // 2)) for i in range(5)]
        allocator = fixed_allocator({f"w{i}": {0: i % 2} for i in range(5)})
        state = run_simulation(workload, net, allocator, PARAMS)
        assert sorted(e.node_index for e in state.executions) == [0, 0, 0, 1, 1]
        for k in range(3):
            finishes = [e.finish for e in state.executions if e.node_index == k]
            assert state.free_at[k] == max(finishes, default=0.0)

    def test_allocator_sees_the_backlog_at_each_decision(self):
        # w0 and w1 queue on node 0 at t=0; w2 arrives at t=0.05 while both run
        net = make_network([127, 127], [(0, 1)])
        workload = [chain_workflow([5], wf_id=f"w{i}", arrival=0.05 * (i // 2)) for i in range(3)]
        seen = []
        pinned = fixed_allocator({f"w{i}": {0: 0} for i in range(3)})

        def recording(workflow, network, backlog):
            seen.append(backlog)
            return pinned(workflow, network, backlog)

        state = run_simulation(workload, net, recording, PARAMS)
        d = runtime_cost(workload[0].tasks[0], net.nodes[0])
        assert seen == [[0.0, 0.0], [d, 0.0], [max(2 * d - 0.05, 0.0), 0.0]]
        assert state.free_at == [3 * d, 0.0]

    def test_same_instant_ties_break_by_total_qubits_then_priority(self):
        net = make_network([127], [])
        small = chain_workflow([2], wf_id="small", arrival=1.0)
        big = chain_workflow([9], wf_id="big", arrival=1.0)
        state = run_simulation([big, small], net, fixed_allocator({"small": {0: 0}, "big": {0: 0}}), PARAMS)
        starts = {e.workflow_id: e.start for e in state.executions}
        assert starts["small"] < starts["big"]

        urgent = Workflow(id="urgent", tasks=small.tasks, edges=frozenset(), arrival_time=1.0, priority=-1)
        lazy = Workflow(id="lazy", tasks=small.tasks, edges=frozenset(), arrival_time=1.0, priority=2)
        state = run_simulation(
            [lazy, urgent], net, fixed_allocator({"urgent": {0: 0}, "lazy": {0: 0}}), PARAMS
        )
        starts = {e.workflow_id: e.start for e in state.executions}
        assert starts["urgent"] < starts["lazy"]


class TestFailuresAndRetries:
    def test_unallocatable_workflow_fails_after_retries(self):
        net = make_network([127, 127], [])  # no links at all
        wf = chain_workflow([5, 5], wf_id="w", arrival=0.0)
        calls = []

        def counting(workflow, network, backlog):
            calls.append(backlog)
            return greedy_dfs(workflow, network)

        state = run_simulation([wf], net, counting, PARAMS, retry_limit=2)
        assert len(calls) == 3  # initial attempt + two retries
        assert [w.id for w in state.failed] == ["w"]
        assert state.metrics.completion_pct == 0.0
        assert state.metrics.tasks_total == 2
        assert state.metrics.tasks_allocated == 0

    def test_zero_retry_limit_is_terminal_first_failure(self):
        net = make_network([127, 127], [])
        wf = chain_workflow([5, 5], wf_id="w", arrival=0.0)
        calls = []

        def counting(workflow, network, backlog):
            calls.append(backlog)
            return greedy_dfs(workflow, network)

        run_simulation([wf], net, counting, PARAMS, retry_limit=0)
        assert len(calls) == 1

    def test_retry_happens_at_next_decision_instant(self):
        # workflow A fails at t=0; a later arrival at t=1 triggers its retry
        net = make_network([127, 127], [(0, 1)])
        blocked = chain_workflow([5, 5], wf_id="blocked", arrival=0.0)
        late = chain_workflow([5], wf_id="late", arrival=1.0)
        seen: list[str] = []
        outcomes = {"blocked": [None, {0: 0, 1: 1}], "late": [{0: 0}]}

        def scripted(workflow, network, backlog):
            seen.append(workflow.id)
            script = outcomes[workflow.id]
            mapping = script.pop(0)
            allocation = (
                Allocation(workflow_id=workflow.id, assignment=mapping) if mapping else None
            )
            return AllocationOutcome(allocation=allocation, candidates_examined=1)

        state = run_simulation([blocked, late], net, scripted, PARAMS, retry_limit=3)
        assert seen == ["blocked", "blocked", "late"]
        # placed at its retry, at t=1: its first task starts then
        assert min(e.start for e in state.executions if e.workflow_id == "blocked") == 1.0
        assert len(state.completed) == 2

    def test_completion_accounting_partitions_tasks(self):
        rng = random.Random(3)
        net = make_network([64, 64, 64], [(0, 1), (1, 2)])
        workload = []
        for i in range(10):
            n = rng.randint(1, 3)
            workload.append(
                chain_workflow([rng.randint(2, 120) for _ in range(n)], wf_id=f"w{i}", arrival=float(i) / 5)
            )
        allocator = make_allocator("greedy_dfs", WEIGHTS, PARAMS)
        state = run_simulation(workload, net, allocator, PARAMS)
        failed_tasks = sum(len(w.tasks) for w in state.failed)
        assert state.metrics.tasks_allocated + failed_tasks == state.metrics.tasks_total
        assert len(state.completed) + len(state.failed) == len(workload)


def coin_allocator(seed: int, calls: list):
    """Allocator stub that records the workflow id per call and fails at
    random; successes pin task j on node j."""
    rng = random.Random(seed)

    def call(workflow, network, backlog):
        calls.append(workflow.id)
        mapping = {j: j for j in range(len(workflow.tasks))} if rng.random() < 0.4 else None
        allocation = Allocation(workflow_id=workflow.id, assignment=mapping) if mapping else None
        return AllocationOutcome(allocation=allocation, candidates_examined=1)

    return call


def rescan_reference(workload, allocator, retry_limit):
    """The documented rule as a rescan: at every distinct arrival time, offer
    each arrived, pending workflow in (arrival, total qubits, priority, id)
    order; after the last arrival, pass again at that time until every
    workflow is placed or out of retries. Returns (completed, failed) ids
    and the (id, decision time) of each placement."""
    key = lambda wf: (wf.arrival_time, wf.total_qubits, wf.priority, wf.id)
    attempts = {wf.id: 0 for wf in workload}
    pending, completed, failed, placed = list(workload), [], [], []
    instants = sorted({wf.arrival_time for wf in workload})

    def decision_pass(t):
        for wf in sorted((wf for wf in pending if wf.arrival_time <= t), key=key):
            attempts[wf.id] += 1
            if allocator(wf, None, None).succeeded:
                completed.append(wf.id)
                placed.append((wf.id, t))
                pending.remove(wf)
            elif attempts[wf.id] > retry_limit:
                failed.append(wf.id)
                pending.remove(wf)

    for t in instants:
        decision_pass(t)
    while pending:
        decision_pass(instants[-1])
    return (completed, failed), placed


class TestCallSequence:
    @pytest.mark.parametrize("retry_limit", [0, 1, 3])
    def test_calls_and_outcomes_match_rescan_reference(self, monkeypatch, retry_limit):
        # the decision clock reaches the run as the `now` each placement is
        # executed at, so every placement's (id, now) is checked too
        placed = []
        execute = simulation._execute

        def recording(workflow, outcome, state, params, now, *gates):
            placed.append((workflow.id, now))
            return execute(workflow, outcome, state, params, now, *gates)

        monkeypatch.setattr(simulation, "_execute", recording)
        rng = random.Random(100 + retry_limit)
        net = make_network([127, 127, 127], [(0, 1), (0, 2), (1, 2)])
        total_calls = total_workflows = 0
        for _ in range(20):
            # few distinct arrival times and small qubit/priority ranges, so
            # instants are shared and every tie-break level is exercised
            workload = []
            for i in rng.sample(range(100), rng.randint(30, 60)):
                chain = chain_workflow([rng.choice([2, 5, 9]) for _ in range(rng.randint(1, 3))])
                workload.append(
                    Workflow(
                        id=f"w{i:02d}",
                        tasks=chain.tasks,
                        edges=chain.edges,
                        arrival_time=rng.choice([0.0, 0.5, 1.25, 3.0, 4.5]),
                        priority=rng.choice([-1, 0, 2]),
                    )
                )
            seed = rng.randrange(2**32)
            calls, expected_calls = [], []
            placed.clear()
            state = run_simulation(
                workload, net, coin_allocator(seed, calls), PARAMS, retry_limit=retry_limit
            )
            expected, expected_placed = rescan_reference(
                workload, coin_allocator(seed, expected_calls), retry_limit
            )
            assert calls == expected_calls
            assert placed == expected_placed
            assert ([wf.id for wf in state.completed], [wf.id for wf in state.failed]) == expected
            total_calls += len(calls)
            total_workflows += len(workload)
        # with retries allowed, some workflows must actually have been retried
        assert (total_calls > total_workflows) == (retry_limit > 0)


def fresh_execute(workflow, outcome, state, params, now, dependency_gating, gate_comm_latency):
    """The simulator's execution step evaluating every runtime, fidelity and
    edge cost afresh from the cost functions."""
    network = state.network
    free_at = state.free_at
    assignment = outcome.allocation.assignment
    finish_times = {}
    for j in workflow.topological_order():
        task = workflow.tasks[j]
        node_index = assignment[j]
        node = network.nodes[node_index]
        ready = now
        if dependency_gating:
            for p in sorted(a for a, b in workflow.edges if b == j):
                gate = finish_times[p]
                if gate_comm_latency:
                    gate += edge_communication_cost(
                        workflow.tasks[p], network.nodes[assignment[p]], task, node, params
                    )
                ready = max(ready, gate)
        start = max(free_at[node_index], ready)
        duration = runtime_cost(task, node)
        finish = start + duration
        finish_times[j] = finish
        free_at[node_index] = finish
        state.busy_seconds[node_index] += duration
        state.executions.append(
            TaskExecution(workflow_id=workflow.id, task_index=j, node_index=node_index, start=start, finish=finish)
        )
        state.metrics.wait_time += start - workflow.arrival_time
        state.metrics.fidelity_sum += fidelity(task, node)
        state.metrics.tasks_allocated += 1
    state.metrics.communication_overhead += workflow_network_cost(
        workflow, assignment, network, params, require_links=True
    )


class TestMetrics:
    def test_fidelity_average_over_allocated_tasks(self):
        net = make_network([127], [])
        wf = chain_workflow([5], wf_id="w", arrival=0.0)
        state = run_simulation([wf], net, fixed_allocator({"w": {0: 0}}), PARAMS)
        assert state.metrics.avg_fidelity == fidelity(wf.tasks[0], net.nodes[0])

    def test_makespan_bounds_single_task_runtime(self):
        rng = random.Random(11)
        net = make_network([127, 127], [(0, 1)])
        workload = [
            chain_workflow([rng.randint(2, 9)], wf_id=f"w{i}", arrival=rng.random())
            for i in range(8)
        ]
        workload.sort(key=lambda w: w.arrival_time)
        allocator = make_allocator("soft_iso", WEIGHTS, PARAMS)
        state = run_simulation(workload, net, allocator, PARAMS)
        longest = max(e.duration for e in state.executions)
        assert state.metrics.execution_time >= longest - 1e-12
        assert state.metrics.wait_time >= 0.0
        assert state.metrics.completion_pct == 100.0

    def test_comm_overhead_sums_workflow_network_costs(self):
        net = make_network([127, 127], [(0, 1)])
        wf = chain_workflow([5, 7], wf_id="w", arrival=0.0)
        state = run_simulation([wf], net, fixed_allocator({"w": {0: 0, 1: 1}}), PARAMS)
        expected = workflow_network_cost(wf, {0: 0, 1: 1}, net, PARAMS)
        assert state.metrics.communication_overhead == expected

    @pytest.mark.parametrize("name", ["soft_iso", "greedy_dfs"])
    def test_execution_equals_fresh_cost_functions(self, monkeypatch, name):
        # the simulator reads the network's cached terms; every record and
        # float metric must be what the cost functions give afresh
        from .conftest import scenario_instances

        runs = {}
        for label, execute in (("cached", simulation._execute), ("fresh", fresh_execute)):
            monkeypatch.setattr(simulation, "_execute", execute)
            runs[label] = []
            for seed in range(3):
                workflows, network, _ = scenario_instances("LP-LR", seed, 80)
                state = run_simulation(workflows, network, make_allocator(name, WEIGHTS, PARAMS), PARAMS)
                m = state.metrics
                runs[label].append((state.executions, m.wait_time, m.fidelity_sum, m.communication_overhead))
        assert runs["cached"] == runs["fresh"]
        assert sum(len(executions) for executions, *_ in runs["fresh"]) > 50

    @pytest.mark.parametrize("failures", [0, 1, 3])
    def test_decision_time_counts_every_invocation(self, monkeypatch, failures):
        # a clock that ticks 1.0 per read makes each timed call last 1 s
        ticks = itertools.count(0.0, 1.0)
        monkeypatch.setattr(simulation, "perf_counter", lambda: next(ticks))
        net = make_network([127], [])
        wf = chain_workflow([5], wf_id="w", arrival=0.0)
        script = [None] * failures + [{0: 0}]

        def flaky(workflow, network, backlog):
            mapping = script.pop(0)
            allocation = Allocation(workflow_id=workflow.id, assignment=mapping) if mapping else None
            return AllocationOutcome(allocation=allocation, candidates_examined=1)

        state = run_simulation([wf], net, flaky, PARAMS, retry_limit=failures)
        assert state.completed == [wf]
        assert state.metrics.decision_time == failures + 1


class TestNetworkIsOnlyRead:
    """A run keeps its availability to itself, so runs may share a network."""

    @staticmethod
    def draws(seed):
        from .conftest import scenario_instances

        workflows, network, _ = scenario_instances("LP-LR", seed, 60)
        return workflows, network

    @pytest.mark.parametrize("name", ["soft_iso", "random_aware", "greedy_dfs"])
    def test_run_leaves_its_network_unchanged(self, name):
        for seed in range(2):
            workflows, network = self.draws(seed)
            before = copy.deepcopy(network)
            state = run_simulation(workflows, network, make_allocator(name, WEIGHTS, PARAMS, base_seed=seed), PARAMS)
            assert state.completed and state.executions
            assert network == before
            assert [vars(node) for node in network.nodes] == [vars(node) for node in before.nodes]

    @pytest.mark.parametrize("name", ["soft_iso", "random_aware", "greedy_dfs"])
    def test_two_runs_on_one_network_are_identical(self, name):
        for seed in range(2):
            workflows, network = self.draws(seed)
            first, second = (
                run_simulation(workflows, network, make_allocator(name, WEIGHTS, PARAMS, base_seed=seed), PARAMS)
                for _ in range(2)
            )
            assert first.executions and first.executions == second.executions
            assert [wf.id for wf in first.completed] == [wf.id for wf in second.completed]
            assert [wf.id for wf in first.failed] == [wf.id for wf in second.failed]
            assert first.free_at == second.free_at
            untimed = lambda m: dataclasses.replace(m, decision_time=0.0)
            assert untimed(first.metrics) == untimed(second.metrics)


class TestQpuTimeDistribution:
    def test_single_busy_node_takes_everything(self):
        net = make_network([127, 127], [(0, 1)])
        wf = chain_workflow([5], wf_id="w", arrival=0.0)
        state = run_simulation([wf], net, fixed_allocator({"w": {0: 0}}), PARAMS)
        assert qpu_time_distribution(state) == [100.0, 0.0]

    def test_balanced_pair_splits_evenly(self):
        net = make_network([127, 127], [(0, 1)])
        wa = chain_workflow([5], wf_id="wa", arrival=0.0)
        wb = chain_workflow([5], wf_id="wb", arrival=0.0)
        state = run_simulation(
            [wa, wb], net, fixed_allocator({"wa": {0: 0}, "wb": {0: 1}}), PARAMS
        )
        assert qpu_time_distribution(state) == pytest.approx([50.0, 50.0], abs=1e-9)

    def test_shares_sum_to_hundred_when_work_exists(self):
        rng = random.Random(2)
        net = make_network([127] * 4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        workload = [
            chain_workflow([rng.randint(2, 9)], wf_id=f"w{i}", arrival=rng.random())
            for i in range(10)
        ]
        workload.sort(key=lambda w: w.arrival_time)
        allocator = make_allocator("random_aware", WEIGHTS, PARAMS, base_seed=5)
        state = run_simulation(workload, net, allocator, PARAMS)
        assert sum(qpu_time_distribution(state)) == pytest.approx(100.0, abs=1e-9)
