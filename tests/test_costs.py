"""Cost-engine tests against independent high-precision oracles."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.costs import (
    DecisionTable,
    NormalizationBounds,
    aggregate_cost,
    classical_link_cost,
    compute_bounds,
    error_cost,
    fidelity,
    quantum_link_cost,
    runtime_cost,
    workflow_network_cost,
)
from qflow.matcher import mask_hosts, workflow_monomorphism_groups
from qflow.model import NetworkParams, QpuNode, ResourceNetwork, WeightConfig, Workflow

from .conftest import backlog_at, chain_workflow, make_network, make_node, make_task

getcontext().prec = 50


def fresh_terms(wf, network, params, backlog):
    """One decision's terms and bounds evaluated afresh from the term
    functions, the bounds taken over the qubit-feasible (task, node) pairs,
    or over all pairs when none fits: what a cached table must equal."""
    tasks, nodes = wf.tasks, network.nodes
    err = [tuple(error_cost(t, n) for n in nodes) for t in tasks]
    run = [tuple(runtime_cost(t, n) for n in nodes) for t in tasks]
    qlink = [tuple(quantum_link_cost(t, n, params) for n in nodes) for t in tasks]
    clink = [classical_link_cost(t, params) for t in tasks]
    avail = [0.0] * len(nodes) if backlog is None else backlog
    pairs = [
        (j, k) for j, t in enumerate(tasks) for k, n in enumerate(nodes) if t.qubits <= n.qubits
    ] or [(j, k) for j in range(len(tasks)) for k in range(len(nodes))]
    bounds = NormalizationBounds(
        max_nat=max(max(avail, default=0.0), 1e-12),
        max_task_error_sum=max(len(tasks) * max(err[j][k] for j, k in pairs), 1e-12),
        max_task_runtime_sum=max(len(tasks) * max(run[j][k] for j, k in pairs), 1e-12),
        max_network_sum=max(
            len(wf.skeleton()) * max(qlink[j][k] + clink[j] for j, k in pairs), 1e-12
        ),
    )
    return err, run, qlink, clink, avail, bounds


def assert_fresh(table, wf, network, params, backlog):
    """The cached rows are the fresh rows, each followed by its minimum on
    the sentinel host; the bounds range over the real nodes only."""
    err, run, qlink, clink, avail, bounds = fresh_terms(wf, network, params, backlog)
    assert table.err == [row + (min(row),) for row in err]
    assert table.run == [row + (min(row),) for row in run]
    assert table.qlink == [row + (min(row),) for row in qlink]
    assert table.clink == clink
    assert table.avail == avail
    assert table.edges == tuple(sorted(wf.skeleton()))
    assert table.bounds == bounds


def decimal_error(e1: str, e2: str, er: str, depth: int, g2: int, qubits: int) -> Decimal:
    """Independent 50-digit evaluation of the execution-error formula."""
    survival = (
        (1 - Decimal(e1)) ** depth
        * (1 - Decimal(e2)) ** Decimal(g2).sqrt()
        * (1 - Decimal(er)) ** qubits
    )
    return 1 - survival


def decimal_quantum_link(rho: str, qubits: int, rt2: str, t1: str, t2: str) -> Decimal:
    hm = 2 * Decimal(t1) * Decimal(t2) / (Decimal(t1) + Decimal(t2))
    return Decimal(rho) * 10 * qubits * Decimal(rt2) / hm


class TestErrorCost:
    def test_ghz5_on_brisbane_matches_decimal_oracle(self, brisbane):
        task = make_task(qubits=5, depth=6, two_qubit_gates=4, measured_qubits=5)
        expected = decimal_error("2.517e-4", "7.042e-3", "2.393e-2", 6, 4, 5)
        assert float(expected) == pytest.approx(0.12781095430281576, rel=1e-12)
        assert error_cost(task, brisbane) == pytest.approx(float(expected), rel=1e-9)

    def test_noiseless_device_has_zero_error(self):
        node = make_node()
        task = make_task()
        assert error_cost(task, node) == 0.0

    def test_unit_exponents_reduce_to_two_factor_product(self):
        node = make_node(e1=0.01, e2=0.5, er=0.02)
        task = make_task(qubits=1, depth=1, two_qubit_gates=0, measured_qubits=1)
        assert error_cost(task, node) == pytest.approx(1 - (1 - 0.01) * (1 - 0.02), rel=1e-12)

    @given(
        e1=st.floats(0, 0.05), e2=st.floats(0, 0.05), er=st.floats(0, 0.2),
        depth=st.integers(1, 500), g2=st.integers(0, 500), qubits=st.integers(1, 150),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_and_monotone(self, e1, e2, er, depth, g2, qubits):
        node = make_node(qubits=200, e1=e1, e2=e2, er=er)
        task = make_task(qubits=qubits, depth=depth, two_qubit_gates=g2, measured_qubits=0)
        err = error_cost(task, node)
        assert 0.0 <= err <= 1.0
        assert fidelity(task, node) == 1.0 - err
        # nondecreasing in every argument
        worse_node = make_node(qubits=200, e1=min(e1 + 0.01, 0.99), e2=e2, er=er)
        assert error_cost(task, worse_node) >= err
        worse_node = make_node(qubits=200, e1=e1, e2=min(e2 + 0.01, 0.99), er=er)
        assert error_cost(task, worse_node) >= err
        worse_node = make_node(qubits=200, e1=e1, e2=e2, er=min(er + 0.01, 0.99))
        assert error_cost(task, worse_node) >= err
        deeper = make_task(qubits=qubits, depth=depth + 5, two_qubit_gates=g2, measured_qubits=0)
        assert error_cost(deeper, node) >= err
        gatier = make_task(qubits=qubits, depth=depth, two_qubit_gates=g2 + 5, measured_qubits=0)
        assert error_cost(gatier, node) >= err
        wider = make_task(qubits=qubits + 5, depth=depth, two_qubit_gates=g2, measured_qubits=0)
        assert error_cost(wider, node) >= err


class TestRuntimeCost:
    def test_fraction_oracle(self, brisbane):
        task = make_task(depth=6, shots=1000)
        expected = Fraction(6 * 1000, 180000)
        assert runtime_cost(task, brisbane) == pytest.approx(float(expected), rel=1e-9)

    def test_identity_case(self):
        node = make_node(d1cps=1.0)
        task = make_task(depth=1, shots=1, two_qubit_gates=0)
        assert runtime_cost(task, node) == 1.0

    def test_table_speeds_used_verbatim(self, brisbane, torino, marrakesh):
        assert brisbane.d1cps == 180000
        assert torino.d1cps == 220000
        assert marrakesh.d1cps == 200000

    def test_linear_scaling(self):
        node = make_node(d1cps=123456.0)
        base = make_task(depth=7, shots=500, two_qubit_gates=0)
        doubled_shots = make_task(depth=7, shots=1000, two_qubit_gates=0)
        doubled_depth = make_task(depth=14, shots=500, two_qubit_gates=0)
        fast_node = make_node(d1cps=246912.0)
        assert runtime_cost(doubled_shots, node) == 2 * runtime_cost(base, node)
        assert runtime_cost(doubled_depth, node) == 2 * runtime_cost(base, node)
        assert runtime_cost(base, fast_node) == runtime_cost(base, node) / 2


class TestLinkCosts:
    def test_quantum_link_matches_decimal_oracle(self, brisbane):
        task = make_task(qubits=5)
        params = NetworkParams(success_probability=0.5, transmission_efficiency=1.0, switch_count=1)
        expected = decimal_quantum_link("0.5", 5, "660e-9", "220.53e-6", "128.92e-6")
        assert float(expected) == pytest.approx(0.10140305026875218, rel=1e-12)
        assert quantum_link_cost(task, brisbane, params) == pytest.approx(float(expected), rel=1e-9)

    def test_zero_success_probability(self, brisbane):
        params = NetworkParams(success_probability=0.0)
        assert quantum_link_cost(make_task(), brisbane, params) == 0.0

    def test_harmonic_mean_symmetry(self):
        params = NetworkParams()
        a = make_node(t1=200e-6, t2=120e-6)
        b = make_node(t1=120e-6, t2=200e-6)
        task = make_task()
        assert quantum_link_cost(task, a, params) == quantum_link_cost(task, b, params)

    def test_equal_coherence_times_collapse_to_single_time(self):
        params = NetworkParams(success_probability=1.0, switch_count=0)
        node = make_node(t1=150e-6, t2=150e-6, rt2=100e-9)
        task = make_task(qubits=3, measured_qubits=3)
        assert quantum_link_cost(task, node, params) == pytest.approx(
            1.0 * 10 * 3 * 100e-9 / 150e-6, rel=1e-12
        )

    def test_eta_in_db_interpretation(self):
        linear = NetworkParams(transmission_efficiency=10 ** 0.1, switch_count=1)
        db = NetworkParams(transmission_efficiency=1.0, switch_count=1, eta_in_db=True)
        node = make_node()
        task = make_task()
        assert quantum_link_cost(task, node, db) == pytest.approx(
            quantum_link_cost(task, node, linear), rel=1e-12
        )

    def test_classical_link(self):
        params = NetworkParams(classical_latency=0.02)
        assert classical_link_cost(make_task(measured_qubits=5), params) == pytest.approx(0.1, rel=1e-9)
        assert classical_link_cost(make_task(measured_qubits=0), params) == 0.0


class TestWorkflowNetworkCost:
    def test_no_edges_empty_sum(self):
        wf = chain_workflow([5])
        network = make_network([127], [])
        assert workflow_network_cost(wf, {0: 0}, network, NetworkParams()) == 0.0

    def test_identical_endpoints_average_collapses(self, brisbane):
        from qflow.model import ResourceNetwork

        network = ResourceNetwork(
            nodes=(brisbane, make_node("brisbane-1", qubits=127, e1=brisbane.one_qubit_error,
                                       e2=brisbane.two_qubit_error, er=brisbane.readout_error,
                                       rt2=brisbane.two_qubit_runtime, t1=brisbane.t1,
                                       t2=brisbane.t2, d1cps=brisbane.d1cps)),
            links=frozenset({(0, 1)}),
        )
        wf = chain_workflow([5, 5])
        params = NetworkParams()
        got = workflow_network_cost(wf, {0: 0, 1: 1}, network, params)
        single = quantum_link_cost(wf.tasks[0], network.nodes[0], params) + classical_link_cost(
            wf.tasks[0], params
        )
        assert got == pytest.approx(single, rel=1e-12)

    def test_three_task_path_brute_force(self):
        rng = random.Random(7)
        params = NetworkParams(success_probability=0.7, classical_latency=0.05)
        tasks = [
            make_task(task_id=f"t{i}", qubits=rng.randint(2, 9),
                      measured_qubits=rng.randint(0, 2), depth=rng.randint(1, 9))
            for i in range(3)
        ]
        wf = Workflow(id="wf", tasks=tuple(tasks), edges=frozenset({(0, 1), (1, 2)}))
        nodes = tuple(
            make_node(node_id=f"n{k}", qubits=10, rt2=rng.uniform(60e-9, 700e-9),
                      t1=rng.uniform(1e-4, 3e-4), t2=rng.uniform(1e-4, 3e-4))
            for k in range(3)
        )
        from qflow.model import ResourceNetwork

        network = ResourceNetwork(nodes=nodes, links=frozenset({(0, 1), (1, 2)}))
        assignment = {0: 0, 1: 1, 2: 2}
        # brute-force oracle: evaluate each edge term from first principles
        expected = 0.0
        for a, b in [(0, 1), (1, 2)]:
            na, nb = nodes[assignment[a]], nodes[assignment[b]]
            nq_a = params.success_probability * 10 * tasks[a].qubits * na.two_qubit_runtime / (
                2 * na.t1 * na.t2 / (na.t1 + na.t2)
            )
            nq_b = params.success_probability * 10 * tasks[b].qubits * nb.two_qubit_runtime / (
                2 * nb.t1 * nb.t2 / (nb.t1 + nb.t2)
            )
            nc_a = params.classical_latency * tasks[a].measured_qubits
            nc_b = params.classical_latency * tasks[b].measured_qubits
            expected += (nq_a + nq_b) / 2 + (nc_a + nc_b) / 2
        got = workflow_network_cost(wf, assignment, network, params)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_non_link_edge_raises(self):
        wf = chain_workflow([5, 5])
        network = make_network([127, 127, 127], [(0, 1)])
        with pytest.raises(ValueError, match="non-linked"):
            workflow_network_cost(wf, {0: 0, 1: 2}, network, NetworkParams())
        # scoring mode tolerates it
        val = workflow_network_cost(wf, {0: 0, 1: 2}, network, NetworkParams(), require_links=False)
        assert val > 0.0


class TestAggregateCost:
    def test_zeta_one_reduces_to_availability(self):
        network = make_network([127, 127], [(0, 1)])
        backlog = [4.0, 1.0]
        wf = chain_workflow([5, 5])
        weights = WeightConfig(zeta=1.0)
        params = NetworkParams()
        bounds = compute_bounds(wf, network, params, backlog)
        got = aggregate_cost(wf, [0, 1], network, weights, params, bounds, backlog)
        assert got.total == pytest.approx(got.availability, rel=1e-12)
        assert got.availability_raw == 4.0

    def test_idle_nodes_zero_availability(self):
        network = make_network([127, 127], [(0, 1)])
        wf = chain_workflow([5, 5])
        params = NetworkParams()
        backlog = backlog_at([0.0, 0.0], 10.0)
        bounds = compute_bounds(wf, network, params, backlog)
        got = aggregate_cost(wf, [0, 1], network, WeightConfig(), params, bounds, backlog)
        assert got == aggregate_cost(wf, [0, 1], network, WeightConfig(), params, compute_bounds(wf, network, params))
        assert got.availability_raw == 0.0
        assert got.availability == 0.0

    def test_two_task_composition_of_per_term_oracles(self, profiles):
        from qflow.model import ResourceNetwork
        from qflow.profiles import node_from_profile

        n0 = node_from_profile("brisbane", profiles, "b0")
        n1 = node_from_profile("brisbane", profiles, "b1")
        network = ResourceNetwork(nodes=(n0, n1), links=frozenset({(0, 1)}))
        wf = chain_workflow([5, 5])
        params = NetworkParams()
        weights = WeightConfig()
        bounds = compute_bounds(wf, network, params)
        got = aggregate_cost(wf, [0, 1], network, weights, params, bounds)

        err = float(decimal_error("2.517e-4", "7.042e-3", "2.393e-2", 6, 4, 5))
        nq = float(decimal_quantum_link("0.5", 5, "660e-9", "220.53e-6", "128.92e-6"))
        assert got.error_raw == pytest.approx(2 * err, rel=1e-9)
        assert got.runtime_raw == pytest.approx(2 * 6 * 1000 / 180000, rel=1e-9)
        assert got.network_raw == pytest.approx(nq + 0.02 * 5, rel=1e-9)
        assert got.availability_raw == 0.0
        # identical nodes: raw sums hit their bounds exactly, availability is 0
        expected_total = (1 - weights.zeta) * (
            weights.alpha * 1.0 + weights.beta * 1.0 + weights.gamma * 1.0
        )
        assert got.total == pytest.approx(expected_total, rel=1e-9)

    def test_zeta_zero_ignores_queue_state(self):
        wf = chain_workflow([5, 5])
        params = NetworkParams()
        weights = WeightConfig(zeta=0.0)
        network = make_network([127, 127], [(0, 1)])
        busy = [99.0, 5.0]
        total_idle = aggregate_cost(
            wf, [0, 1], network, weights, params, compute_bounds(wf, network, params)
        ).total
        total_busy = aggregate_cost(
            wf, [0, 1], network, weights, params, compute_bounds(wf, network, params, busy), busy
        ).total
        assert total_idle == pytest.approx(total_busy, rel=1e-12)

    def test_normalized_components_in_unit_interval(self):
        rng = random.Random(3)
        params = NetworkParams()
        weights = WeightConfig()
        from .conftest import random_small_instance

        for _ in range(200):
            wf, network, free_at = random_small_instance(rng)
            backlog = backlog_at(free_at, 0.5)
            bounds = compute_bounds(wf, network, params, backlog)
            nodes = list(range(len(network.nodes)))
            rng.shuffle(nodes)
            candidate = nodes[: len(wf.tasks)]
            got = aggregate_cost(wf, candidate, network, weights, params, bounds, backlog)
            for value in (got.availability, got.error, got.runtime, got.network):
                assert 0.0 <= value <= 1.0
            assert 0.0 <= got.total <= 1.0


class TestCandidateScorer:
    def test_equals_aggregate_cost_total_exactly(self):
        # the allocators keep a candidate only when it is strictly cheaper,
        # so the table's breakdown must hold the very floats aggregate_cost
        # returns, the total included.
        from .conftest import random_small_instance

        rng = random.Random(2024)
        clipped = 0
        for _ in range(300):
            wf, network, _ = random_small_instance(rng, max_tasks=5, max_nodes=8)
            sim_time = rng.uniform(0.05, 1.5)
            backlog = backlog_at([rng.choice([0.0, rng.uniform(0.0, 3.0)]) for _ in network.nodes], sim_time)
            params = NetworkParams(
                success_probability=rng.uniform(0.1, 1.0),
                transmission_efficiency=rng.uniform(0.2, 1.0),
                switch_count=rng.randint(0, 3),
                classical_latency=rng.uniform(0.0, 0.05),
            )
            alpha = rng.random()
            beta = rng.random() * (1.0 - alpha)
            weights = WeightConfig(
                zeta=rng.choice([0.0, 0.5, 1.0]), alpha=alpha, beta=beta, gamma=1.0 - alpha - beta
            )
            table = DecisionTable(wf, network, params, backlog)
            assert_fresh(table, wf, network, params, backlog)
            bounds = table.bounds
            for _ in range(20):
                # any injective candidate: links and qubit capacity are ignored
                candidate = rng.sample(range(len(network.nodes)), len(wf.tasks))
                ref = aggregate_cost(wf, candidate, network, weights, params, bounds, backlog)
                assert table.breakdown(candidate, weights) == ref
                assert table.breakdown(dict(enumerate(candidate)), weights) == ref
                clipped += (
                    ref.error_raw > bounds.max_task_error_sum
                    or ref.runtime_raw > bounds.max_task_runtime_sum
                    or ref.network_raw > bounds.max_network_sum
                )
        assert clipped > 100  # the clipping branch is exercised, not just the interior


class TestTermCache:
    """A network's cached terms stay what a fresh evaluation gives, after a
    run on it and under every link-parameter set."""

    @staticmethod
    def networks(rng):
        from .conftest import random_small_instance, scenario_instances

        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(2):
                yield scenario_instances(scenario, seed, 12)[:2]
        for i in range(40):
            wf, network, _ = random_small_instance(rng, max_tasks=5, max_nodes=8)
            others = [random_small_instance(rng, max_tasks=5)[0] for _ in range(5)]
            workflows = [
                dataclasses.replace(w, id=f"wf{i}-{k}", arrival_time=0.1 * k)
                for k, w in enumerate([wf, *others])
            ]
            yield workflows, network
        # one calibration class: nodes equal but for their id (0.0 == -0.0)
        same = [make_node(f"s{k}", 9, 0.004, 0.01, -0.0 if k % 2 else 0.0) for k in range(6)]
        # eleven classes: every b node is one class, and d_k differs from
        # b_k in exactly one field
        base = dict(qubits=6, e1=0.004, e2=0.01, er=0.02, rt1=60e-9, rt2=660e-9, rtr=1600e-9,
                    t1=220e-6, t2=120e-6, d1cps=180000.0)
        pairs = [make_node("b0", **base)]
        for k, (name, value) in enumerate(base.items(), 1):
            changed = value + 3 if name == "qubits" else value * 1.5
            pairs += [make_node(f"b{k}", **base), make_node(f"d{k}", **{**base, name: changed})]
        for nodes in (same, pairs):
            network = ResourceNetwork(tuple(nodes), frozenset(itertools.combinations(range(len(nodes)), 2)))
            workflows = [
                dataclasses.replace(random_small_instance(rng, max_tasks=5)[0], id=f"cal{k}", arrival_time=0.1 * k)
                for k in range(6)
            ]
            yield workflows, network

    @staticmethod
    def assert_classes(network):
        """Two nodes share a calibration class exactly when their fields
        other than id are equal; each class's representative is one of its
        nodes."""
        names = [f.name for f in dataclasses.fields(QpuNode) if f.name != "id"]
        assert len(names) == 10
        key = [tuple(getattr(node, name) for name in names) for node in network.nodes]
        reps, masks, of_node = network.calibration_classes
        for j, k in itertools.combinations(range(len(key)), 2):
            assert (of_node[j] == of_node[k]) == (key[j] == key[k])
        assert [c for c, mask in enumerate(masks) for _ in mask_hosts(mask)] == sorted(of_node)
        assert all(of_node[k] == c for c, mask in enumerate(masks) for k in mask_hosts(mask))
        assert all(any(network.nodes[k] is rep for k in mask_hosts(mask)) for rep, mask in zip(reps, masks))

    def test_rows_and_bounds_equal_fresh_evaluation(self):
        from qflow.allocators import SoftIsoConfig
        from qflow.simulation import make_allocator, run_simulation

        rng = random.Random(808)
        run_params = NetworkParams()
        other_params = NetworkParams(
            success_probability=0.9, transmission_efficiency=-3.0, eta_in_db=True,
            switch_count=2, classical_latency=0.05,
        )
        tables = 0
        for workflows, network in self.networks(rng):
            self.assert_classes(network)
            allocator = make_allocator("soft_iso", WeightConfig(), run_params, SoftIsoConfig(counter_cap_base=2))
            state = run_simulation(workflows, network, allocator, run_params)
            assert state.completed and network.term_cache(run_params)
            # no node can host any task of this one: its bounds fall back to all pairs
            biggest = max(n.qubits for n in network.nodes)
            homeless = dataclasses.replace(
                workflows[0], tasks=tuple(dataclasses.replace(t, qubits=biggest + 1) for t in workflows[0].tasks)
            )
            for params in (run_params, other_params, run_params):
                for wf in [*workflows, homeless]:
                    backlog = backlog_at(state.free_at, rng.uniform(0.0, state.clock + 1.0))
                    table = DecisionTable(wf, network, params, backlog)
                    assert_fresh(table, wf, network, params, backlog)
                    assert all(type(row) is tuple for row in (*table.err, *table.run, *table.qlink))
                    again = DecisionTable(wf, network, params, backlog)
                    assert all(a is b for a, b in zip(again.err, table.err))  # read, not re-evaluated
                    tables += 1
            distinct = {t for wf in [*workflows, homeless] for t in wf.tasks}
            assert len(network.term_cache(run_params)) <= len(distinct)
            assert len(network.term_cache(other_params)) <= len(distinct)
        assert tables > 500


class TestBlockScorer:
    """Every float of ``block_scorer`` is the very float ``aggregate_cost``
    returns for the same candidate, because soft_iso compares them with a
    strict ``<`` and its digests cover the chosen assignments."""

    @staticmethod
    def decisions(rng):
        from .conftest import random_small_instance, scenario_instances

        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(2):
                workflows, network, free_at = scenario_instances(scenario, seed, 3)
                for wf in workflows:
                    yield wf, network, NetworkParams(), WeightConfig(), free_at, wf.arrival_time + 0.5
        for _ in range(120):
            wf, network, free_at = random_small_instance(rng, max_tasks=5, max_nodes=8)
            params = NetworkParams(
                success_probability=rng.uniform(0.1, 1.0),
                transmission_efficiency=rng.uniform(0.2, 1.0),
                switch_count=rng.randint(0, 3),
                classical_latency=rng.uniform(0.0, 0.05),
            )
            alpha = rng.random()
            beta = rng.random() * (1.0 - alpha)
            weights = WeightConfig(
                zeta=rng.choice([0.0, 0.5, 1.0]), alpha=alpha, beta=beta, gamma=1.0 - alpha - beta
            )
            yield wf, network, params, weights, free_at, rng.uniform(0.05, 1.5)

    @staticmethod
    def blocks(rng, wf, network):
        """The blocks of the matcher's own groups (last vertex in visit
        order), then for every task v random injective prefixes with every
        free node as a host; prefix keys are shuffled, since scoring must
        not read them in order."""
        leaves = 0
        for prefix, u, v, pairs in workflow_monomorphism_groups(wf, network):
            for h, mask in pairs:
                if u is not None:
                    prefix[u] = h
                yield dict(prefix), v, mask
                leaves += mask.bit_count()
            if leaves >= 300:
                break
        n_nodes = len(network.nodes)
        for v in range(len(wf.tasks)):
            for _ in range(3):
                nodes = rng.sample(range(n_nodes), len(wf.tasks))
                others = [j for j in range(len(wf.tasks)) if j != v]
                rng.shuffle(others)
                prefix = {j: nodes[j] for j in others}
                yield prefix, v, sum(1 << h for h in set(range(n_nodes)) - set(prefix.values()))

    @staticmethod
    def scale_bounds(table, shrink):
        """Scale the table's bounds by ``shrink``: halved bounds push raw
        sums above them, so the > 1 clip runs."""
        b = table.bounds
        table.bounds = NormalizationBounds(
            b.max_nat * shrink, b.max_task_error_sum * shrink,
            b.max_task_runtime_sum * shrink, b.max_network_sum * shrink,
        )
        return table.bounds

    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_equals_aggregate_cost_total_on_every_leaf(self, shrink):
        rng = random.Random(515)
        leaves = clipped = 0
        last_vertices = set()
        for wf, network, params, weights, free_at, sim_time in self.decisions(rng):
            backlog = backlog_at(free_at, sim_time)
            table = DecisionTable(wf, network, params, backlog)
            bounds = self.scale_bounds(table, shrink)
            scorers = [table.block_scorer(weights, v) for v in range(len(wf.tasks))]
            for prefix, v, mask in self.blocks(rng, wf, network):
                hosts = mask_hosts(mask)
                costs = scorers[v](prefix, mask)
                assert len(costs) == len(hosts)
                for h, cost in zip(hosts, costs):
                    candidate = [h if j == v else prefix[j] for j in range(len(wf.tasks))]
                    ref = aggregate_cost(wf, candidate, network, weights, params, bounds, backlog)
                    assert cost == ref.total
                    leaves += 1
                    clipped += (
                        ref.availability_raw > bounds.max_nat
                        or ref.error_raw > bounds.max_task_error_sum
                        or ref.runtime_raw > bounds.max_task_runtime_sum
                        or ref.network_raw > bounds.max_network_sum
                    )
                last_vertices.add((len(wf.tasks), v))
        assert leaves > 8_000
        assert {(5, v) for v in range(5)} <= last_vertices
        if shrink < 1.0:
            assert clipped > leaves // 2  # the clip branch is exercised, not just the interior

    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_floor_skips_only_blocks_with_no_total_below_it(self, shrink):
        """``score(prefix, mask, f)`` returns ``None`` only when every total
        of the unfloored call is ``>= f`` as a float, and otherwise the very
        totals of the unfloored call. The floors are each block's least
        total, one ulp either side of it, the least total of the previous
        block (an incumbent) and a uniform draw."""
        rng = random.Random(2718)
        skipped = scored = 0
        for wf, network, params, weights, free_at, sim_time in self.decisions(rng):
            table = DecisionTable(wf, network, params, backlog_at(free_at, sim_time))
            self.scale_bounds(table, shrink)
            scorers = [table.block_scorer(weights, v) for v in range(len(wf.tasks))]
            incumbent = math.inf
            for prefix, v, mask in self.blocks(rng, wf, network):
                costs = scorers[v](prefix, mask)
                low = min(costs)
                floors = (
                    low, math.nextafter(low, -math.inf), math.nextafter(low, math.inf),
                    incumbent, rng.random(),
                )
                for floor in floors:
                    got = scorers[v](prefix, mask, floor)
                    if got is None:
                        assert all(cost >= floor for cost in costs)
                        skipped += 1
                    else:
                        assert got == costs
                        scored += 1
                incumbent = low
        assert skipped > 1_000 and scored > 1_000


    @staticmethod
    def groups(rng, wf, network):
        """The matcher's own groups (last two vertices in visit order), then
        for every ordered pair of tasks (u, v) random injective prefixes
        with every free node as a host of u and every other free node as a
        host of v."""
        leaves = 0
        for prefix, u, v, pairs in workflow_monomorphism_groups(wf, network):
            yield prefix, u, v, pairs
            leaves += sum(mask.bit_count() for _, mask in pairs)
            if leaves >= 300:
                break
        n_nodes = len(network.nodes)
        for u in range(len(wf.tasks)):
            for v in range(len(wf.tasks)):
                if u == v:
                    continue
                nodes = rng.sample(range(n_nodes), len(wf.tasks) - 2)
                prefix = dict(zip([j for j in range(len(wf.tasks)) if j not in (u, v)], nodes))
                free = sum(1 << h for h in set(range(n_nodes)) - set(nodes))
                yield prefix, u, v, [(h, free & ~(1 << h)) for h in mask_hosts(free)]

    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_group_bound_is_below_every_total_of_its_group(self, shrink):
        """With ``u`` on the sentinel host, ``score(prefix, 0, f)`` returns
        ``None`` only when every total of the group is ``>= f``, and
        ``[]`` otherwise. The bound is ``<=`` the group's least total as a
        float: it never reaches one ulp above it. The same scorer puts
        ``v`` on the sentinel for each block's floor and scores every block
        exactly."""
        rng = random.Random(1618)
        skipped = kept = random_skipped = random_kept = leaves = clipped = 0
        for wf, network, params, weights, _, sim_time in self.decisions(rng):
            if len(wf.tasks) < 2:
                continue
            free_at = [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in network.nodes]
            backlog = backlog_at(free_at, sim_time)
            table = DecisionTable(wf, network, params, backlog)
            bounds = self.scale_bounds(table, shrink)
            sentinel = len(network.nodes)
            scorers = {}
            incumbent = math.inf
            for prefix, u, v, pairs in self.groups(rng, wf, network):
                if (u, v) not in scorers:
                    scorers[u, v] = table.block_scorer(weights, v)
                score = scorers[u, v]
                totals = []
                for h, mask in pairs:
                    prefix[u] = h
                    costs = score(prefix, mask)
                    for k, cost in zip(mask_hosts(mask), costs):
                        candidate = [k if j == v else prefix[j] for j in range(len(wf.tasks))]
                        ref = aggregate_cost(wf, candidate, network, weights, params, bounds, backlog)
                        assert cost == ref.total
                        clipped += (
                            ref.error_raw > bounds.max_task_error_sum
                            or ref.runtime_raw > bounds.max_task_runtime_sum
                            or ref.network_raw > bounds.max_network_sum
                        )
                    totals += costs
                leaves += len(totals)
                low = min(totals)
                prefix[u] = sentinel
                assert score(prefix, 0, math.nextafter(low, math.inf)) == []
                for floor in (low, math.nextafter(low, -math.inf), incumbent):
                    got = score(prefix, 0, floor)
                    if got is None:
                        assert low >= floor
                        skipped += 1
                    else:
                        assert got == []
                        kept += 1
                floor = rng.random()
                got = score(prefix, 0, floor)
                assert got == [] or (got is None and low >= floor)
                random_skipped += got is None
                random_kept += got is not None
                incumbent = low
        assert leaves > 20_000
        assert skipped > 500 and kept > 500
        assert random_skipped > 100 and random_kept > 100
        if shrink < 1.0:
            assert clipped > leaves // 4  # the > 1 clip is exercised


class TestComputeBounds:
    def test_single_pair_bounds_equal_raw_values(self, brisbane):
        from qflow.model import ResourceNetwork

        network = ResourceNetwork(nodes=(brisbane,), links=frozenset())
        wf = chain_workflow([5])
        params = NetworkParams()
        bounds = compute_bounds(wf, network, params)
        assert bounds.max_task_error_sum == pytest.approx(
            error_cost(wf.tasks[0], brisbane), rel=1e-12
        )
        assert bounds.max_task_runtime_sum == pytest.approx(
            runtime_cost(wf.tasks[0], brisbane), rel=1e-12
        )
        assert bounds.max_nat == 1e-12  # idle -> floor

    def test_identical_nodes_symmetry(self):
        network = make_network([50, 50, 50], [(0, 1), (1, 2)])
        wf = chain_workflow([3, 7])
        params = NetworkParams()
        bounds = compute_bounds(wf, network, params)
        worst = max(error_cost(t, network.nodes[0]) for t in wf.tasks)
        assert bounds.max_task_error_sum == pytest.approx(2 * worst, rel=1e-12)

    def test_brute_force_over_small_networks(self):
        # exact: the bounds are maxima of the very floats the term functions return
        rng = random.Random(11)
        params = NetworkParams(success_probability=0.4, classical_latency=0.03)
        from .conftest import random_small_instance

        fallbacks = busy = 0
        for i in range(200):
            wf, network, _ = random_small_instance(rng, max_tasks=3, max_nodes=3)
            free_at = [rng.choice([0.0, 0.1, rng.uniform(0.0, 2.0)]) for _ in network.nodes]
            if i % 4 == 0:  # every task outgrows every node (at most 10 qubits)
                tasks = tuple(dataclasses.replace(t, qubits=t.qubits + 10) for t in wf.tasks)
                wf = dataclasses.replace(wf, tasks=tasks)
                fallbacks += 1
            busy += any(f > 0.25 for f in free_at)
            bounds = compute_bounds(wf, network, params, backlog_at(free_at, 0.25))
            pairs = [
                (t, n) for t in wf.tasks for n in network.nodes if t.qubits <= n.qubits
            ] or [(t, n) for t in wf.tasks for n in network.nodes]
            exp_err = len(wf.tasks) * max(error_cost(t, n) for t, n in pairs)
            exp_rt = len(wf.tasks) * max(runtime_cost(t, n) for t, n in pairs)
            exp_net = len(wf.skeleton()) * max(
                quantum_link_cost(t, n, params) + classical_link_cost(t, params)
                for t, n in pairs
            )
            exp_nat = max([max(f - 0.25, 0.0) for f in free_at] + [0.0])
            assert bounds.max_task_error_sum == max(exp_err, 1e-12)
            assert bounds.max_task_runtime_sum == max(exp_rt, 1e-12)
            assert bounds.max_network_sum == max(exp_net, 1e-12)
            assert bounds.max_nat == max(exp_nat, 1e-12)
        assert fallbacks == 50 and busy > 50

    @pytest.mark.parametrize("length", [2, 4])
    def test_backlog_of_another_length_is_refused(self, length):
        # a longer vector would raise the availability bound, a shorter one
        # fail mid-search: one entry per node or nothing
        network = make_network([50, 50, 50], [(0, 1), (1, 2)])
        wf = chain_workflow([3, 7])
        with pytest.raises(ValueError, match="backlog"):
            compute_bounds(wf, network, NetworkParams(), [1.0] * length)
        with pytest.raises(ValueError, match="backlog"):
            DecisionTable(wf, network, NetworkParams(), [1.0] * length)


class TestFidelity:
    def test_complement_identity(self, brisbane):
        task = make_task()
        assert fidelity(task, brisbane) == 1.0 - error_cost(task, brisbane)

    def test_ghz5_value(self, brisbane):
        task = make_task(qubits=5, depth=6, two_qubit_gates=4, measured_qubits=5)
        assert fidelity(task, brisbane) == pytest.approx(0.8721890456971842, rel=1e-9)

    def test_strictly_decreasing_in_error_rates(self):
        task = make_task()
        base = fidelity(task, make_node(e1=0.001, e2=0.001, er=0.001))
        assert fidelity(task, make_node(e1=0.002, e2=0.001, er=0.001)) < base
        assert fidelity(task, make_node(e1=0.001, e2=0.002, er=0.001)) < base
        assert fidelity(task, make_node(e1=0.001, e2=0.001, er=0.002)) < base
