"""Cost-engine tests against independent high-precision oracles."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.costs import (
    BOUND_FLOOR,
    CostBreakdown,
    DecisionTable,
    NormalizationBounds,
    TaskTerms,
    _scorer_plan,
    aggregate_cost,
    classical_link_cost,
    compute_bounds,
    error_cost,
    fidelity,
    quantum_link_cost,
    runtime_cost,
    task_terms,
    workflow_network_cost,
)
from qflow.matcher import group_blocks, group_size, mask_hosts, workflow_monomorphisms
from qflow.model import NetworkParams, QpuNode, ResourceNetwork, WeightConfig, Workflow
from qflow.workload import random_connected_dag

from .conftest import backlog_at, chain_workflow, listings, make_network, make_node, make_task, skim_scan

getcontext().prec = 50


def fresh_terms(wf, network, params, backlog):
    """One decision's terms and bounds evaluated afresh from the term
    functions, the bounds taken over each task's pairs with the nodes that
    fit its qubits, or with every node when none does: what a cached table
    must equal."""
    tasks, nodes = wf.tasks, network.nodes
    err = [tuple(error_cost(t, n) for n in nodes) for t in tasks]
    run = [tuple(runtime_cost(t, n) for n in nodes) for t in tasks]
    qlink = [tuple(quantum_link_cost(t, n, params) for n in nodes) for t in tasks]
    clink = [classical_link_cost(t, params) for t in tasks]
    avail = [0.0] * len(nodes) if backlog is None else backlog
    pairs = [(j, k) for j, t in enumerate(tasks) for k in fitting_nodes(t, nodes)]
    bounds = NormalizationBounds(
        max_nat=max(max(avail, default=0.0), 1e-12),
        max_task_error_sum=max(len(tasks) * max(err[j][k] for j, k in pairs), 1e-12),
        max_task_runtime_sum=max(len(tasks) * max(run[j][k] for j, k in pairs), 1e-12),
        max_network_sum=max(
            len(wf.skeleton) * max(qlink[j][k] + clink[j] for j, k in pairs), 1e-12
        ),
    )
    return err, run, qlink, clink, avail, bounds


def assert_fresh(table, wf, network, params, backlog):
    """The cached rows are the fresh rows, each followed by its minimum on
    the sentinel host; the bounds range over the real nodes only."""
    err, run, qlink, clink, avail, bounds = fresh_terms(wf, network, params, backlog)
    assert table.err == tuple(row + (min(row),) for row in err)
    assert table.run == tuple(row + (min(row),) for row in run)
    assert table.qlink == tuple(row + (min(row),) for row in qlink)
    assert table.clink == tuple(clink)
    assert table.avail == avail
    assert table.edges == tuple(sorted(wf.skeleton))
    assert table.bounds == bounds


def fitting_nodes(task, nodes):
    """The indices of the nodes that fit the task's qubits, or of every
    node when none does: the per-task rule of the bounds."""
    return [k for k, n in enumerate(nodes) if task.qubits <= n.qubits] or range(len(nodes))


def fresh_maxima(task, network, params):
    """A task's (error, runtime, quantum plus classical link) maxima over
    the nodes that fit its qubits, or over every node when none does,
    evaluated afresh from the term functions."""
    clink = classical_link_cost(task, params)
    nodes = [network.nodes[k] for k in fitting_nodes(task, network.nodes)]
    return (
        max(error_cost(task, n) for n in nodes),
        max(runtime_cost(task, n) for n in nodes),
        max(quantum_link_cost(task, n, params) + clink for n in nodes),
    )


def max_reference_bounds(terms, wf, backlog):
    """The bounds as ``max()`` takes them from the tasks' maxima, the first
    maximum kept; ValueError where one is NaN."""
    max_err, max_run, max_net = map(max, zip(*(t.maxima for t in terms)))
    n_tasks, n_edges = len(terms), len(wf.skeleton)
    return NormalizationBounds(
        max_nat=max(max(backlog or [0.0]), BOUND_FLOOR),
        max_task_error_sum=max(n_tasks * max_err, BOUND_FLOOR),
        max_task_runtime_sum=max(n_tasks * max_run, BOUND_FLOOR),
        max_network_sum=max(n_edges * max_net, BOUND_FLOOR) if n_edges else BOUND_FLOOR,
    )


def assert_bits_equal(got, expected):
    """Every field equal, as floats and in sign (``0.0 == -0.0``)."""
    for a, b in zip(dataclasses.astuple(got), dataclasses.astuple(expected)):
        assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def random_params(rng):
    """Link parameters drawn from ``rng``: success probability 0, 1 or
    between, 0 to 4 switches, an efficiency in dB or linear, and a
    classical latency of 0 or between 0 and 0.1."""
    in_db = rng.random() < 0.5
    return NetworkParams(
        success_probability=rng.choice([0.0, 1.0, rng.random()]),
        transmission_efficiency=rng.uniform(-6.0, 0.0) if in_db else rng.uniform(0.2, 1.5),
        switch_count=rng.randint(0, 4),
        classical_latency=rng.choice([0.0, rng.uniform(0.0, 0.1)]),
        eta_in_db=in_db,
    )


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

    def test_non_link_edge_is_costed(self):
        # scoring is total: an edge off the links costs what its endpoints give
        wf = chain_workflow([5, 5])
        network = make_network([127, 127, 127], [(0, 1)])
        val = workflow_network_cost(wf, {0: 0, 1: 2}, network, NetworkParams())
        assert val == workflow_network_cost(wf, {0: 0, 1: 1}, network, NetworkParams()) > 0.0


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

    @pytest.mark.parametrize("length", [1, 3])
    def test_candidate_of_another_length_is_refused(self, length):
        network = make_network([127, 127, 127], [(0, 1), (1, 2)])
        wf = chain_workflow([5, 5])
        params = NetworkParams()
        bounds = compute_bounds(wf, network, params)
        with pytest.raises(ValueError, match="^candidate_nodes must pair one node per task$"):
            aggregate_cost(wf, list(range(length)), network, WeightConfig(), params, bounds)

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


class TestCostBreakdown:
    def test_an_immutable_named_tuple_in_declared_order(self):
        network = make_network([127, 127, 127], [(0, 1), (1, 2)])
        wf = chain_workflow([5, 7])
        weights = WeightConfig(zeta=0.3, alpha=0.5, beta=0.3, gamma=0.2)
        got = DecisionTable(wf, network, NetworkParams(), [1.0, 0.5, 2.0]).breakdown([0, 1], weights)
        assert CostBreakdown._fields == (
            "availability_raw", "error_raw", "runtime_raw", "network_raw",
            "availability", "error", "runtime", "network", "total",
        )
        for name in CostBreakdown._fields:
            with pytest.raises(AttributeError):
                setattr(got, name, 0.0)
        # each component under its own name: the positional build keeps the declared order
        assert (got.availability_raw, got.availability) == (1.0, 0.5)
        assert got.total == weights.zeta * got.availability + (1.0 - weights.zeta) * (
            weights.alpha * got.error + weights.beta * got.runtime + weights.gamma * got.network
        )
        assert len({got.error_raw, got.runtime_raw, got.network_raw}) == 3
        again = pickle.loads(pickle.dumps(got))
        assert type(again) is CostBreakdown and again == got

    @pytest.mark.parametrize("algorithm", ["random_aware", "soft_iso"])
    def test_worker_processes_refused(self, algorithm):
        # repetitions run in one process; a spec's hash after a pickle round
        # trip stays checked by test_task_spec_hash_keys_one_entry_per_equal_spec
        from qflow.experiments import ConfigError, ExperimentConfig

        config = ExperimentConfig(algorithm=algorithm, repetitions=4, base_seed=11, measure_timing=False)
        with pytest.raises(ConfigError, match="^workers: must be 1, got 2"):
            dataclasses.replace(config, workers=2)


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
        # nine classes: every b node is one class, and d_k differs from
        # b_k in exactly one field
        base = dict(qubits=6, e1=0.004, e2=0.01, er=0.02, rt2=660e-9, t1=220e-6, t2=120e-6, d1cps=180000.0)
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
        assert len(names) == 8
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
        # seeded random link parameters reach every factor _task_terms takes
        # once per task: a success probability of 0 and 1, 0 to 4 switches,
        # efficiencies in dB and linear, and no classical latency
        draw = random.Random(809)
        drawn = []
        tables = homeless_terms = 0
        for workflows, network in self.networks(rng):
            self.assert_classes(network)
            allocator = make_allocator("soft_iso", WeightConfig(), run_params, SoftIsoConfig(counter_cap_base=2))
            state = run_simulation(workflows, network, allocator, run_params)
            assert state.completed and network.term_caches[run_params]
            # no node can host any task of this one: each task's maxima range over every node
            biggest = max(n.qubits for n in network.nodes)
            homeless = dataclasses.replace(
                workflows[0], tasks=tuple(dataclasses.replace(t, qubits=biggest + 1) for t in workflows[0].tasks)
            )
            drawn[len(drawn):] = random_params(draw), random_params(draw)
            for i, params in enumerate((run_params, other_params, run_params, *drawn[-2:])):
                # a drawn set takes its backlogs from its own generator, so every other draw stays
                times = rng if i < 3 else draw
                for wf in [*workflows, homeless]:
                    backlog = backlog_at(state.free_at, times.uniform(0.0, state.clock + 1.0))
                    table = DecisionTable(wf, network, params, backlog)
                    assert_fresh(table, wf, network, params, backlog)
                    assert all(type(row) is tuple for row in (*table.err, *table.run, *table.qlink))
                    again = DecisionTable(wf, network, params, backlog)
                    assert all(a is b for a, b in zip(again.err, table.err))  # read, not re-evaluated
                    for task, terms in zip(wf.tasks, task_terms(wf.tasks, network, params)):
                        assert terms.maxima == fresh_maxima(task, network, params)
                        homeless_terms += not any(task.qubits <= n.qubits for n in network.nodes)
                    tables += 1
            distinct = {t for wf in [*workflows, homeless] for t in wf.tasks}
            assert len(network.term_caches[run_params]) <= len(distinct)
            assert len(network.term_caches[other_params]) <= len(distinct)
        assert tables > 500 and homeless_terms > 100
        assert {p.success_probability for p in drawn} >= {0.0, 1.0}
        assert {p.switch_count for p in drawn} == {0, 1, 2, 3, 4}
        assert {p.eta_in_db for p in drawn} == {False, True}
        assert 0.0 in {p.classical_latency for p in drawn}

    def test_task_spec_hash_keys_one_entry_per_equal_spec(self):
        network = make_network([5, 9, 9], [(0, 1), (1, 2)])
        params = NetworkParams()
        spec = make_task("t", qubits=7, depth=6)
        twin = make_task("t", qubits=7, depth=6)
        assert spec == twin and spec is not twin and hash(spec) == hash(twin)
        (terms,) = task_terms([spec], network, params)
        # a spec sent to another process and back is the same key
        (again,) = task_terms([pickle.loads(pickle.dumps(spec))], network, params)
        assert again is terms and list(network.term_caches[params]) == [spec]
        # an equal id does not make equal specs
        deeper = make_task("t", qubits=7, depth=60)
        assert hash(deeper) == hash(spec) and deeper != spec
        (other,) = task_terms([deeper], network, params)
        assert other is not terms and other.run != terms.run
        assert len(network.term_caches[params]) == 2


class TestScorerCaches:
    """A group scorer reads its skeleton-only parts from a bounded cache,
    derives its class-only parts from its own table's classes, and still
    scores every total as ``aggregate_cost`` does."""

    @staticmethod
    def drawable_skeletons(n):
        """Every skeleton ``random_connected_dag`` can draw on ``n`` tasks:
        each task after the first with a nonempty set of earlier neighbours
        (its parent, then the chords)."""
        earlier = [[s for r in range(1, i + 1) for s in itertools.combinations(range(i), r)] for i in range(1, n)]
        for picks in itertools.product(*earlier):
            yield tuple(sorted((a, i + 1) for i, chosen in enumerate(picks) for a in chosen))

    def test_cached_plan_equals_a_fresh_derivation(self):
        skeletons = {n: set(self.drawable_skeletons(n)) for n in range(1, 6)}
        assert [len(skeletons[n]) for n in range(1, 6)] == [1, 1, 3, 21, 315]
        rng = random.Random(53)
        for _ in range(2000):  # the generator draws no other skeleton
            n = rng.randint(1, 5)
            assert tuple(sorted(random_connected_dag(n, rng))) in skeletons[n]
        probe = [10 + j for j in range(5)]  # a class per task
        for n, drawn in skeletons.items():
            for edges in drawn:
                for u, v in list(itertools.permutations(range(n), 2)) or [(0, 0)]:
                    plan = _scorer_plan(edges, n, u, v)
                    lo = min(u, v)
                    touching = [i for i, (a, b) in enumerate(edges) if {a, b} & {u, v}]
                    split = touching[0] if touching else len(edges)
                    fresh = tuple(range(lo)), tuple(range(lo, n)), edges[:split], edges[split:]
                    assert plan[:4] == fresh, (edges, u, v)
                    assert all(type(part) is tuple and all(type(x) is not list for x in part) for part in plan[:4])
                    others = [probe[j] for j in range(n) if j not in (u, v)]
                    assert plan[4](probe) == (others[0] if len(others) == 1 else tuple(others))

    def test_decisions_sharing_a_skeleton_score_as_aggregate_cost(self):
        # the second workflow's decision reads the first's cached plan, and the
        # second network's decisions score with its own class parts, not the first's
        from .conftest import pattern_workflow, scenario_instances

        edges = [(0, 1), (1, 2), (1, 3), (2, 3)]
        workflows = [pattern_workflow(4, edges, [3, 5, 2, 7], "a"), pattern_workflow(4, edges, [6, 1, 4, 2], "b")]
        assert workflows[0].skeleton == workflows[1].skeleton and workflows[0].tasks != workflows[1].tasks
        networks = [
            scenario_instances("LP-MR", 0, 1)[1],  # a few calibration classes
            ResourceNetwork(  # a class per node, each with its own terms
                tuple(make_node(f"n{k}", qubits=8 + k, e1=1e-3 * (k + 1), t1=220e-6 * (1 + k / 10)) for k in range(6)),
                list(itertools.combinations(range(6), 2)),
            ),
        ]
        assert [len(network.calibration_classes[1]) for network in networks] == [3, 6]
        params, weights = NetworkParams(), WeightConfig(zeta=0.3, alpha=0.5, beta=0.3, gamma=0.2)
        hits = _scorer_plan.cache_info().hits
        scored = 0
        for network in networks:
            backlog = [0.1 * ((7 * k) % len(network.nodes)) for k in range(len(network.nodes))]
            for wf in workflows:
                table = DecisionTable(wf, network, params, backlog)
                fold = score = None
                for prefix, u, v, hosts, leaves, links in itertools.islice(workflow_monomorphisms(wf, network), 40):
                    if fold is None:
                        fold, score, *_ = table.group_scorer(weights, u, v)
                    fold(prefix)
                    for hu, mask in group_blocks(hosts, leaves, links):
                        refs = [
                            aggregate_cost(
                                wf, TestBlockScorer.candidate(prefix, u, hu, v, h), network, weights, params,
                                table.bounds, backlog,
                            ).total
                            for h in mask_hosts(mask)
                        ]
                        assert score(hu, mask) == refs
                        scored += len(refs)
        assert _scorer_plan.cache_info().hits - hits >= 3
        assert scored > 1000


class TestCalibrationFields:
    def test_every_calibration_field_changes_a_task_term(self):
        # a field that no term reads would still split calibration classes; a
        # fitting node with smaller error rates stays beside the varied one, so
        # a varied node the probe no longer fits lowers the probe's maxima
        probe = make_task("probe", qubits=5, depth=6, two_qubit_gates=4, measured_qubits=5)
        base = dataclasses.asdict(make_node("a", e1=0.004, e2=0.01, er=0.02))
        fitting = make_node("b", e1=0.002, e2=0.005, er=0.01)
        for name in (f.name for f in dataclasses.fields(QpuNode) if f.name != "id"):
            changed = {**base, name: 3 if name == "qubits" else base[name] * 1.5}  # 3 qubits fit no probe
            terms = [task_terms([probe], ResourceNetwork((QpuNode(**fields), fitting)), NetworkParams())[0]
                     for fields in (base, changed)]
            assert terms[0] != terms[1], name


class TestBlockScorer:
    """Every float that ``group_scorer``'s ``score`` lists is the very float
    ``aggregate_cost`` returns for the same candidate, because soft_iso
    compares them with a strict ``<`` and its digests cover the chosen
    assignments; its run closure ``walk`` returns what a walk over the
    listed floats gives, and ``skim`` the candidates of that walk that
    improve on its floor (:meth:`skimmed`)."""

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
        # one calibration class, each node with its own nonzero backlog: only
        # availability separates the hosts of a block
        for _ in range(20):
            wf = random_small_instance(rng, max_tasks=5, max_nodes=8)[0]
            n_nodes = rng.randint(max(2, len(wf.tasks)), 8)
            nodes = tuple(make_node(f"s{k}", 10, 0.004, 0.01, 0.02) for k in range(n_nodes))
            links = frozenset(pair for pair in itertools.combinations(range(n_nodes), 2) if rng.random() < 0.7)
            sim_time = rng.uniform(0.05, 1.5)
            free_at = [sim_time + 0.1 * k for k in rng.sample(range(1, n_nodes + 1), n_nodes)]
            yield wf, ResourceNetwork(nodes, links), NetworkParams(), WeightConfig(), free_at, sim_time

    @staticmethod
    def groups(rng, wf, network):
        """The matcher's own groups (last two vertices in visit order), then
        for every ordered pair of tasks (u, v) a random injective prefix
        with every free node as a host of u and every other free node as a
        host of v (a one-task workflow: u is v, on the host n_nodes, and
        every node a host of v), each as its prefix, u, v and the masks
        ``(hosts, leaves, links)`` of the stream's groups. The random
        prefixes' keys are shuffled, since scoring must not read them in
        order."""
        leaves = 0
        for prefix, u, v, *masks in workflow_monomorphisms(wf, network):
            yield dict(prefix), u, v, tuple(masks)
            leaves += sum(mask.bit_count() for _, mask in group_blocks(*masks))
            if leaves >= 300:
                break
        n_tasks, n_nodes = len(wf.tasks), len(network.nodes)
        if n_tasks == 1:
            yield {}, 0, 0, (1 << n_nodes, (1 << n_nodes) - 1, None)
        for u, v in itertools.permutations(range(n_tasks), 2):
            others = [j for j in range(n_tasks) if j not in (u, v)]
            rng.shuffle(others)
            nodes = rng.sample(range(n_nodes), len(others))
            prefix = dict(zip(others, nodes))
            free = sum(1 << h for h in set(range(n_nodes)) - set(nodes))
            yield prefix, u, v, (free, free, None)

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

    @staticmethod
    def scorer(scorers, table, weights, u, v):
        """The ``(fold, score, walk, skim, skip)`` of ``(u, v)``, built once per
        table."""
        if (u, v) not in scorers:
            scorers[u, v] = table.group_scorer(weights, u, v)
        return scorers[u, v]

    @staticmethod
    def skimmed(blocks, floor, budget=math.inf):
        """What ``skim`` returns for a group whose blocks are ``blocks``,
        each ``(hu, mask, listed costs)``, in host order, each cut to
        ``budget``: the candidate count of the blocks before the first that
        holds a cost below ``floor``, then that block's strict running
        minima below ``floor`` in host order (their hosts' mask and their
        costs), its other candidates added to the count."""
        size = 0
        for hu, mask, costs in blocks:
            if len(costs) > budget - size:
                costs = costs[: budget - size]
            kept, least = {}, floor
            for h, cost in zip(mask_hosts(mask), costs):
                if cost < least:
                    kept[h] = least = cost
            if kept:
                return size + len(costs) - len(kept), -math.inf, 0.0, hu, sum(1 << h for h in kept), [*kept.values()]
            size += len(costs)
            if size >= budget:
                break
        return size, -math.inf, 0.0, 0, 0, None

    @staticmethod
    def sentinel_bound(table, weights, prefix, u, hu, v):
        """The total with ``u`` on ``hu`` and ``v`` on the sentinel host
        ``n``, whose terms are each row's least and whose wait is the
        least: the breakdown of a copy of the table whose availability
        column gains that wait at ``n``."""
        probe = copy.copy(table)
        probe.avail = [*table.avail, min(table.avail)]
        return probe.breakdown({**prefix, u: hu, v: len(table.avail)}, weights).total

    @staticmethod
    def candidate(prefix, u, hu, v, h):
        """Task j's node at index j: ``prefix``, ``u`` on ``hu``, ``v`` on ``h``."""
        mapping = {**prefix, u: hu, v: h}
        return [mapping[j] for j in range(len(mapping))]

    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_equals_aggregate_cost_total_on_every_leaf(self, shrink):
        """On the scenario networks (about three calibration classes), on
        random networks whose every node is a class of its own, and on
        networks of one class whose nodes differ only in their backlogs;
        with the hosts of both ``u`` and ``v`` varying across classes
        within a group, and groups of the same ``(u, v)`` scored in turn by
        one scorer."""
        rng = random.Random(515)
        leaves = clipped = one_class_blocks = mixed_groups = 0
        last_vertices = set()
        for wf, network, params, weights, free_at, sim_time in self.decisions(rng):
            backlog = backlog_at(free_at, sim_time)
            table = DecisionTable(wf, network, params, backlog)
            bounds = self.scale_bounds(table, shrink)
            of_node = network.calibration_classes[2]
            scorers = {}
            one_class = len(network.calibration_classes[0]) == 1
            if one_class:
                assert 0.0 not in backlog and len(set(backlog)) == len(backlog)
            for prefix, u, v, masks in self.groups(rng, wf, network):
                fold, score, _, _, _ = self.scorer(scorers, table, weights, u, v)
                fold(prefix)
                u_classes = set()
                for hu, mask in group_blocks(*masks):
                    hosts = mask_hosts(mask)
                    costs = score(hu, mask)
                    assert len(costs) == len(hosts)
                    # one class: the totals of a block differ, by availability alone
                    one_class_blocks += one_class and len(set(costs)) > 1
                    for h, cost in zip(hosts, costs):
                        candidate = self.candidate(prefix, u, hu, v, h)
                        ref = aggregate_cost(wf, candidate, network, weights, params, bounds, backlog)
                        assert cost == ref.total
                        leaves += 1
                        clipped += (
                            ref.availability_raw > bounds.max_nat
                            or ref.error_raw > bounds.max_task_error_sum
                            or ref.runtime_raw > bounds.max_task_runtime_sum
                            or ref.network_raw > bounds.max_network_sum
                        )
                    if u != v:
                        u_classes.add(of_node[hu])
                mixed_groups += len(u_classes) > 1
                last_vertices.add((len(wf.tasks), u, v))
        assert leaves > 40_000
        # fewer under halved bounds, where the larger backlogs clip to one
        assert one_class_blocks > 30
        assert mixed_groups > 1_000
        assert {(5, u, v) for u, v in itertools.permutations(range(5), 2)} <= last_vertices
        assert {(1, 0, 0)} <= last_vertices
        if shrink < 1.0:
            assert clipped > leaves // 2  # the clip branch is exercised, not just the interior

    @staticmethod
    def twin(rng, prefix, network):
        """A prefix of the same tasks on hosts of the same calibration
        classes, drawn afresh within each class, its keys shuffled."""
        _, masks, of_node = network.calibration_classes
        tasks = list(prefix)
        rng.shuffle(tasks)
        twin = {}
        for c in {of_node[prefix[j]] for j in tasks}:
            of_class = [j for j in tasks if of_node[prefix[j]] == c]
            twin.update(zip(of_class, rng.sample(mask_hosts(masks[c]), len(of_class))))
        return twin

    @pytest.mark.parametrize("floored", [False, True], ids=["no-floor", "floor"])
    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_prefixes_of_one_class_tuple_share_their_sums(self, shrink, floored):
        """One scorer per ``(u, v)`` scores a shuffled stream of groups: per
        drawn prefix, the same tasks listed in another key order and two
        prefixes whose hosts have the same classes but are drawn afresh
        within them (other hosts, other waits), interleaved with the groups
        of the other draws' class tuples. Every total equals
        ``aggregate_cost``'s. Given floors, ``skim`` goes through each
        block alone and through the whole group (the incumbent its floor),
        and returns :meth:`skimmed` of the brute-forced totals each time. On
        the scenario and one-class networks many groups meet a class tuple
        already met on other hosts; on a class per node only the reordered
        prefixes do."""
        rng = random.Random(4669)
        leaves = skipped = scored = 0
        met_elsewhere = {"scenario": 0, "class per node": 0, "one class": 0}
        for wf, network, params, weights, _, _ in self.decisions(rng):
            n_tasks, n_nodes = len(wf.tasks), len(network.nodes)
            backlog = [rng.uniform(0.0, 2.0) for _ in network.nodes]  # every host its own wait
            table = DecisionTable(wf, network, params, backlog)
            bounds = self.scale_bounds(table, shrink)
            _, masks, of_node = network.calibration_classes
            kind = {1: "one class", n_nodes: "class per node"}.get(len(masks), "scenario")
            pairs = list(itertools.permutations(range(n_tasks), 2)) or [(0, 0)]
            for u, v in rng.sample(pairs, min(3, len(pairs))):
                fold, score, _, skim, _ = table.group_scorer(weights, u, v)
                others = [j for j in range(n_tasks) if j not in (u, v)]
                stream = []
                for _ in range(3):
                    prefix = dict(zip(others, rng.sample(range(n_nodes), len(others))))
                    reordered = {j: prefix[j] for j in reversed(list(prefix))}
                    stream += [prefix, reordered, self.twin(rng, prefix, network), self.twin(rng, prefix, network)]
                rng.shuffle(stream)
                met = {}  # class tuple -> host tuples of its prefixes
                incumbent = math.inf
                for prefix in stream:
                    fold(prefix)
                    hosts = tuple(prefix[j] for j in others)
                    classes = tuple(of_node[h] for h in hosts)
                    met_elsewhere[kind] += bool(met.get(classes, {hosts}) - {hosts})
                    met.setdefault(classes, set()).add(hosts)
                    free = sum(1 << h for h in range(n_nodes) if h not in hosts)
                    group = (1 << n_nodes if u == v else free, free, None)
                    blocks = []
                    for hu, mask in group_blocks(*group):
                        refs = [
                            aggregate_cost(
                                wf, self.candidate(prefix, u, hu, v, h), network, weights, params, bounds, backlog
                            ).total
                            for h in mask_hosts(mask)
                        ]
                        if floored:
                            floor = rng.choice([incumbent, min(refs), rng.random()])
                            with listings(skim_scan(skim)) as listed:
                                got = skim(1 << hu, mask, None, floor, math.inf)
                            assert got == self.skimmed([(hu, mask, refs)], floor)
                            skipped += not listed  # ruled out by its bounds
                            scored += bool(listed)
                        else:
                            assert score(hu, mask) == refs
                            scored += 1
                        blocks.append((hu, mask, refs))
                        leaves += len(refs)
                    if floored:
                        assert skim(*group, incumbent, math.inf) == self.skimmed(blocks, incumbent)
                    incumbent = min([incumbent, *(total for *_, refs in blocks for total in refs)])
        assert leaves > 30_000 and scored > 1_000
        if floored:
            assert skipped > 1_000
        assert met_elsewhere["scenario"] > 100 and met_elsewhere["one class"] > 100, met_elsewhere

    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_floor_skips_only_blocks_with_no_total_below_it(self, shrink):
        """``skim`` over one block returns its strict running minima below
        the floor, in host order with their hosts' mask, when one of the
        totals ``score`` lists is below the floor, and otherwise counts it,
        scanning it only when its bounds let it through. The floors are each
        block's least total, one ulp either side of it, the least total of
        the previous block (an incumbent) and a uniform draw. On scenario
        networks and on networks of a class per node many blocks pass the
        sentinel bound (``v`` on the sentinel host, brute-forced by
        :meth:`sentinel_bound`) and are ruled out by the class-wise bounds,
        each class at the least wait of its hosts. On one class that bound
        is the sentinel's, so a class bound that took a wait above the least
        would miss a block with a total below the floor there."""
        rng = random.Random(2718)
        skipped = scored = 0
        class_skipped = {"scenario": 0, "class per node": 0, "one class": 0}
        for wf, network, params, weights, free_at, sim_time in self.decisions(rng):
            table = DecisionTable(wf, network, params, backlog_at(free_at, sim_time))
            self.scale_bounds(table, shrink)
            n_classes = len(network.calibration_classes[0])
            kind = {1: "one class", len(network.nodes): "class per node"}.get(n_classes, "scenario")
            scorers = {}
            incumbent = math.inf
            for prefix, u, v, masks in self.groups(rng, wf, network):
                fold, score, _, skim, _ = self.scorer(scorers, table, weights, u, v)
                fold(prefix)
                for hu, mask in group_blocks(*masks):
                    costs = score(hu, mask)
                    low = min(costs)
                    bound = self.sentinel_bound(table, weights, prefix, u, hu, v)
                    assert bound <= low
                    floors = (
                        low, math.nextafter(low, -math.inf), math.nextafter(low, math.inf),
                        incumbent, rng.random(),
                    )
                    for floor in floors:
                        with listings(skim_scan(skim)) as listed:
                            got = skim(1 << hu, mask, None, floor, math.inf)
                        assert got == self.skimmed([(hu, mask, costs)], floor)
                        if listed:
                            scored += 1
                        else:
                            skipped += 1
                            class_skipped[kind] += bound < floor
                    incumbent = low
        assert skipped > 10_000 and scored > 10_000
        assert class_skipped["scenario"] > 500 and class_skipped["class per node"] > 5_000, class_skipped

    @pytest.mark.parametrize("shrink", [1.0, 0.5], ids=["table-bounds", "halved-bounds"])
    def test_group_bound_is_below_every_total_of_its_group(self, shrink):
        """``skip``, the group bound's owner, rules out a whole group,
        counting it by ``group_size``, only when every total of the group is
        ``>= f``; ``skim`` returns :meth:`skimmed` of the brute-forced totals
        either way. The bound, ``u`` and ``v`` on the sentinel host, is
        ``<=`` the group's least total as a float: it never rules the group
        out at one ulp above it. ``skim`` is asked both before and after the
        group's blocks are listed, and the blocks are listed exactly either
        way."""
        rng = random.Random(1618)
        skipped = kept = random_skipped = random_kept = leaves = clipped = 0
        for wf, network, params, weights, _, sim_time in self.decisions(rng):
            if len(wf.tasks) < 2:
                continue
            free_at = [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in network.nodes]
            backlog = backlog_at(free_at, sim_time)
            table = DecisionTable(wf, network, params, backlog)
            bounds = self.scale_bounds(table, shrink)
            scorers = {}
            incumbent = math.inf
            for prefix, u, v, masks in self.groups(rng, wf, network):
                fold, score, _, skim, skip = self.scorer(scorers, table, weights, u, v)
                fold(prefix)
                first = skim(*masks, incumbent, math.inf)  # as soft_iso asks it
                blocks = []
                for hu, mask in group_blocks(*masks):
                    costs = score(hu, mask)
                    for h, cost in zip(mask_hosts(mask), costs):
                        candidate = self.candidate(prefix, u, hu, v, h)
                        ref = aggregate_cost(wf, candidate, network, weights, params, bounds, backlog)
                        assert cost == ref.total
                        clipped += (
                            ref.error_raw > bounds.max_task_error_sum
                            or ref.runtime_raw > bounds.max_task_runtime_sum
                            or ref.network_raw > bounds.max_network_sum
                        )
                    blocks.append((hu, mask, costs))
                low = min(cost for *_, costs in blocks for cost in costs)
                leaves += sum(len(costs) for *_, costs in blocks)
                assert first == self.skimmed(blocks, incumbent)

                def ruled_out(floor):
                    assert skim(*masks, floor, math.inf) == self.skimmed(blocks, floor)
                    group = (prefix, u, v, *masks)
                    whole = skip(group, iter(()), floor, math.inf)[1] is None
                    assert not whole or low >= floor
                    # skip counts the group whole, cut to the budget, or returns it
                    for budget in (math.inf, 1):
                        assert skip(group, iter(()), floor, budget) == (
                            (min(group_size(*masks), budget), None) if whole else (0, group)
                        )
                    return whole

                assert not ruled_out(math.nextafter(low, math.inf))
                for floor in (low, math.nextafter(low, -math.inf), incumbent):
                    if ruled_out(floor):
                        skipped += 1
                    else:
                        kept += 1
                if ruled_out(rng.random()):
                    random_skipped += 1
                else:
                    random_kept += 1
                incumbent = low
        assert leaves > 40_000
        assert skipped > 2_000 and kept > 2_000
        assert random_skipped > 500 and random_kept > 500
        if shrink < 1.0:
            assert clipped > leaves // 4  # the > 1 clip is exercised

    def test_skip_counts_a_run_of_groups_as_it_counts_each(self):
        """``skip`` over a stream from any group on, at the incumbent that
        group's predecessors give, returns what its calls on one group at a
        time give: the groups its bound rules out counted up to the first it
        lets through, which it returns folded, or up to the budget or the
        stream's end."""
        rng = random.Random(3141)
        runs = cut = found = 0
        for wf, network, params, weights, free_at, sim_time in self.decisions(rng):
            stream = [(dict(prefix), *rest) for prefix, *rest in workflow_monomorphisms(wf, network)]
            if not stream:
                continue
            table = DecisionTable(wf, network, params, backlog_at(free_at, sim_time))
            fold, score, _, _, skip = table.group_scorer(weights, *stream[0][1:3])
            lows = []  # per group, its least total
            for prefix, _, _, *masks in stream:
                fold(prefix)
                lows.append(min(cost for hu, mask in group_blocks(*masks) for cost in score(hu, mask)))
            start = rng.randrange(len(stream))
            floor = min(lows[:start], default=rng.random())
            for budget in (math.inf, rng.randint(1, 200)):
                size, expected = 0, None
                for group in stream[start:]:
                    counted, expected = skip(group, iter(()), floor, budget - size)
                    size += counted
                    if expected is not None or size >= budget:
                        break
                got = skip(stream[start], iter(stream[start + 1:]), floor, budget)
                assert got == (size, expected)
                runs += size > 0
                cut += size == budget
                found += expected is not None
        assert runs > 30 and cut > 5 and found > 30, (runs, cut, found)

    @staticmethod
    def summary_networks(rng):
        """Networks of 10 to 16 nodes at link probability 0.8 with one
        calibration class, three, or one per node, each with a backlog that
        ties (three values), one that does not, and one that rises with the
        node index, so that a host of ``u`` waits less than the higher hosts
        of its block."""
        for kind in ("one class", "three classes", "class per node"):
            for _ in range(6):
                n_nodes = rng.randint(10, 16)
                e1 = {
                    "one class": lambda k: 0.004,
                    "three classes": lambda k: rng.choice([0.002, 0.004, 0.006]),
                    "class per node": lambda k: 0.001 * (k + 1),
                }[kind]
                nodes = tuple(make_node(f"n{k}", 127, e1(k), 0.01, 0.02) for k in range(n_nodes))
                links = frozenset(pair for pair in itertools.combinations(range(n_nodes), 2) if rng.random() < 0.8)
                network = ResourceNetwork(nodes, links)
                assert len(network.calibration_classes[0]) == {"one class": 1, "class per node": n_nodes}.get(
                    kind, len(network.calibration_classes[0])
                )
                yield kind, network, [rng.choice([0.0, 0.5, 1.0]) for _ in nodes]
                yield kind, network, [rng.uniform(0.0, 2.0) for _ in nodes]
                yield kind, network, [0.1 * k + rng.uniform(0.0, 0.05) for k in range(n_nodes)]

    @pytest.mark.parametrize("gates", ["default", "every-block"])
    def test_walk_summary_equals_the_listed_costs(self, monkeypatch, gates):
        """``walk`` over one block returns the block and its listed costs
        when one is below the floor, and otherwise the listed costs'
        ``len``, ``max`` and ``[-1]``, equal under ``==``. With the gates at
        zero every block is summarised by class; at the defaults only
        blocks with more than 8 hosts and 2 per class are, so none on a
        class per node. The floors are the block's least cost, one
        ulp either side of it, its greatest cost and a draw between. The
        hosts of ``u`` wait more than every host of the block, less than
        each, and in between."""
        import qflow.costs

        if gates == "every-block":
            monkeypatch.setattr(qflow.costs, "SUMMARY_MIN_HOSTS", 0)
            monkeypatch.setattr(qflow.costs, "SUMMARY_HOSTS_PER_CLASS", 0)
        rng = random.Random(3141)
        weights, params = WeightConfig(), NetworkParams()
        verdicts = {kind: [0, 0] for kind in ("one class", "three classes", "class per node")}
        waits = {"above": 0, "below": 0, "between": 0}
        summarised = 0  # blocks past the gates, each walked at five floors
        for kind, network, backlog in self.summary_networks(rng):
            n_classes = len(network.calibration_classes[0])
            large = max(qflow.costs.SUMMARY_MIN_HOSTS, qflow.costs.SUMMARY_HOSTS_PER_CLASS * n_classes)
            for n_tasks in (2, 3):
                wf = chain_workflow([5] * n_tasks)
                table = DecisionTable(wf, network, params, backlog)
                for number, (prefix, u, v, *masks) in enumerate(workflow_monomorphisms(wf, network)):
                    if number == 0:
                        fold, score, walk, _, _ = table.group_scorer(weights, u, v)
                    fold(prefix)
                    w = max((backlog[k] for k in prefix.values()), default=0.0)
                    for hu, mask in group_blocks(*masks):
                        listed = score(hu, mask)
                        hosts = [backlog[h] for h in mask_hosts(mask)]
                        wu = max(w, backlog[hu])
                        waits["above" if wu >= max(hosts) else "below" if wu < min(hosts) else "between"] += 1
                        summarised += len(hosts) > large
                        low, high = min(listed), max(listed)
                        floors = (low, math.nextafter(low, -math.inf), math.nextafter(low, math.inf), high,
                                  rng.uniform(low, high))
                        for floor in floors:
                            got = walk(1 << hu, mask, None, floor, math.inf)
                            if low < floor:
                                assert got == (0, -math.inf, 0.0, hu, mask, listed)
                            else:
                                assert got == (len(listed), high, listed[-1], 0, 0, None)
                            verdicts[kind][low < floor] += 1
        assert all(kept > 2_000 and improving > 2_000 for kept, improving in verdicts.values()), verdicts
        assert min(waits.values()) > 100, waits
        assert summarised > 2_000

    def test_walk_cuts_its_run_to_the_budget(self):
        """A walk over a whole group with the floor below every cost returns
        the run of every block, cut to the budget: the candidates counted,
        their greatest cost and the last one, as the listing gives them.
        ``skim`` cuts its run and the block it scans alike, at floors below
        every cost, at the least, between and above every cost: the block
        that spends the budget is cut before its improving candidates are
        kept."""
        rng = random.Random(2024)
        weights, params = WeightConfig(), NetworkParams()
        cuts = skim_cuts = 0
        for _, network, backlog in self.summary_networks(rng):
            wf = chain_workflow([5, 5, 5])
            table = DecisionTable(wf, network, params, backlog)
            for number, (prefix, u, v, hosts, leaves, links) in enumerate(workflow_monomorphisms(wf, network)):
                if number == 0:
                    fold, score, walk, skim, _ = table.group_scorer(weights, u, v)
                if number % 11:
                    continue
                fold(prefix)
                blocks = [(hu, mask, score(hu, mask)) for hu, mask in group_blocks(hosts, leaves, links)]
                listed = [cost for *_, costs in blocks for cost in costs]
                for budget in (1, rng.randint(2, len(listed)), len(listed), math.inf):
                    size = min(budget, len(listed))
                    got = walk(hosts, leaves, links, -math.inf, budget)
                    assert got == (size, max(listed[:size]), listed[size - 1], 0, 0, None)
                    cuts += size < len(listed)
                    for floor in (-math.inf, min(listed), (min(listed) + max(listed)) / 2, math.inf):
                        got = skim(hosts, leaves, links, floor, budget)
                        assert got == self.skimmed(blocks, floor, budget)
                        if got[5] is not None:  # the block returned, cut when the blocks up to it pass the budget
                            skim_cuts += sum(len(costs) for h, _, costs in blocks if h <= got[3]) > budget
        assert cuts > 100 and skim_cuts > 100

class TestComputeBounds:
    def test_edge_free_workflow_takes_the_floor_as_its_network_bound(self, brisbane):
        """A one-task workflow has no edge, so its network bound is the
        floor even where the per-endpoint link term overflows to ``inf``
        (zero edges times ``inf`` would be NaN)."""
        params = NetworkParams(classical_latency=1e308)
        wf = chain_workflow([5])
        assert math.isinf(classical_link_cost(wf.tasks[0], params))
        table = DecisionTable(wf, ResourceNetwork((brisbane,)), params)
        assert table.bounds.max_network_sum == BOUND_FLOOR

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
            pairs = [(t, network.nodes[k]) for t in wf.tasks for k in fitting_nodes(t, network.nodes)]
            exp_err = len(wf.tasks) * max(error_cost(t, n) for t, n in pairs)
            exp_rt = len(wf.tasks) * max(runtime_cost(t, n) for t, n in pairs)
            exp_net = len(wf.skeleton) * max(
                quantum_link_cost(t, n, params) + classical_link_cost(t, params)
                for t, n in pairs
            )
            exp_nat = max([max(f - 0.25, 0.0) for f in free_at] + [0.0])
            assert bounds.max_task_error_sum == max(exp_err, 1e-12)
            assert bounds.max_task_runtime_sum == max(exp_rt, 1e-12)
            assert bounds.max_network_sum == max(exp_net, 1e-12)
            assert bounds.max_nat == max(exp_nat, 1e-12)
        assert fallbacks == 50 and busy > 50

        # tied maxima across tasks: every odd task a copy of the first but
        # for its id, every even one sharing its depth and shots, so that
        # its runtime row ties with the first task's; drawn from a generator
        # of their own, so every draw above stays
        tie = random.Random(12)
        tied = 0
        for _ in range(60):
            wf, network, free_at = random_small_instance(tie, max_tasks=4, max_nodes=4)
            first = wf.tasks[0]
            tasks = tuple(
                t if j == 0
                else dataclasses.replace(first, id=f"twin{j}") if j % 2
                else dataclasses.replace(t, depth=first.depth, shots=first.shots)
                for j, t in enumerate(wf.tasks)
            )
            wf = dataclasses.replace(wf, tasks=tasks)
            table = DecisionTable(wf, network, params, free_at)
            assert_bits_equal(table.bounds, max_reference_bounds(task_terms(wf.tasks, network, params), wf, free_at))
            assert_fresh(table, wf, network, params, free_at)
            tied += len(tasks) > 1
        assert tied > 30

        # planted maxima: 0.0 against -0.0, ties and NaN in every order over
        # two tasks; the table keeps the floats max() keeps, and refuses a
        # NaN exactly where max() keeps one (a zero maximum is floored, so
        # its sign cannot show in the bounds)
        network = make_network([9, 9], [(0, 1)])
        wf = chain_workflow([3, 3])
        values = (0.0, -0.0, 0.5, math.nan)
        real = task_terms(wf.tasks, network, params)
        cache = network.term_caches[params]
        refused = kept = 0
        for planted in itertools.product(itertools.product(values, repeat=3), repeat=2):
            for task, terms, maxima in zip(wf.tasks, real, planted):
                cache[task] = TaskTerms(*terms[:4], maxima)
            try:
                expected = max_reference_bounds(task_terms(wf.tasks, network, params), wf, None)
            except ValueError:
                refused += 1
                with pytest.raises(ValueError, match=r"_sum must be > 0"):
                    DecisionTable(wf, network, params)
                continue
            assert_bits_equal(DecisionTable(wf, network, params).bounds, expected)
            kept += 1
        assert refused > 1000 and kept > 1000

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NormalizationBounds)])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])  # nan <= 0 is false, so NaN needs the "> 0" test
    def test_nonpositive_bound_refused(self, field, value):
        values = {f.name: 1.0 for f in dataclasses.fields(NormalizationBounds)}
        with pytest.raises(ValueError, match=rf"^{field} must be > 0 \(apply the 1e-12 floor\)$"):
            NormalizationBounds(**{**values, field: value})

    def test_nan_first_backlog_entry_is_refused(self):
        # max() keeps a leading NaN, so the availability bound would be NaN
        # and every total the table scores NaN
        network = make_network([50, 50, 50], [(0, 1), (1, 2)])
        wf = chain_workflow([3, 7])
        with pytest.raises(ValueError, match=r"^max_nat must be > 0"):
            DecisionTable(wf, network, NetworkParams(), [math.nan, 1.0, 0.5])

    def test_a_later_nan_backlog_entry_reads_as_no_wait(self):
        # max() skips a NaN that is not first, so the availability bound is
        # the other entries' maximum, and every total reads the NaN host's
        # wait as none: breakdown, the group scorer's totals and
        # aggregate_cost agree, and equal the totals with 0.0 in its place
        network = make_network([50] * 4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
        params = NetworkParams()
        nan = math.nan
        for wf, weights in itertools.product((chain_workflow([3, 7, 5]), chain_workflow([3])),
                                             (WeightConfig(), WeightConfig(zeta=1.0))):
            for backlog in ([0.5, nan, 1.0, 0.25], [0.0, 2.0, 0.25, nan], [0.5, nan, nan, 0.0]):
                table = DecisionTable(wf, network, params, backlog)
                idle = DecisionTable(wf, network, params, [0.0 if x != x else x for x in backlog])
                assert table.bounds == idle.bounds == compute_bounds(wf, network, params, backlog)
                assert table.bounds.max_nat == max(x for x in backlog if x == x)
                for cand in itertools.permutations(range(4), len(wf.tasks)):
                    got = table.breakdown(cand, weights)
                    assert not math.isnan(got.total)
                    assert got == idle.breakdown(cand, weights)
                    assert got == aggregate_cost(wf, list(cand), network, weights, params, table.bounds, backlog)
                scored = 0
                for number, (prefix, u, v, hosts, leaves, links) in enumerate(workflow_monomorphisms(wf, network)):
                    if number == 0:
                        fold, score, _, _, _ = table.group_scorer(weights, u, v)
                    fold(prefix)
                    for hu, mask in group_blocks(hosts, leaves, links):
                        for h, total in zip(mask_hosts(mask), score(hu, mask)):
                            assert total == table.breakdown({**prefix, u: hu, v: h}, weights).total
                            scored += 1
                assert scored >= 4

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
