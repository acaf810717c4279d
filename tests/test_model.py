"""Domain-type invariants, allocation validation and profile loading."""

from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest

from qflow.experiments import ExperimentConfig
from qflow.model import (
    Allocation,
    NetworkParams,
    QpuNode,
    WeightConfig,
    Workflow,
    components,
    kahn_order,
    validate_allocation,
)
from qflow.profiles import PROFILES_ENV_VAR, load_profiles, node_from_profile
from qflow.workload import TopologySpec, WorkloadSpec, random_connected_dag

from .conftest import chain_workflow, make_network, make_node, make_task


class TestTaskSpec:
    def test_valid_task(self):
        t = make_task()
        assert t.qubits == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qubits": 0},
            {"depth": 0},
            {"shots": 0},
            {"two_qubit_gates": -1},
            {"measured_qubits": 6},
            {"family": "bogus"},
        ],
    )
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError):
            make_task(**kwargs)

    @pytest.mark.parametrize("field", ["qubits", "depth", "two_qubit_gates", "shots"])
    def test_nan_count_rejected(self, field):
        with pytest.raises(ValueError, match=rf"{field} must be >= \d, got nan"):
            make_task(**{field: math.nan})

    @pytest.mark.parametrize("field", ["qubits", "depth", "two_qubit_gates", "measured_qubits", "shots"])
    @pytest.mark.parametrize("value", [math.inf, 2.5], ids=["inf", "fractional"])
    def test_infinite_or_fractional_count_rejected(self, field, value):
        # qubits bounds measured_qubits, so a fractional qubit count comes
        # with a measured count below it
        kwargs = {field: value, "measured_qubits": 2} if field == "qubits" else {field: value}
        with pytest.raises(ValueError, match=rf"task t: {field} must be "):
            make_task(**kwargs)

    def test_integral_float_count_accepted(self):
        assert make_task(depth=6.0).depth == 6


# Every whole-count field: a builder from the value, the least valid value
# and the name its error must carry.
COUNT_FIELDS = {
    **{
        f"TaskSpec.{name}": (lambda x, name=name: make_task(**{name: x, "measured_qubits": 0}), low, name)
        for name, low in (("qubits", 1), ("depth", 1), ("two_qubit_gates", 0), ("shots", 1))
    },
    "TaskSpec.measured_qubits": (lambda x: make_task(measured_qubits=x), 0, "measured_qubits"),
    "NetworkParams.switch_count": (lambda x: NetworkParams(switch_count=x), 0, "switch_count"),
    **{
        f"WorkloadSpec.{name}": (lambda x, name=name: WorkloadSpec(**{name: x}), 1, name)
        for name in ("batch_size", "tasks_per_group", "tasks_per_group_min", "shots_default")
    },
    "WorkloadSpec.qubit_range.low": (lambda x: WorkloadSpec(qubit_range=(x, 100)), 1, "qubit_range low end"),
    "WorkloadSpec.qubit_range.high": (lambda x: WorkloadSpec(qubit_range=(5, x)), 5, "qubit_range high end"),
    "TopologySpec.node_count": (lambda x: TopologySpec(node_count=x), 1, "node_count"),
    **{
        f"ExperimentConfig.{name}": (lambda x, name=name: ExperimentConfig(**{name: x}), low, name)
        for name, low in (
            ("repetitions", 1), ("retry_limit", 0), ("trial_multiplier", 1), ("workers", 1), ("catalog_size", 1)
        )
    },
}


@pytest.mark.parametrize("field", list(COUNT_FIELDS))
def test_count_field_takes_only_whole_numbers(field):
    """A bool, NaN, an infinite, a fractional or a too-small value is
    rejected, naming the field; the least value passes, also as a float."""
    build, low, name = COUNT_FIELDS[field]
    for bad in (True, False, math.nan, math.inf, low + 0.5, low - 1):
        with pytest.raises(ValueError, match=name):
            build(bad)
    build(low)
    build(float(low))


class TestWorkflow:
    def test_cycle_rejected(self):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(2))
        with pytest.raises(ValueError, match="cycle"):
            Workflow(id="w", tasks=tasks, edges=frozenset({(0, 1), (1, 0)}))

    def test_disconnected_skeleton_rejected(self):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(3))
        with pytest.raises(ValueError, match="disconnected"):
            Workflow(id="w", tasks=tasks, edges=frozenset({(0, 1)}))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Workflow(id="w", tasks=())

    def test_cycle_reported_before_disconnection(self):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(4))
        with pytest.raises(ValueError, match="cycle"):
            Workflow(id="w", tasks=tasks, edges=frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_single_task_has_empty_skeleton(self):
        wf = chain_workflow([5])
        assert wf.skeleton() == () and wf.topological_order() == (0,)

    def test_nan_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            chain_workflow([5, 5], arrival=math.nan)

    def test_topological_order_respects_edges(self):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(4))
        wf = Workflow(id="w", tasks=tasks, edges=frozenset({(0, 2), (1, 2), (2, 3), (0, 1)}))
        order = wf.topological_order()
        pos = {j: i for i, j in enumerate(order)}
        for a, b in wf.edges:
            assert pos[a] < pos[b]

    def test_priority_defaults_to_zero(self):
        wf = chain_workflow([5])
        assert wf.priority == 0


class TestResourceNetwork:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_network([127, 127], [(0, 0)])

    def test_links_normalized_symmetric(self):
        net = make_network([127, 127], [(1, 0)])
        assert net.has_link(0, 1) and net.has_link(1, 0)
        assert net.links == frozenset({(0, 1)})

    def test_connectivity_check(self):
        assert make_network([1, 1, 1], [(0, 1), (1, 2)]).is_connected()
        assert not make_network([1, 1, 1], [(0, 1)]).is_connected()


class TestQpuNode:
    @pytest.mark.parametrize(
        "kwarg, field",
        [("rt1", "one_qubit_runtime"), ("rt2", "two_qubit_runtime"), ("rtr", "readout_runtime"),
         ("t1", "t1"), ("t2", "t2"), ("d1cps", "d1cps")],
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_nonpositive_and_nan_calibration_rejected(self, kwarg, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be > 0"):
            make_node(**{kwarg: value})

    @pytest.mark.parametrize("qubits", [math.nan, math.inf, 2.5, True], ids=["nan", "inf", "fractional", "bool"])
    def test_non_whole_qubits_rejected_naming_the_node(self, qubits):
        # a NaN node would fit no task: every qubit comparison with NaN is false
        with pytest.raises(ValueError, match=r"^node x: qubits must be"):
            make_node(node_id="x", qubits=qubits)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(QpuNode)] + ["next_available_time"])
    def test_every_field_is_frozen(self, name):
        # the network's term cache and calibration classes were derived from
        # the fields, and availability is the simulator's, not the node's
        node = make_node(node_id="x", qubits=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, 0.0)
        assert len(dataclasses.fields(QpuNode)) == 11  # id and ten calibration fields


def reference_kahn(n, edges):
    """Kahn's algorithm over a sorted ready list, the least index first."""
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for a, b in sorted(edges):
        indeg[b] += 1
        succ[a].append(b)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        for v in sorted(succ[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
        ready.sort()
    return order


def reference_components(n, edges):
    """Components by merging vertex sets, as ascending lists ordered by
    their least vertex."""
    sets = [{v} for v in range(n)]
    for a, b in edges:
        sa = next(s for s in sets if a in s)
        sb = next(s for s in sets if b in s)
        if sa is not sb:
            sa |= sb
            sets.remove(sb)
    return sorted((sorted(s) for s in sets), key=lambda c: c[0])


class TestGraphLayer:
    def test_workflow_views_match_references_on_random_dags(self):
        rng = random.Random(20)
        for _ in range(400):
            n = rng.randint(1, 9)
            labels = list(range(n))
            rng.shuffle(labels)  # so that index order is not a topological order
            edges = frozenset((labels[a], labels[b]) for a, b in random_connected_dag(n, rng))
            wf = Workflow(id="w", tasks=tuple(make_task(task_id=f"t{i}") for i in range(n)), edges=edges)
            assert wf.topological_order() == tuple(reference_kahn(n, edges))
            assert wf.skeleton() == tuple(sorted({tuple(sorted(e)) for e in edges}))

    def test_kahn_order_matches_reference_and_is_short_on_cycles(self):
        rng = random.Random(21)
        cyclic = 0
        for _ in range(400):
            n = rng.randint(1, 9)
            edges = {(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.2}
            order = kahn_order(n, edges)
            assert order == reference_kahn(n, edges)
            if len(order) < n:
                cyclic += 1
                with pytest.raises(ValueError, match="cycle"):
                    Workflow(id="w", tasks=tuple(make_task(task_id=f"t{i}") for i in range(n)), edges=edges)
        assert cyclic > 50

    def test_components_and_adjacency_match_references(self):
        rng = random.Random(22)
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.random() * 0.4
            links = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
            assert components(n, links) == reference_components(n, links)
            net = make_network([5] * n, links)
            assert net.is_connected() == (len(reference_components(n, links)) == 1)
            assert net.adjacency() == tuple(
                tuple(sorted({b for a, b in links if a == v} | {a for a, b in links if b == v})) for v in range(n)
            )


class TestWeightConfig:
    def test_defaults_balanced(self):
        w = WeightConfig()
        assert w.zeta == 0.5
        assert w.alpha + w.beta + w.gamma == pytest.approx(1.0, abs=1e-12)

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            WeightConfig(alpha=0.5, beta=0.5, gamma=0.5)

    def test_zeta_range(self):
        with pytest.raises(ValueError):
            WeightConfig(zeta=1.5)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_nan_weight_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            WeightConfig(**{field: math.nan})


class TestNetworkParams:
    def test_defaults(self):
        p = NetworkParams()
        assert p.success_probability == 0.5
        assert p.classical_latency == 0.02
        assert p.switch_count == 1
        assert p.eta_linear == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkParams(success_probability=1.5)
        with pytest.raises(ValueError):
            NetworkParams(classical_latency=-0.1)

    @pytest.mark.parametrize("db", [0.0, -3.0, -40.0, 2.5])
    def test_decibels_accept_any_finite_value(self, db):
        # 0 dB is lossless and a loss is negative
        p = NetworkParams(transmission_efficiency=db, eta_in_db=True)
        assert p.eta_linear == 10.0 ** (db / 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transmission_efficiency": 0.0},
            {"transmission_efficiency": -0.5},
            {"transmission_efficiency": math.nan},
            {"transmission_efficiency": math.nan, "eta_in_db": True},
            {"transmission_efficiency": math.inf, "eta_in_db": True},
            {"transmission_efficiency": -4000.0, "eta_in_db": True},
            {"transmission_efficiency": 4000.0, "eta_in_db": True},
            {"transmission_efficiency": 1e-200, "switch_count": 2},
            {"classical_latency": math.nan},
        ],
        ids=[
            "linear-zero", "linear-negative", "linear-nan", "db-nan", "db-inf",
            "db-underflow", "db-overflow", "attenuation-underflow", "latency-nan",
        ],
    )
    def test_rejects_out_of_range_and_nan(self, kwargs):
        field = next(iter(kwargs))
        with pytest.raises(ValueError, match=field):
            NetworkParams(**kwargs)


class TestValidateAllocation:
    def test_single_task_no_edges_true(self):
        wf = chain_workflow([5])
        net = make_network([127], [])
        assert validate_allocation(wf, net, Allocation("wf", {0: 0}))

    def test_non_adjacent_chain_false(self):
        wf = chain_workflow([5, 5])
        net = make_network([127, 127, 127], [(0, 1), (1, 2)])
        assert not validate_allocation(wf, net, Allocation("wf", {0: 0, 1: 2}))

    def test_qubit_capacity_false_by_direct_comparison(self):
        wf = chain_workflow([5, 150])
        net = make_network([127, 133], [(0, 1)])
        # direct oracle: 150 > 133 on the only adjacent option
        assert wf.tasks[1].qubits > net.nodes[1].qubits
        assert not validate_allocation(wf, net, Allocation("wf", {0: 0, 1: 1}))

    def test_non_injective_false(self):
        wf = chain_workflow([5, 5])
        net = make_network([127, 127], [(0, 1)])
        assert not validate_allocation(wf, net, Allocation("wf", {0: 0, 1: 0}))

    def test_incomplete_assignment_false(self):
        wf = chain_workflow([5, 5])
        net = make_network([127, 127], [(0, 1)])
        assert not validate_allocation(wf, net, Allocation("wf", {0: 0}))

    def test_structural_index_error_distinct_from_false(self):
        wf = chain_workflow([5])
        net = make_network([127], [])
        with pytest.raises(IndexError):
            validate_allocation(wf, net, Allocation("wf", {0: 5}))
        with pytest.raises(IndexError):
            validate_allocation(wf, net, Allocation("wf", {7: 0}))


class TestProfiles:
    def test_three_machines_with_ten_properties(self, profiles):
        assert sorted(profiles) == ["brisbane", "marrakesh", "torino"]
        for record in profiles.values():
            assert len(record) == 10

    def test_published_calibration_values(self, profiles):
        assert profiles["brisbane"]["qubits"] == 127
        assert profiles["torino"]["qubits"] == 133
        assert profiles["marrakesh"]["qubits"] == 156
        assert profiles["brisbane"]["two_qubit_error"] == pytest.approx(7.042e-3)
        assert profiles["torino"]["one_qubit_runtime"] == pytest.approx(32e-9)
        assert profiles["marrakesh"]["readout_runtime"] == pytest.approx(2584e-9)
        assert profiles["brisbane"]["t1"] == pytest.approx(220.53e-6)
        assert profiles["marrakesh"]["readout_error"] == pytest.approx(1.074e-2)

    def test_node_factory(self, profiles):
        node = node_from_profile("torino", profiles, "torino-3")
        assert node.id == "torino-3"
        assert node.qubits == 133
        assert node.d1cps == profiles["torino"]["d1cps"]

    def test_env_var_override(self, tmp_path, monkeypatch, profiles):
        custom = {"tiny": dict(profiles["brisbane"], qubits=7)}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv(PROFILES_ENV_VAR, str(path))
        loaded = load_profiles()
        assert sorted(loaded) == ["tiny"]
        assert loaded["tiny"]["qubits"] == 7

    @pytest.mark.parametrize("field", ["one_qubit_runtime", "t1", "d1cps"])
    def test_nan_calibration_in_file_rejected(self, tmp_path, profiles, field):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"broken": dict(profiles["brisbane"], **{field: math.nan})}))
        assert f'"{field}": NaN' in path.read_text()
        with pytest.raises(ValueError, match=rf"{field} must be > 0, got nan"):
            node_from_profile("broken", load_profiles(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"broken": {"qubits": 10}}))
        with pytest.raises(ValueError, match="missing fields"):
            load_profiles(path)
