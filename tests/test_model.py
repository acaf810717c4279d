"""Domain-type invariants, allocation validation and profile loading."""

from __future__ import annotations

import json
import math

import pytest

from qflow.model import (
    Allocation,
    NetworkParams,
    WeightConfig,
    Workflow,
    validate_allocation,
)
from qflow.profiles import PROFILES_ENV_VAR, load_profiles, node_from_profile

from .conftest import chain_workflow, make_network, make_task


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
        assert node.next_available_time == 0.0
        assert node.queue == []

    def test_env_var_override(self, tmp_path, monkeypatch, profiles):
        custom = {"tiny": dict(profiles["brisbane"], qubits=7)}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv(PROFILES_ENV_VAR, str(path))
        loaded = load_profiles()
        assert sorted(loaded) == ["tiny"]
        assert loaded["tiny"]["qubits"] == 7

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"broken": {"qubits": 10}}))
        with pytest.raises(ValueError, match="missing fields"):
            load_profiles(path)
