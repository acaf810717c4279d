"""Workload and topology generator tests: formulas, determinism, structure."""

from __future__ import annotations

import json
import math
import random

import pytest

from qflow.model import PROGRAM_FAMILIES, TaskSpec
from qflow.workload import (
    TopologySpec,
    WorkloadSpec,
    export_task_catalog,
    export_workload,
    generate_catalog,
    generate_network,
    generate_task,
    generate_workload,
    import_task_catalog,
    import_workload,
)

from .conftest import is_connected


class TestGenerateTask:
    def test_ghz5_matches_reference_circuit(self):
        rng = random.Random(0)
        t = generate_task("ghz", 5, rng)
        assert (t.qubits, t.depth, t.two_qubit_gates, t.measured_qubits) == (5, 6, 4, 5)

    def test_ghz2_ladder_extended_by_hand(self):
        # 2-qubit ladder: H, one CNOT, measure both -> depth 3, one 2q gate
        rng = random.Random(0)
        t = generate_task("ghz", 2, rng)
        assert (t.qubits, t.depth, t.two_qubit_gates, t.measured_qubits) == (2, 3, 1, 2)

    def test_qft1_has_no_entangling_gates(self):
        rng = random.Random(0)
        t = generate_task("qft", 1, rng)
        assert t.two_qubit_gates == 0
        assert t.depth >= 1

    def test_qft_quadratic_gate_count(self):
        rng = random.Random(0)
        assert generate_task("qft", 10, rng).two_qubit_gates == 45

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown program family"):
            generate_task("teleport", 5, random.Random(0))

    def test_all_families_produce_valid_tasks(self):
        rng = random.Random(1)
        for family in PROGRAM_FAMILIES:
            for n in (1, 2, 5, 50, 100):
                t = generate_task(family, n, rng)
                assert t.qubits == n
                assert t.depth >= 1 and t.shots >= 1
                assert 0 <= t.measured_qubits <= t.qubits

    def test_case_insensitive_family(self):
        rng = random.Random(0)
        assert generate_task("GHZ", 4, rng).program_family == "ghz"


class TestCatalogRoundTrip:
    def test_export_import_identity(self, tmp_path):
        catalog = generate_catalog(20, seed=5)
        path = tmp_path / "catalog.csv"
        export_task_catalog(catalog, path)
        loaded = import_task_catalog(path)
        assert loaded == catalog

    def test_integral_float_counts_round_trip(self, tmp_path):
        task = TaskSpec(id="t", qubits=5.0, depth=6.0, two_qubit_gates=4.0, measured_qubits=2.0, shots=100.0)
        path = tmp_path / "catalog.csv"
        export_task_catalog([task], path)
        assert path.read_text().splitlines()[1] == "t,randomcircuit,5,6,4,2,100"
        assert import_task_catalog(path) == [task]

    def test_header_only_file_gives_empty_catalog(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,family,qubits,depth,two_qubit_gates,measured_qubits,shots\n")
        assert import_task_catalog(path) == []

    def test_invariant_violation_reports_line_and_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,family,qubits,depth,two_qubit_gates,measured_qubits,shots\n"
            "x,ghz,5,6,4,9,1000\n"
        )
        with pytest.raises(ValueError, match="line 2.*measured_qubits"):
            import_task_catalog(path)

    def test_malformed_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,family,qubits,depth,two_qubit_gates,measured_qubits,shots\n"
            "x,ghz,five,6,4,5,1000\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            import_task_catalog(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="line 1"):
            import_task_catalog(path)


class TestGenerateWorkload:
    def test_single_task_groups_have_no_edges(self):
        catalog = generate_catalog(30, seed=2)
        spec = WorkloadSpec(batch_size=20, tasks_per_group=1, seed=3)
        for wf in generate_workload(spec, catalog):
            assert len(wf.tasks) == 1
            assert wf.edges == frozenset()

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
    def test_nonpositive_and_nan_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="arrival_rate must be > 0"):
            WorkloadSpec(arrival_rate=rate)

    def test_high_rate_bunches_arrivals_near_zero(self):
        catalog = generate_catalog(30, seed=2)
        spec = WorkloadSpec(batch_size=10, tasks_per_group=2, arrival_rate=1e9, seed=3)
        workload = generate_workload(spec, catalog)
        assert all(wf.arrival_time < 1e-6 for wf in workload)

    def test_arrivals_nondecreasing_and_structure_valid(self):
        catalog = generate_catalog(50, seed=8)
        for seed in range(20):
            spec = WorkloadSpec(batch_size=25, tasks_per_group=5, seed=seed)
            workload = generate_workload(spec, catalog)
            assert len(workload) == 25
            arrivals = [wf.arrival_time for wf in workload]
            assert arrivals == sorted(arrivals)
            for wf in workload:
                assert 1 <= len(wf.tasks) <= 5
                # Workflow construction enforces DAG + connected skeleton

    def test_seed_determinism_byte_for_byte(self, tmp_path):
        catalog = generate_catalog(40, seed=4)
        spec = WorkloadSpec(batch_size=15, tasks_per_group=4, seed=77)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        export_workload(generate_workload(spec, catalog), a)
        export_workload(generate_workload(spec, catalog), b)
        assert a.read_bytes() == b.read_bytes()

    def test_workload_roundtrip(self, tmp_path):
        catalog = generate_catalog(40, seed=4)
        spec = WorkloadSpec(batch_size=12, tasks_per_group=3, seed=5)
        workload = generate_workload(spec, catalog)
        path = tmp_path / "w.json"
        export_workload(workload, path)
        assert import_workload(path) == workload

    def test_imported_nan_depth_rejected(self, tmp_path):
        catalog = generate_catalog(40, seed=4)
        workload = generate_workload(WorkloadSpec(batch_size=3, tasks_per_group=2, seed=5), catalog)
        path = tmp_path / "w.json"
        export_workload(workload, path)
        payload = json.loads(path.read_text())
        payload["workflows"][1]["tasks"][0]["depth"] = math.nan
        path.write_text(json.dumps(payload))
        assert '"depth": NaN' in path.read_text()
        with pytest.raises(ValueError, match="depth must be a whole number, got nan"):
            import_workload(path)

    def test_imported_infinite_depth_rejected(self, tmp_path):
        catalog = generate_catalog(40, seed=4)
        workload = generate_workload(WorkloadSpec(batch_size=3, tasks_per_group=2, seed=5), catalog)
        path = tmp_path / "w.json"
        export_workload(workload, path)
        payload = json.loads(path.read_text())
        payload["workflows"][1]["tasks"][0]["depth"] = math.inf
        path.write_text(json.dumps(payload))
        assert '"depth": Infinity' in path.read_text()
        with pytest.raises(ValueError, match="depth must be a finite whole number, got inf"):
            import_workload(path)

    def test_imported_boolean_depth_rejected(self, tmp_path):
        catalog = generate_catalog(40, seed=4)
        workload = generate_workload(WorkloadSpec(batch_size=3, tasks_per_group=2, seed=5), catalog)
        path = tmp_path / "w.json"
        export_workload(workload, path)
        payload = json.loads(path.read_text())
        payload["workflows"][1]["tasks"][0]["depth"] = True
        path.write_text(json.dumps(payload))
        assert '"depth": true' in path.read_text()
        with pytest.raises(ValueError, match="depth must be a whole number, not a bool"):
            import_workload(path)

    def test_qubit_filter_enforced(self):
        catalog = generate_catalog(40, qubit_range=(5, 100), seed=4)
        spec = WorkloadSpec(batch_size=10, tasks_per_group=2, qubit_range=(5, 20), seed=6)
        workload = generate_workload(spec, catalog)
        assert all(5 <= t.qubits <= 20 for wf in workload for t in wf.tasks)

    def test_empty_filtered_catalog_rejected(self):
        catalog = generate_catalog(10, qubit_range=(50, 100), seed=4)
        spec = WorkloadSpec(batch_size=5, tasks_per_group=2, qubit_range=(1, 2), seed=6)
        with pytest.raises(ValueError, match="no tasks within qubit range"):
            generate_workload(spec, catalog)

    def test_pinned_minimum_group_size(self):
        catalog = generate_catalog(30, seed=2)
        spec = WorkloadSpec(batch_size=15, tasks_per_group=4, tasks_per_group_min=4, seed=9)
        assert all(len(wf.tasks) == 4 for wf in generate_workload(spec, catalog))


class TestGenerateNetwork:
    def test_full_probability_gives_complete_graph(self, profiles):
        spec = TopologySpec(node_count=6, link_probability=1.0, seed=1)
        net = generate_network(spec, profiles)
        assert len(net.links) == 15

    def test_zero_probability_gives_spanning_tree(self, profiles):
        spec = TopologySpec(node_count=8, link_probability=0.0, seed=2)
        net = generate_network(spec, profiles)
        assert len(net.links) == 7
        assert is_connected(net)

    def test_always_connected(self, profiles):
        for seed in range(40):
            spec = TopologySpec(node_count=9, link_probability=0.15, seed=seed)
            assert is_connected(generate_network(spec, profiles))

    def test_replay_determinism(self, profiles):
        spec = TopologySpec(node_count=5, link_probability=0.5, seed=123)
        a = generate_network(spec, profiles)
        b = generate_network(spec, profiles)
        assert a.links == b.links
        assert [n.id for n in a.nodes] == [n.id for n in b.nodes]

    def test_profiles_drawn_with_replacement(self, profiles):
        spec = TopologySpec(node_count=20, link_probability=0.5, seed=3)
        net = generate_network(spec, profiles)
        names = {n.id.rsplit("-", 1)[0] for n in net.nodes}
        assert names <= {"brisbane", "torino", "marrakesh"}
        assert len(net.nodes) == 20
