"""Domain-type invariants, allocation validation and profile loading."""

from __future__ import annotations

import codecs
import dataclasses
import json
import math
import random
import time
from importlib import resources

import pytest

from qflow.experiments import ExperimentConfig
from qflow.matcher import mask_hosts
from qflow.model import (
    Allocation,
    NetworkParams,
    QpuNode,
    WeightConfig,
    Workflow,
    adjacency_masks,
    components,
    mapping_feasible,
    validate_allocation,
)
from qflow.profiles import load_profiles, node_from_profile
from qflow.workload import TopologySpec, WorkloadSpec, generate_network, random_connected_dag

from .conftest import chain_workflow, is_connected, make_network, make_node, make_task, reference_kahn


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
        with pytest.raises(ValueError, match=rf"{field} must be a whole number, got nan"):
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
        # stored as ints, so an exported catalog writes "6", not "6.0"
        task = make_task(qubits=5.0, depth=6.0, two_qubit_gates=4.0, measured_qubits=5.0, shots=1000.0)
        counts = (task.qubits, task.depth, task.two_qubit_gates, task.measured_qubits, task.shots)
        assert counts == (5, 6, 4, 5, 1000)
        assert all(type(c) is int for c in counts)
        names = ("qubits", "depth", "two_qubit_gates", "measured_qubits", "shots")
        given = {name: int(str(c + 1000)) for name, c in zip(names, counts)}  # fresh objects, past the small-int cache
        task = make_task(**given)
        assert all(getattr(task, name) is given[name] for name in names)


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
    """A bool, a value that is no number, NaN, an infinite, a fractional or
    a too-small value is rejected, naming the field; the least value passes,
    also as a float."""
    build, low, name = COUNT_FIELDS[field]
    for bad in (True, False, "x", "1", None, [], math.nan, math.inf, low + 0.5, low - 1):
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

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({(0, 1), (0, 2)}, r"edge \(0,2\) out of range"),
            ({(0, 1), (-1, 0)}, r"edge \(-1,0\) out of range"),
            ({(0, 1), (1, 1)}, "self-loop on task 1"),
            ({(0, 1), (1.0, 0)}, r"edge \(1\.0,0\) needs integer task indices"),
            ({(0, 1), ("0", 1)}, r"edge \('0',1\) needs integer task indices"),
            ({(0, 1), 1}, "edge 1 is not a pair of task indices"),
            ({(0, 1), (0, 1, 2)}, r"edge \(0, 1, 2\) is not a pair of task indices"),
            ({(0, 1), (0,)}, r"edge \(0,\) is not a pair of task indices"),
            (1, "edges must be a collection of task index pairs, got 1"),
            (None, "edges must be a collection of task index pairs, got None"),
        ],
        ids=[
            "past-end", "negative", "self-loop", "float-endpoint", "str-endpoint", "int-edge", "triple", "single",
            "int-edges", "no-edges",
        ],
    )
    def test_bad_edge_rejected(self, edges, message):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(2))
        with pytest.raises(ValueError, match=rf"^workflow w: {message}$"):
            Workflow(id="w", tasks=tasks, edges=edges)

    def test_cycle_reported_before_disconnection(self):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(4))
        with pytest.raises(ValueError, match="cycle"):
            Workflow(id="w", tasks=tasks, edges=frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_single_task_has_empty_skeleton(self):
        wf = chain_workflow([5])
        assert wf.skeleton == () and wf.topological_order == (0,)

    def test_nan_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            chain_workflow([5, 5], arrival=math.nan)

    def test_infinite_arrival_rejected(self):
        # the simulator would report a NaN wait and an infinite execution time
        with pytest.raises(ValueError, match=r"^workflow wf: arrival time must be finite and >= 0, got inf$"):
            chain_workflow([5, 5], arrival=math.inf)

    def test_topological_order_respects_edges(self):
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(4))
        wf = Workflow(id="w", tasks=tasks, edges=frozenset({(0, 2), (1, 2), (2, 3), (0, 1)}))
        order = wf.topological_order
        pos = {j: i for i, j in enumerate(order)}
        for a, b in wf.edges:
            assert pos[a] < pos[b]

    def test_priority_defaults_to_zero(self):
        wf = chain_workflow([5])
        assert wf.priority == 0

    @pytest.mark.parametrize(
        "make_edges",
        [lambda: iter([(0, 1), (1, 2)]), lambda: ((i, i + 1) for i in range(2))],
        ids=["iterator", "generator"],
    )
    def test_one_shot_edges_are_stored_as_validated(self, make_edges):
        # edges are read once: the pairs that validated are the pairs kept,
        # so the simulator gates on them and the matcher links the tasks
        tasks = tuple(make_task(task_id=f"t{i}") for i in range(3))
        wf = Workflow(id="w", tasks=tasks, edges=make_edges())
        assert wf.edges == frozenset({(0, 1), (1, 2)})
        assert wf.skeleton == ((0, 1), (1, 2))
        assert wf.topological_order == (0, 1, 2)
        assert wf == Workflow(id="w", tasks=tasks, edges=frozenset({(0, 1), (1, 2)}))

    def test_positional_and_keyword_construction_take_the_same_defaults(self):
        tasks = (make_task(task_id="t0"), make_task(task_id="t1"))
        edges = frozenset({(0, 1)})
        full = Workflow("w", tasks, edges, 2.5, 3)
        assert (full.id, full.tasks, full.edges, full.arrival_time, full.priority) == ("w", tasks, edges, 2.5, 3)
        assert full == Workflow(id="w", tasks=tasks, edges=edges, arrival_time=2.5, priority=3)
        single = Workflow("s", tasks[:1])
        assert (single.edges, single.arrival_time, single.priority) == (frozenset(), 0.0, 0)
        assert single == Workflow(id="s", tasks=tasks[:1], edges=frozenset(), arrival_time=0.0, priority=0)
        assert Workflow("w", tasks, edges) == Workflow(id="w", tasks=tasks, edges=edges)
        # a list of tasks and list-pair edges are stored as a tuple and a frozenset of tuples
        listed = Workflow("w", list(tasks), [[0, 1]], 2.5, 3)
        assert (type(listed.tasks), listed.edges) == (tuple, edges)
        assert listed == full

    def test_replace_revalidates(self):
        wf = chain_workflow([5, 5, 5], arrival=1.0)
        moved = dataclasses.replace(wf, arrival_time=4.0)
        assert (moved.arrival_time, moved.edges, moved.topological_order) == (4.0, wf.edges, wf.topological_order)
        with pytest.raises(ValueError, match=r"^workflow wf: arrival time must be finite and >= 0, got inf$"):
            dataclasses.replace(wf, arrival_time=math.inf)
        with pytest.raises(ValueError, match="disconnected"):
            dataclasses.replace(wf, edges=frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="topological_order"):
            dataclasses.replace(wf, topological_order=(2, 1, 0))

    @pytest.mark.parametrize("name", ["id", "tasks", "edges", "arrival_time", "priority", "topological_order"])
    def test_every_field_is_frozen(self, name):
        wf = chain_workflow([5, 5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(wf, name, getattr(wf, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(wf, name)

    def test_eq_hash_and_repr_follow_the_five_fields(self):
        tasks = (make_task(task_id="t0"), make_task(task_id="t1"))
        edges = frozenset({(0, 1)})
        wf = Workflow("w", tasks, edges, 2.5, 3)
        assert hash(wf) == hash(("w", tasks, edges, 2.5, 3))
        assert repr(wf) == f"Workflow(id='w', tasks={tasks!r}, edges={edges!r}, arrival_time=2.5, priority=3)"
        for changed in ({"id": "v"}, {"tasks": tasks[::-1]}, {"edges": frozenset({(1, 0)})},
                        {"arrival_time": 2.0}, {"priority": 4}):
            assert wf != dataclasses.replace(wf, **changed)
        assert wf != ("w", tasks, edges, 2.5, 3)
        assert dataclasses.astuple(wf) == ("w", tuple(map(dataclasses.astuple, tasks)), edges, 2.5, 3, (0, 1))
        assert list(dataclasses.asdict(wf)) == ["id", "tasks", "edges", "arrival_time", "priority", "topological_order"]

    def test_topological_order_stays_out_of_init_eq_and_repr(self):
        flags = {f.name: (f.init, f.compare, f.repr) for f in dataclasses.fields(Workflow)}
        assert flags == {
            "id": (True, True, True), "tasks": (True, True, True), "edges": (True, True, True),
            "arrival_time": (True, True, True), "priority": (True, True, True),
            "topological_order": (False, False, False),
        }
        wf = chain_workflow([5, 5])
        with pytest.raises(TypeError):
            Workflow(wf.id, wf.tasks, wf.edges, topological_order=(0, 1))
        assert "topological_order" not in repr(wf)
        assert list(vars(wf)) == ["id", "tasks", "edges", "arrival_time", "priority", "topological_order"]


class TestResourceNetwork:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_network([127, 127], [(0, 0)])

    @pytest.mark.parametrize(
        "qubit_list, links, message",
        [
            ([], [], "network needs at least one node"),
            ([127, 127], [(0, 2)], r"link \(0,2\) out of range"),
            ([127, 127], [(0, 1.0)], r"link \(0,1\.0\) needs integer node indices"),
            ([127, 127], [("a", 1)], r"link \('a',1\) needs integer node indices"),
            ([127, 127], {1}, "link 1 is not a pair of node indices"),
            ([127, 127], {(0, 1, 2)}, r"link \(0, 1, 2\) is not a pair of node indices"),
            ([127, 127], {(0,)}, r"link \(0,\) is not a pair of node indices"),
            ([127, 127], 1, "links must be a collection of node index pairs, got 1"),
            ([127, 127], None, "links must be a collection of node index pairs, got None"),
        ],
        ids=[
            "no-nodes", "link-out-of-range", "float-endpoint", "string-endpoint", "int-link", "triple", "single",
            "int-links", "no-links",
        ],
    )
    def test_empty_network_and_stray_link_rejected(self, qubit_list, links, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            make_network(qubit_list, links)

    def test_links_normalized_symmetric(self):
        net = make_network([127, 127], [(1, 0)])
        assert net.neighbour_masks == (0b10, 0b01)
        assert net.links == frozenset({(0, 1)})

    def test_connectivity_check(self):
        assert is_connected(make_network([1, 1, 1], [(0, 1), (1, 2)]))
        assert not is_connected(make_network([1, 1, 1], [(0, 1)]))

    def test_qubit_mask_holds_the_nodes_with_enough_qubits(self):
        for net in derivation_networks():
            top = max(node.qubits for node in net.nodes)
            for q in range(top + 2):
                expected = sum(1 << k for k in [k for k, node in enumerate(net.nodes) if node.qubits >= q])
                assert net.qubit_mask(q) == expected
                assert net.qubit_mask(q) is net.qubit_mask(q)  # read, not recomputed
            assert net.qubit_mask(top + 1) == 0

    def test_degree_masks_hold_the_nodes_with_enough_neighbours(self):
        for net in derivation_networks():
            degrees = [mask.bit_count() for mask in net.neighbour_masks]
            per_node = [sum(1 << k for k, deg in enumerate(degrees) if deg >= d) for d in range(max(degrees) + 1)]
            assert net.degree_masks == tuple(per_node)

    def test_calibration_classes_follow_the_per_class_definition(self):
        # classes keyed by every field but the id, in order of first appearance; per class its first node
        # and the mask of its nodes; on one node, one class and a class per node too
        shapes = set()
        for net in derivation_networks():
            keys = [tuple(v for f, v in dataclasses.asdict(node).items() if f != "id") for node in net.nodes]
            distinct = list(dict.fromkeys(keys))
            of_node = tuple(distinct.index(key) for key in keys)
            reps = tuple(net.nodes[of_node.index(c)] for c in range(len(distinct)))
            masks = tuple(sum(1 << k for k, d in enumerate(of_node) if d == c) for c in range(len(distinct)))
            assert net.calibration_classes == (reps, masks, of_node)
            shapes.add("one node" if len(keys) == 1 else {1: "one class", len(keys): "class per node"}.get(len(reps)))
        assert {"one node", "one class", "class per node"} <= shapes

    def test_a_qubit_mask_of_zero_is_kept(self):
        net = make_network([5, 20], [(0, 1)])
        assert net.qubit_mask(21) == 0
        object.__setattr__(net, "nodes", (make_node("big", 127),) * 2)  # a recomputation would read these
        assert (net.qubit_mask(21), net.qubit_mask(1)) == (0, 0b11)


class TestQpuNode:
    @pytest.mark.parametrize(
        "kwarg, field",
        [("rt2", "two_qubit_runtime"), ("t1", "t1"), ("t2", "t2"), ("d1cps", "d1cps")],
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_and_nan_calibration_rejected(self, kwarg, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be > 0 and finite, got {value}$"):
            make_node(**{kwarg: value})

    @pytest.mark.parametrize("kwarg, field", [("er", "readout_error"), ("e1", "one_qubit_error"), ("e2", "two_qubit_error")])
    @pytest.mark.parametrize("value", [-0.1, 1.0, math.nan])
    def test_error_rate_outside_unit_interval_rejected(self, kwarg, field, value):
        with pytest.raises(ValueError, match=rf"^node x: {field} must be in \[0, 1\), got {value}$"):
            make_node(node_id="x", **{kwarg: value})

    @pytest.mark.parametrize("qubits", [math.nan, math.inf, 2.5, True], ids=["nan", "inf", "fractional", "bool"])
    def test_non_whole_qubits_rejected_naming_the_node(self, qubits):
        # a NaN node would fit no task: every qubit comparison with NaN is false
        with pytest.raises(ValueError, match=r"^node x: qubits must be"):
            make_node(node_id="x", qubits=qubits)

    def test_integral_float_qubits_stored_as_int(self):
        node = make_node(qubits=127.0)
        assert node.qubits == 127 and type(node.qubits) is int

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(QpuNode)] + ["next_available_time"])
    def test_every_field_is_frozen(self, name):
        # the network's term cache and calibration classes were derived from
        # the fields, and availability is the simulator's, not the node's
        node = make_node(node_id="x", qubits=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, 0.0)
        assert len(dataclasses.fields(QpuNode)) == 9  # id and eight calibration fields


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
            assert wf.topological_order == tuple(reference_kahn(n, edges))
            assert wf.skeleton == tuple(sorted({tuple(sorted(e)) for e in edges}))

    def test_topological_order_matches_reference_and_cycles_rejected(self):
        # random digraphs, so cycles, disconnected skeletons and DAGs all occur
        rng = random.Random(21)
        verdicts = []
        for _ in range(400):
            n = rng.randint(1, 9)
            edges = {(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.2}
            order = reference_kahn(n, edges)
            tasks = tuple(make_task(task_id=f"t{i}") for i in range(n))
            if len(order) < n:
                verdicts.append("cycle")
            elif len(reference_components(n, edges)) > 1:
                verdicts.append("disconnected")
            else:
                assert Workflow(id="w", tasks=tasks, edges=edges).topological_order == tuple(order)
                verdicts.append("valid")
                continue
            with pytest.raises(ValueError, match=verdicts[-1]):
                Workflow(id="w", tasks=tasks, edges=edges)
        assert min(verdicts.count(v) for v in ("cycle", "disconnected", "valid")) > 50

    def test_long_reversed_chain_validates_quickly(self):
        # one scan of the pending tasks per step takes seconds on this chain
        # (0.7 s already at 3,000 tasks); the ready mask takes milliseconds
        n = 6000
        edges = frozenset((i + 1, i) for i in range(n - 1))
        tasks = (make_task(),) * n
        started = time.perf_counter()
        wf = Workflow(id="w", tasks=tasks, edges=edges)
        assert time.perf_counter() - started < 1.0
        assert wf.topological_order == tuple(reference_kahn(n, edges)) == tuple(range(n - 1, -1, -1))

    def test_components_and_adjacency_match_references(self):
        rng = random.Random(22)
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.random() * 0.4
            links = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
            assert components(n, links) == reference_components(n, links)
            net = make_network([5] * n, links)
            assert is_connected(net) == (len(reference_components(n, links)) == 1)
            # each vertex's neighbours from ``links``, then as a bitmask
            reference = [{b for a, b in links if a == v} | {a for a, b in links if b == v} for v in range(n)]
            reference = [sum(1 << k for k in adjacent) for adjacent in reference]
            assert adjacency_masks(n, links) == adjacency_masks(n, {(b, a) for a, b in links}) == reference
            assert net.neighbour_masks == tuple(reference)


def random_and_generated_networks():
    """Random networks of mixed sizes, then ``generate_network`` networks."""
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 12)
        p = rng.random() * 0.6
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        links = {(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs}  # either orientation
        yield make_network([rng.choice((5, 20, 127)) for _ in range(n)], links)
    profiles = load_profiles()
    for seed in range(30):
        spec = TopologySpec(node_count=3 + seed % 10, link_probability=0.1 + 0.03 * seed, seed=seed)
        yield generate_network(spec, profiles)


def derivation_networks():
    """The random and generated networks, then the shapes a derived view
    gets wrong first: one node, no links, one calibration class, and every
    node its own class."""
    yield from random_and_generated_networks()
    yield make_network([5], [])
    yield make_network([5, 20, 127, 20], [])
    yield make_network([20] * 6, [(0, k) for k in range(1, 6)])
    yield make_network([5 + k for k in range(7)], [(k, k + 1) for k in range(6)])


def links_feasible(mapping, workflow, network):
    """Reference for ``mapping_feasible`` that looks edges up in ``links``."""
    on_links = all((min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) in network.links for a, b in workflow.edges)
    return on_links and all(task.qubits <= network.nodes[mapping[j]].qubits for j, task in enumerate(workflow.tasks))


class TestNeighbourMasks:
    def test_mask_bits_are_the_links(self):
        for net in random_and_generated_networks():
            n = len(net.nodes)
            for a in range(n):
                for b in range(n):
                    assert bool(net.neighbour_masks[a] >> b & 1) == ((min(a, b), max(a, b)) in net.links)

    def test_mapping_feasible_matches_links_reference(self):
        rng = random.Random(24)
        linked = {True: 0, False: 0}  # verdicts on workflows with at least one edge
        for net in random_and_generated_networks():
            n = len(net.nodes)
            adjacency = [mask_hosts(mask) for mask in net.neighbour_masks]
            for _ in range(20):
                size = rng.randint(1, n)
                qubits = [rng.choice((1, 5, 27)) for _ in range(size)]
                tasks = tuple(make_task(task_id=f"t{i}", qubits=q, measured_qubits=1) for i, q in enumerate(qubits))
                wf = Workflow(id="w", tasks=tasks, edges=random_connected_dag(size, rng))
                if rng.random() < 0.5:
                    mapping = rng.sample(range(n), size)
                else:  # a walk along links, so that feasible mappings are common
                    mapping = [rng.randrange(n)]
                    for _ in range(1, size):
                        mapping.append(rng.choice(adjacency[mapping[-1]] or (mapping[-1],)))
                verdict = mapping_feasible(mapping, wf, net)
                assert verdict == links_feasible(mapping, wf, net)
                if wf.edges:
                    linked[verdict] += 1
        assert min(linked.values()) > 100, linked


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
            {"transmission_efficiency": 5e-324},
            {"transmission_efficiency": 1e-310},
            {"classical_latency": math.nan},
            {"classical_latency": math.inf},
        ],
        ids=[
            "linear-zero", "linear-negative", "linear-nan", "db-nan", "db-inf",
            "db-underflow", "db-overflow", "attenuation-underflow", "attenuation-least-subnormal",
            "attenuation-subnormal", "latency-nan", "latency-inf",
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
        assert validate_allocation(wf, net, Allocation({0: 0}))

    def test_non_adjacent_chain_false(self):
        wf = chain_workflow([5, 5])
        net = make_network([127, 127, 127], [(0, 1), (1, 2)])
        assert not validate_allocation(wf, net, Allocation({0: 0, 1: 2}))

    def test_qubit_capacity_false_by_direct_comparison(self):
        wf = chain_workflow([5, 150])
        net = make_network([127, 133], [(0, 1)])
        # direct oracle: 150 > 133 on the only adjacent option
        assert wf.tasks[1].qubits > net.nodes[1].qubits
        assert not validate_allocation(wf, net, Allocation({0: 0, 1: 1}))

    def test_non_injective_false(self):
        wf = chain_workflow([5, 5])
        net = make_network([127, 127], [(0, 1)])
        assert not validate_allocation(wf, net, Allocation({0: 0, 1: 0}))

    def test_incomplete_assignment_false(self):
        wf = chain_workflow([5, 5])
        net = make_network([127, 127], [(0, 1)])
        assert not validate_allocation(wf, net, Allocation({0: 0}))

    def test_structural_index_error_distinct_from_false(self):
        wf = chain_workflow([5])
        net = make_network([127], [])
        with pytest.raises(ValueError, match=r"^workflow wf: allocation references node index 5 out of range$"):
            validate_allocation(wf, net, Allocation({0: 5}))
        with pytest.raises(ValueError, match=r"^workflow wf: allocation references task index 7 out of range$"):
            validate_allocation(wf, net, Allocation({7: 0}))


class TestProfiles:
    def test_three_machines_with_eight_properties(self, profiles):
        assert sorted(profiles) == ["brisbane", "marrakesh", "torino"]
        for record in profiles.values():
            assert len(record) == 8

    def test_published_calibration_values(self, profiles):
        assert profiles["brisbane"]["qubits"] == 127
        assert profiles["torino"]["qubits"] == 133
        assert profiles["marrakesh"]["qubits"] == 156
        assert profiles["brisbane"]["two_qubit_error"] == pytest.approx(7.042e-3)
        # the file keeps the published gate times no cost term reads; loading drops them
        raw = json.loads(resources.files("qflow").joinpath("data/profiles.json").read_text(encoding="utf-8"))
        assert raw["torino"]["one_qubit_runtime"] == pytest.approx(32e-9)
        assert raw["marrakesh"]["readout_runtime"] == pytest.approx(2584e-9)
        assert profiles["brisbane"]["t1"] == pytest.approx(220.53e-6)
        assert profiles["marrakesh"]["readout_error"] == pytest.approx(1.074e-2)

    def test_node_factory(self, profiles):
        node = node_from_profile("torino", profiles, "torino-3")
        assert node.id == "torino-3"
        assert node.qubits == 133
        assert node.d1cps == profiles["torino"]["d1cps"]

    def test_env_var_is_not_read(self, tmp_path, monkeypatch, profiles):
        # only an explicit path replaces the bundled file
        custom = {"tiny": dict(profiles["brisbane"], qubits=7)}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv("QFLOW_PROFILES", str(path))
        assert load_profiles() == profiles
        assert load_profiles(path)["tiny"]["qubits"] == 7

    def test_byte_order_mark_is_skipped(self, tmp_path, profiles):
        path = tmp_path / "marked.json"
        path.write_bytes(codecs.BOM_UTF8 + json.dumps(profiles).encode())
        assert load_profiles(path) == profiles

    @pytest.mark.parametrize("field", ["two_qubit_runtime", "t1", "d1cps"])
    def test_nan_calibration_in_file_rejected(self, tmp_path, profiles, field):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"broken": dict(profiles["brisbane"], **{field: math.nan})}))
        assert f'"{field}": NaN' in path.read_text()
        with pytest.raises(ValueError, match=rf"{field} must be > 0 and finite, got nan"):
            node_from_profile("broken", load_profiles(path))

    @pytest.mark.parametrize(
        "qubits, message",
        [(127.9, r"^node broken: qubits must be a"), (True, r"^profile 'broken': qubits must be an int or float")],
        ids=["fractional", "bool"],
    )
    def test_non_whole_qubit_count_in_file_rejected(self, tmp_path, profiles, qubits, message):
        # converting would hide it: int(127.9) is 127 and int(True) is 1; the
        # node rejects a fraction, and loading the file already rejects a bool
        path = tmp_path / "bad-qubits.json"
        path.write_text(json.dumps({"broken": dict(profiles["brisbane"], qubits=qubits)}))
        with pytest.raises(ValueError, match=message):
            node_from_profile("broken", load_profiles(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"broken": {"qubits": 10}}))
        with pytest.raises(ValueError, match="missing fields"):
            load_profiles(path)
