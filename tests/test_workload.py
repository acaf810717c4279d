"""Workload and topology generator tests: formulas, determinism, structure."""

from __future__ import annotations

import codecs
import math
import random
import tracemalloc

import pytest

from qflow import workload
from qflow.model import PROGRAM_FAMILIES, ResourceNetwork, TaskSpec, components
from qflow.profiles import node_from_profile
from qflow.workload import (
    GRAPH_STATE_CHORD_PROB,
    RANDOM_CIRCUIT_DEPTH_BAND,
    WORKFLOW_CHORD_PROB,
    TopologySpec,
    WorkloadSpec,
    export_task_catalog,
    generate_catalog,
    generate_network,
    generate_task,
    generate_workload,
    import_task_catalog,
    random_connected_dag,
)

from .conftest import is_connected, reference_kahn


def reference_generate_task(family, n, rng, shots=1000, task_id=None):
    """``generate_task`` with the graph-state chords drawn by a walk of every
    pair (i, j), one draw per pair with j >= i + 2 other than the ring's
    closing pair (0, n-1), and a random circuit's depth by ``rng.randint``;
    the other families draw nothing and are ``generate_task``'s own."""
    if family == "randomcircuit":
        depth = rng.randint(*RANDOM_CIRCUIT_DEPTH_BAND)
        return TaskSpec(
            id=task_id or f"randomcircuit-{n}", qubits=n, depth=depth, two_qubit_gates=depth * n // 2,
            measured_qubits=n, shots=shots, program_family="randomcircuit",
        )
    if family != "graphstate":
        return generate_task(family, n, rng, shots=shots, task_id=task_id)
    chords = 0
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # ring edge
            if rng.random() < GRAPH_STATE_CHORD_PROB:
                chords += 1
    g2 = (n if n >= 3 else (1 if n == 2 else 0)) + chords
    return TaskSpec(
        id=task_id or f"graphstate-{n}", qubits=n, depth=2 + math.ceil(2 * g2 / n), two_qubit_gates=g2,
        measured_qubits=n, shots=shots, program_family="graphstate",
    )


def reference_catalog(size, qubit_range=(5, 100), seed=0):
    rng = random.Random(seed)
    catalog = []
    for i in range(size):
        family = rng.choice(PROGRAM_FAMILIES)
        qubits = rng.randint(*qubit_range)
        catalog.append(reference_generate_task(family, qubits, rng, task_id=f"{family}-{qubits}-{i}"))
    return catalog


def reference_dag(n, rng):
    """``random_connected_dag`` drawn with ``rng``'s own methods: each task
    after the first depends on ``rng.randrange(i)``, then each other forward
    pair is a chord when ``rng.random()`` falls under the probability."""
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < WORKFLOW_CHORD_PROB:
                edges.add((i, j))
    return frozenset(edges)


def reference_workload(spec, catalog):
    """(id, tasks, edges, arrival time, topological order) of each workflow,
    drawn with ``rng``'s own ``expovariate``, ``randint`` and ``choice`` and
    :func:`reference_dag`, the order by Kahn's algorithm."""
    lo, hi = spec.qubit_range
    filtered = [t for t in catalog if lo <= t.qubits <= hi]
    rng = random.Random(spec.seed)
    clock = 0.0
    rows = []
    for i in range(spec.batch_size):
        clock += rng.expovariate(spec.effective_rate)
        count = rng.randint(spec.tasks_per_group_min, spec.tasks_per_group)
        tasks = tuple(rng.choice(filtered) for _ in range(count))
        edges = reference_dag(count, rng)
        rows.append((f"wf-{i:04d}", tasks, edges, clock, tuple(reference_kahn(count, edges))))
    return rows


def reference_prufer_edges(prufer, m):
    """The labelled tree of a Prufer sequence over m vertices: each entry
    joins the least remaining leaf, and the last two leaves close it."""
    degree = [1] * m
    for v in prufer:
        degree[v] += 1
    edges = []
    for v in prufer:
        leaf = min(u for u in range(m) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(m) if degree[u] == 1))
    return edges


def reference_network(spec, profiles):
    """``generate_network`` drawn with ``rng``'s own ``choice``, ``random``
    and ``randrange``, the components joined along the tree of a Prufer
    sequence of ``randrange`` draws."""
    rng = random.Random(spec.seed)
    nodes = []
    for k in range(spec.node_count):
        name = rng.choice(spec.profile_pool)
        nodes.append(node_from_profile(name, profiles, node_id=f"{name}-{k}"))
    n = spec.node_count
    links = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < spec.link_probability}
    members = components(n, links)
    if len(members) > 1:
        m = len(members)
        for ca, cb in reference_prufer_edges([rng.randrange(m) for _ in range(m - 2)], m):
            a = rng.choice(members[ca])
            b = rng.choice(members[cb])
            links.add((min(a, b), max(a, b)))
    return ResourceNetwork(nodes=tuple(nodes), links=frozenset(links))


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
        # TaskSpec makes the check, naming the task, and no draw is made first
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"^task teleport-5: unknown program family 'teleport'$"):
            generate_task("teleport", 5, rng)
        assert rng.getstate() == state

    def test_all_families_produce_valid_tasks(self):
        rng = random.Random(1)
        for family in PROGRAM_FAMILIES:
            for n in (1, 2, 5, 50, 100):
                t = generate_task(family, n, rng)
                assert t.qubits == n
                assert t.depth >= 1 and t.shots >= 1
                assert 0 <= t.measured_qubits <= t.qubits

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_family_matches_reference_draws(self, seed, monkeypatch):
        # equal tasks and an equal generator state, so later draws agree too.
        # Graph-state draws are read _CHORD_CHUNK at a time: the patched read
        # sizes put a 50-qubit task's draws one short of, at and one past a
        # read's end, and 120 qubits past two reads; 131 qubits' 8,255 draws
        # pass two reads of the module's own size
        fifty = 49 * 48 // 2 - 1
        assert 2 * workload._CHORD_CHUNK < 130 * 129 // 2 - 1 and 2 * (fifty + 1) < 119 * 118 // 2 - 1
        for chunk in (workload._CHORD_CHUNK, fifty + 1, fifty, fifty - 1):
            monkeypatch.setattr(workload, "_CHORD_CHUNK", chunk)
            rng, ref = random.Random(seed), random.Random(seed)
            for family in PROGRAM_FAMILIES:
                for n in (*range(1, 121), 131):
                    assert generate_task(family, n, rng) == reference_generate_task(family, n, ref)
                    assert rng.getstate() == ref.getstate()

    def test_boundary_byte_draws_count_as_random_does(self):
        # a draw whose first word's top byte is 25 lies in [25/256, 26/256),
        # which holds the probability; it is counted by its exact value
        assert 25 / 256 < GRAPH_STATE_CHORD_PROB < 26 / 256
        n, draws = 40, 39 * 38 // 2 - 1
        edge_draws = edge_chords = 0
        for seed in range(300):
            rng, ref = random.Random(seed), random.Random(seed)
            values = [ref.random() for _ in range(draws)]
            chords = sum(x < GRAPH_STATE_CHORD_PROB for x in values)
            assert generate_task("graphstate", n, rng).two_qubit_gates == n + chords
            edge = [x for x in values if int(x * 256) == 25]
            edge_draws += len(edge)
            edge_chords += sum(x < GRAPH_STATE_CHORD_PROB for x in edge)
        assert 0 < edge_chords < edge_draws  # boundary draws met on both sides of the probability

    def test_graph_state_draws_are_read_in_bounded_memory(self):
        # 2,000 qubits draw 1,997,000 times, 16 MB of words and as many bytes
        # in one read; read a few thousand at a time, the peak is about 0.11 MB
        rng = random.Random(0)
        tracemalloc.start()
        try:
            generate_task("graphstate", 2000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

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

    def test_byte_order_mark_is_skipped_and_never_written(self, tmp_path):
        catalog = generate_catalog(20, seed=5)
        path = tmp_path / "catalog.csv"
        export_task_catalog(catalog, path)
        plain = path.read_bytes()
        assert not plain.startswith(codecs.BOM_UTF8)
        marked = tmp_path / "marked.csv"  # as spreadsheet and editor exports often start
        marked.write_bytes(codecs.BOM_UTF8 + plain)
        assert import_task_catalog(marked) == import_task_catalog(path) == catalog

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

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "id,family,qubits,depth,two_qubit_gates,measured_qubits,shots\n"
            "\n"
            "a,ghz,5,6,4,5,1000\n"
            " , ,,,,,\n"
            "b,qft,3,6,3,3,100\n"
        )
        assert [t.id for t in import_task_catalog(path)] == ["a", "b"]

    @pytest.mark.parametrize("row", ["x,ghz,5,6,4,5", "x,ghz,5,6,4,5,1000,7"], ids=["short", "long"])
    def test_wrong_field_count_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("id,family,qubits,depth,two_qubit_gates,measured_qubits,shots\n\n" + row + "\n")
        with pytest.raises(ValueError, match=r"bad.csv: line 3: expected 7 fields$"):
            import_task_catalog(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="line 1"):
            import_task_catalog(path)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WorkloadSpec(tasks_per_group=6), r"tasks_per_group must be in \[1, 5\]"),
        (lambda: TopologySpec(link_probability=-0.1), r"link_probability must be in \[0, 1\]"),
        (lambda: TopologySpec(link_probability=1.5), r"link_probability must be in \[0, 1\]"),
        (lambda: TopologySpec(link_probability=math.nan), r"link_probability must be in \[0, 1\]"),
        (lambda: TopologySpec(profile_pool=()), "profile_pool must be nonempty"),
    ],
    ids=["six-tasks", "negative-rho", "rho-above-one", "nan-rho", "empty-pool"],
)
def test_spec_out_of_range_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestGenerateWorkload:
    @pytest.mark.parametrize("qubit_range", [(5, 100), (7, 7), (1, 3), (2, 64), (5, 20)])
    def test_catalog_draws_match_random_methods(self, qubit_range):
        # spans of one (a draw below 1 still reads a word), a power of two
        # and others; the reference draws through choice and randint
        for seed in range(10):
            assert generate_catalog(60, qubit_range, seed=seed) == reference_catalog(60, qubit_range, seed=seed)

    @pytest.mark.parametrize("qubit_range", [(10, 5), (0, 5), (5.5, 10)], ids=["empty", "zero-qubits", "fractional"])
    def test_catalog_refuses_a_bad_qubit_range(self, qubit_range):
        with pytest.raises(ValueError, match="qubit_range"):
            generate_catalog(3, qubit_range)

    @pytest.mark.parametrize("seed", [0, 3, 4242])
    def test_catalog_and_workload_match_reference(self, seed):
        catalog = generate_catalog(128, seed=seed)
        assert catalog == reference_catalog(128, seed=seed)
        spec = WorkloadSpec(batch_size=300, tasks_per_group=5, seed=seed + 1)
        rows = [(wf.id, wf.tasks, wf.edges, wf.arrival_time, wf.topological_order)
                for wf in generate_workload(spec, catalog)]
        assert rows == reference_workload(spec, catalog)

    @pytest.mark.parametrize(
        "batch_size, per_group, least, qubit_range",
        [(3000, 3, 1, (5, 100)), (300, 5, 2, (5, 100)), (300, 4, 1, (5, 40))],
        ids=["sim-churn-shape", "two-to-five-tasks", "filtered-catalog"],
    )
    @pytest.mark.parametrize("seed", [1, 2, 4242])
    def test_workload_draws_match_random_methods(self, seed, batch_size, per_group, least, qubit_range):
        # the reference draws through expovariate, randint, choice and
        # randrange themselves; arrival floats must be equal, not close
        catalog = generate_catalog(128, seed=seed + 2)
        spec = WorkloadSpec(batch_size=batch_size, tasks_per_group=per_group, tasks_per_group_min=least,
                            qubit_range=qubit_range, seed=seed)
        if qubit_range == (5, 40):
            filtered = sum(5 <= t.qubits <= 40 for t in catalog)
            assert filtered & (filtered - 1), "the filtered catalog's length must not be a power of two"
        rows = [(wf.id, wf.tasks, wf.edges, wf.arrival_time, wf.topological_order)
                for wf in generate_workload(spec, catalog)]
        assert rows == reference_workload(spec, catalog)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 9, 17])
    def test_dag_draws_match_random_methods(self, n):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_connected_dag(n, rng) == reference_dag(n, ref)
            assert rng.getstate() == ref.getstate()

    def test_single_task_groups_have_no_edges(self):
        catalog = generate_catalog(30, seed=2)
        spec = WorkloadSpec(batch_size=20, tasks_per_group=1, seed=3)
        for wf in generate_workload(spec, catalog):
            assert len(wf.tasks) == 1
            assert wf.edges == frozenset()

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, "x", [1]])
    def test_nonpositive_and_nan_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="arrival_rate must be > 0"):
            WorkloadSpec(arrival_rate=rate)

    @pytest.mark.parametrize("qubit_range", [5, None, (5,), (5, 10, 20), "x"])
    def test_qubit_range_that_is_no_pair_rejected(self, qubit_range):
        with pytest.raises(ValueError, match="qubit_range must be a pair of qubit counts"):
            WorkloadSpec(qubit_range=qubit_range)

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

    def test_seed_determinism_byte_for_byte(self):
        catalog = generate_catalog(40, seed=4)
        spec = WorkloadSpec(batch_size=15, tasks_per_group=4, seed=77)
        assert generate_workload(spec, catalog) == generate_workload(spec, catalog)

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


class TestDraws:
    """The generators inline ``Random.randrange(n)``'s loop, one
    ``getrandbits(n.bit_length())`` drawn again while it is n or more, and
    ``expovariate``'s body; a Python whose ``Random`` draws otherwise fails
    here first, by name."""

    @staticmethod
    def below(n, getrandbits):
        # the loop the catalog, workload and DAG builders write inline
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    @pytest.mark.parametrize("seed", [0, 1, 7, 4242])
    def test_inline_loop_is_randrange(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            assert self.below(n, rng.getrandbits) == ref.randrange(n)
            assert rng.getstate() == ref.getstate()
            seq = tuple(range(n))
            assert seq[self.below(n, rng.getrandbits)] == ref.choice(seq)
            assert 3 + self.below(n, rng.getrandbits) == ref.randint(3, 3 + n - 1)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("rate", [1e-3, 0.5, 1.0, 10.0, 1e9])
    def test_exponential_gap_is_expovariate(self, rate):
        rng, ref = random.Random(rate), random.Random(rate)
        for _ in range(500):
            assert -math.log(1.0 - rng.random()) / rate == ref.expovariate(rate)
        assert rng.getstate() == ref.getstate()


class TestGenerateNetwork:
    @pytest.mark.parametrize(
        "node_count, rho, pool",
        [(5, 0.5, ("brisbane", "torino", "marrakesh")), (20, 0.9, ("torino",)), (12, 0.1, ("brisbane", "torino")),
         (30, 0.05, ("brisbane", "torino", "marrakesh")), (1, 0.5, ("marrakesh",))],
        ids=["default", "one-profile", "two-profiles-sparse", "many-components", "one-node"],
    )
    def test_draws_match_random_methods(self, profiles, node_count, rho, pool):
        for seed in range(30):
            spec = TopologySpec(node_count=node_count, link_probability=rho, profile_pool=pool, seed=seed)
            net, ref = generate_network(spec, profiles), reference_network(spec, profiles)
            assert (net.nodes, net.links) == (ref.nodes, ref.links)

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
