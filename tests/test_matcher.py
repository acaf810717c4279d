"""Monomorphism enumerator tests, including brute-force oracle equivalence."""

from __future__ import annotations

import itertools
import random

import pytest

from qflow.allocators import SoftIsoConfig
from qflow.matcher import (
    enumerate_monomorphism_blocks,
    enumerate_monomorphisms,
    mask_hosts,
    pattern_order,
    workflow_monomorphism_blocks,
    workflow_monomorphisms,
)
from qflow.model import mapping_feasible

from .conftest import chain_workflow, make_network, random_small_instance, scenario_instances


def brute_force_monomorphisms(pattern_size, pattern_edges, network, min_qubits=None):
    """Oracle: filter all injective index tuples by adjacency preservation."""
    edges = {(min(a, b), max(a, b)) for a, b in pattern_edges}
    found = []
    for tup in itertools.permutations(range(len(network.nodes)), pattern_size):
        ok = all(network.has_link(tup[a], tup[b]) for a, b in edges)
        if ok and min_qubits is not None:
            ok = all(network.nodes[tup[v]].qubits >= min_qubits[v] for v in range(pattern_size))
        if ok:
            found.append({v: tup[v] for v in range(pattern_size)})
    return found


def reference_monomorphisms(pattern_size, pattern_edges, host, min_qubits=None):
    """Reference for the block search: a plain list-domain backtracker that
    yields one dict per leaf, keyed in visit order, with hosts ascending
    along the visit order."""
    edges = {(min(a, b), max(a, b)) for a, b in pattern_edges}
    order = pattern_order(pattern_size, edges)
    adj = {i: set() for i in range(pattern_size)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    domain = [
        [h for h, node in enumerate(host.nodes) if min_qubits is None or node.qubits >= min_qubits[v]]
        for v in range(pattern_size)
    ]
    adjacency = host.adjacency()
    neighbours = [frozenset(adjacency[h]) for h in range(len(host.nodes))]
    depth_of = {v: d for d, v in enumerate(order)}
    earlier = [[p for p in adj[v] if depth_of[p] < d] for d, v in enumerate(order)]
    last = pattern_size - 1
    mapping = {}
    used = set()

    def extend(depth):
        v = order[depth]
        pool = domain[v]
        for p in earlier[depth]:
            linked = neighbours[mapping[p]]
            pool = [h for h in pool if h in linked]
        if depth == last:
            for h in pool:
                if h not in used:
                    mapping[v] = h
                    yield dict(mapping)
            mapping.pop(v, None)
            return
        for h in pool:
            if h in used:
                continue
            mapping[v] = h
            used.add(h)
            yield from extend(depth + 1)
            del mapping[v]
            used.remove(h)

    return extend(0)


class TestExamples:
    def test_two_node_path_into_triangle_gives_six(self):
        k3 = make_network([10, 10, 10], [(0, 1), (0, 2), (1, 2)])
        got = list(enumerate_monomorphisms(2, [(0, 1)], k3))
        assert len(got) == 6
        assert got == brute_force_monomorphisms(2, [(0, 1)], k3) or sorted(
            tuple(sorted(m.items())) for m in got
        ) == sorted(tuple(sorted(m.items())) for m in brute_force_monomorphisms(2, [(0, 1)], k3))

    def test_single_vertex_pattern_yields_every_node(self):
        host = make_network([5, 5, 5, 5], [(0, 1), (1, 2), (2, 3)])
        got = list(enumerate_monomorphisms(1, [], host))
        assert got == [{0: 0}, {0: 1}, {0: 2}, {0: 3}]

    def test_triangle_into_path_yields_nothing(self):
        path = make_network([5, 5, 5], [(0, 1), (1, 2)])
        got = list(enumerate_monomorphisms(3, [(0, 1), (1, 2), (0, 2)], path))
        assert got == []

    def test_monomorphism_allows_extra_host_links(self):
        # pattern path 0-1-2 embeds into K3 even though the images carry an
        # extra link
        k3 = make_network([5, 5, 5], [(0, 1), (0, 2), (1, 2)])
        loose = list(enumerate_monomorphisms(3, [(0, 1), (1, 2)], k3))
        assert len(loose) == 6

    def test_disconnected_pattern_rejected(self):
        host = make_network([5, 5], [(0, 1)])
        with pytest.raises(ValueError, match="connected"):
            list(enumerate_monomorphisms(2, [], host))


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(300):
            n_pat = rng.randint(1, 4)
            n_host = rng.randint(1, 6)
            host_links = {
                (a, b)
                for a in range(n_host)
                for b in range(a + 1, n_host)
                if rng.random() < 0.5
            }
            host = make_network([rng.randint(1, 9) for _ in range(n_host)], host_links)
            pat_edges = set()
            for i in range(1, n_pat):
                pat_edges.add((rng.randrange(i), i))
            for i in range(n_pat):
                for j in range(i + 1, n_pat):
                    if rng.random() < 0.3:
                        pat_edges.add((i, j))
            caps = [rng.randint(1, 9) for _ in range(n_pat)] if rng.random() < 0.5 else None
            got = list(enumerate_monomorphisms(n_pat, pat_edges, host, min_qubits=caps))
            expected = brute_force_monomorphisms(n_pat, pat_edges, host, caps)
            key = lambda m: tuple(sorted(m.items()))
            assert sorted(map(key, got)) == sorted(map(key, expected))
            assert len(got) == len(expected)  # exhaustive, no duplicates
            # with the set fixed, this pins the exact sequence: hosts ascend
            # lexicographically along the pattern visit order
            order = pattern_order(n_pat, pat_edges)
            visit = lambda m: tuple(m[v] for v in order)
            unpruned = list(enumerate_monomorphisms(n_pat, pat_edges, host))
            for stream in (got, unpruned):
                assert [visit(m) for m in stream] == sorted(visit(m) for m in stream)

    def test_no_duplicates_and_injective(self):
        rng = random.Random(1)
        for _ in range(50):
            wf, network = random_small_instance(rng)
            seen = set()
            for m in enumerate_monomorphisms(len(wf.tasks), wf.skeleton(), network):
                key = tuple(sorted(m.items()))
                assert key not in seen
                seen.add(key)
                assert len(set(m.values())) == len(m)


class TestBlockStream:
    """The block search, flattened, is the reference backtracker's stream,
    down to the key order of every dict."""

    @staticmethod
    def instances():
        rng = random.Random(77)
        for _ in range(150):
            wf, network = random_small_instance(rng, max_tasks=5, max_nodes=8)
            yield wf, network, None
        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(2):
                workflows, network = scenario_instances(scenario, seed, 4)
                for wf in workflows:
                    yield wf, network, 30_000

    def test_flattened_blocks_equal_reference_stream(self):
        compared = 0
        for wf, network, limit in self.instances():
            caps = [t.qubits for t in wf.tasks]
            for got, ref in (
                (workflow_monomorphisms(wf, network),
                 reference_monomorphisms(len(wf.tasks), wf.skeleton(), network, caps)),
                (enumerate_monomorphisms(len(wf.tasks), wf.skeleton(), network),
                 reference_monomorphisms(len(wf.tasks), wf.skeleton(), network)),
            ):
                got = list(itertools.islice(got, limit))
                ref = list(itertools.islice(ref, limit))
                assert got == ref
                assert [list(m) for m in got] == [list(m) for m in ref]
                compared += len(ref)
        assert compared > 100_000

    def test_blocks_are_nonempty_ascending_and_share_one_leaf(self):
        blocks = 0
        for wf, network, limit in self.instances():
            order = pattern_order(len(wf.tasks), wf.skeleton())
            leaves = 0
            for prefix, v, mask in workflow_monomorphism_blocks(wf, network):
                hosts = mask_hosts(mask)
                assert v == order[-1]
                assert list(prefix) == order[:-1]
                assert hosts and hosts == sorted(set(hosts))
                assert not set(hosts) & set(prefix.values())
                blocks += 1
                leaves += len(hosts)
                if limit is not None and leaves >= limit:
                    break
        assert blocks > 1_000

    def test_single_vertex_pattern_is_one_block(self):
        host = make_network([5, 3, 5, 5], [(0, 1), (1, 2), (2, 3)])
        def decoded(blocks):
            return [(prefix, v, mask_hosts(mask)) for prefix, v, mask in blocks]

        assert decoded(enumerate_monomorphism_blocks(1, [], host)) == [({}, 0, [0, 1, 2, 3])]
        assert decoded(enumerate_monomorphism_blocks(1, [], host, min_qubits=[4])) == [({}, 0, [0, 2, 3])]
        assert decoded(enumerate_monomorphism_blocks(1, [], host, min_qubits=[6])) == []


class TestDeterminism:
    def test_two_runs_identical_sequence(self):
        rng = random.Random(9)
        for _ in range(25):
            wf, network = random_small_instance(rng)
            first = list(workflow_monomorphisms(wf, network))
            second = list(workflow_monomorphisms(wf, network))
            assert first == second

    def test_pattern_order_highest_degree_root_then_bfs(self):
        # star: vertex 1 has degree 3
        order = pattern_order(4, [(0, 1), (1, 2), (1, 3)])
        assert order[0] == 1
        assert sorted(order) == [0, 1, 2, 3]
        # chain: middle vertex of a 3-chain has degree 2
        assert pattern_order(3, [(0, 1), (1, 2)])[0] == 1


class TestMappingFeasible:
    def test_enumerated_mappings_pass_adjacency_by_construction(self):
        # soft_iso accepts stream mappings unchecked, so every one up to its
        # default budget must be injective and feasible on the preset draws
        rng = random.Random(5)
        instances = [(wf, network, 20) for wf, network in (random_small_instance(rng) for _ in range(30))]
        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(3):
                workflows, network = scenario_instances(scenario, seed, 5)
                instances += [(wf, network, SoftIsoConfig().cap(len(wf.tasks))) for wf in workflows]
        for wf, network, cap in instances:
            for m in itertools.islice(workflow_monomorphisms(wf, network), int(cap)):
                assert len(set(m.values())) == len(wf.tasks)
                assert mapping_feasible(m, wf, network)

    def test_qubit_violation_detected(self):
        wf = chain_workflow([140, 5])
        net = make_network([133, 133], [(0, 1)])
        assert not mapping_feasible({0: 0, 1: 1}, wf, net)

    def test_capacious_tasks_fit_all_published_machines(self, profiles):
        assert all(5 <= p["qubits"] for p in profiles.values())

    def test_in_search_pruning_preserves_feasible_set(self):
        rng = random.Random(17)
        for _ in range(60):
            wf, network = random_small_instance(rng)
            pruned = [
                tuple(sorted(m.items())) for m in workflow_monomorphisms(wf, network)
            ]
            unpruned_feasible = [
                tuple(sorted(m.items()))
                for m in enumerate_monomorphisms(len(wf.tasks), wf.skeleton(), network)
                if mapping_feasible(m, wf, network)
            ]
            assert sorted(pruned) == sorted(unpruned_feasible)
