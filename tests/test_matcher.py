"""Monomorphism enumerator tests, including brute-force oracle equivalence."""

from __future__ import annotations

import itertools
import random

import pytest

from qflow.allocators import SoftIsoConfig
from qflow.matcher import (
    _search_plan,
    enumerate_monomorphism_groups,
    enumerate_monomorphisms,
    mask_hosts,
    pattern_order,
    workflow_monomorphism_groups,
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
    """Reference for the group search: a plain list-domain backtracker that
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
            wf, network, _ = random_small_instance(rng)
            seen = set()
            for m in enumerate_monomorphisms(len(wf.tasks), wf.skeleton(), network):
                key = tuple(sorted(m.items()))
                assert key not in seen
                seen.add(key)
                assert len(set(m.values())) == len(m)


class TestFlatStream:
    """The group search, flattened, is the reference backtracker's stream,
    down to the key order of every dict."""

    @staticmethod
    def instances():
        rng = random.Random(77)
        for _ in range(150):
            wf, network, _ = random_small_instance(rng, max_tasks=5, max_nodes=8)
            yield wf, network, None
        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(2):
                workflows, network, _ = scenario_instances(scenario, seed, 4)
                for wf in workflows:
                    yield wf, network, 30_000

    def test_equals_reference_stream(self):
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


def reference_blocks(mappings, v):
    """The reference stream as blocks: consecutive mappings that differ
    only in ``v``'s host, as (prefix without ``v``, v, hosts)."""
    blocks = []
    for m in mappings:
        prefix = {w: h for w, h in m.items() if w != v}
        if blocks and list(blocks[-1][0].items()) == list(prefix.items()):
            blocks[-1][2].append(m[v])
        else:
            blocks.append((prefix, v, [m[v]]))
    return blocks


def unrolled(groups):
    """Groups unrolled by hand into (prefix copy, v, hosts) blocks."""
    blocks = []
    for prefix, u, v, pairs in groups:
        for h, mask in pairs:
            if u is not None:
                prefix[u] = h
            blocks.append((dict(prefix), v, mask_hosts(mask)))
    return blocks


class TestGroupStream:
    """Groups share all but the hosts of the last two visited vertices;
    unrolled, they are the reference stream's blocks and the flat stream,
    in order and down to key order."""

    @staticmethod
    def patterns():
        rng = random.Random(404)
        for _ in range(200):
            wf, network, _ = random_small_instance(rng, max_tasks=5, max_nodes=8)
            yield len(wf.tasks), wf.skeleton(), network, [t.qubits for t in wf.tasks]
        k6 = make_network([9, 4, 9, 9, 2, 9], [(a, b) for a in range(6) for b in range(a + 1, 6)])
        # star around 1, visited 1, 0, 2, 3: u = 2 and v = 3 are not adjacent
        yield 4, [(0, 1), (1, 2), (1, 3)], k6, None
        yield 2, [(0, 1)], k6, [5, 3]
        yield 1, [], k6, [3]

    def test_unrolled_groups_equal_blocks_and_flat_stream(self):
        leaves = 0
        for n, edges, network, caps in self.patterns():
            groups = unrolled(enumerate_monomorphism_groups(n, edges, network, caps))
            ref = list(reference_monomorphisms(n, edges, network, caps))
            expected = reference_blocks(ref, pattern_order(n, edges)[-1])
            assert groups == expected
            assert [list(prefix) for prefix, _, _ in groups] == [list(prefix) for prefix, _, _ in expected]
            flat = list(enumerate_monomorphisms(n, edges, network, caps))
            assert flat == ref and [list(m) for m in flat] == [list(m) for m in ref]
            leaves += len(ref)
        assert leaves > 4_000

    def test_pairs_ascend_with_nonzero_masks(self):
        groups = 0
        for n, edges, network, caps in self.patterns():
            order = pattern_order(n, edges)
            for prefix, u, v, pairs in enumerate_monomorphism_groups(n, edges, network, caps):
                assert v == order[-1]
                if n == 1:
                    assert (prefix, u, [h for h, _ in pairs]) == ({}, None, [None])
                else:
                    assert u == order[-2] and list(prefix) == order[:-2]
                    hosts = [h for h, _ in pairs]
                    assert hosts == sorted(set(hosts))
                    assert not set(hosts) & set(prefix.values())
                assert all(mask for _, mask in pairs)
                groups += 1
        assert groups > 500

    def test_v_not_adjacent_to_u_takes_hosts_off_u_links(self):
        # on a path host, the star's leaves 2 and 3 both hang off 1's host,
        # so 3's leaf hosts are never linked to 2's host
        path = make_network([5] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        edges = [(0, 1), (1, 2), (1, 3)]
        assert pattern_order(4, edges) == [1, 0, 2, 3]
        assert list(enumerate_monomorphism_groups(4, edges, path)) == []
        star = make_network([5] * 5, [(0, k) for k in range(1, 5)])
        groups = [
            (dict(prefix), u, v, [(h, mask_hosts(mask)) for h, mask in pairs])
            for prefix, u, v, pairs in enumerate_monomorphism_groups(4, edges, star)
        ]
        assert groups[0] == ({1: 0, 0: 1}, 2, 3, [(2, [3, 4]), (3, [2, 4]), (4, [2, 3])])
        assert len(groups) == 4 and sum(len(hosts) for g in groups for _, hosts in g[3]) == 24

    def test_one_and_two_task_patterns(self):
        host = make_network([5, 3, 5, 5], [(0, 1), (1, 2), (2, 3)])

        def decoded(groups):
            return [(dict(p), u, v, [(h, mask_hosts(m)) for h, m in pairs]) for p, u, v, pairs in groups]

        assert decoded(enumerate_monomorphism_groups(1, [], host)) == [({}, None, 0, [(None, [0, 1, 2, 3])])]
        assert decoded(enumerate_monomorphism_groups(1, [], host, min_qubits=[4])) == [
            ({}, None, 0, [(None, [0, 2, 3])])
        ]
        assert decoded(enumerate_monomorphism_groups(1, [], host, min_qubits=[6])) == []
        assert decoded(enumerate_monomorphism_groups(2, [(0, 1)], host, min_qubits=[4, 1])) == [
            ({}, 0, 1, [(0, [1]), (2, [1, 3]), (3, [2])])
        ]
        wf = chain_workflow([4, 1])
        assert decoded(workflow_monomorphism_groups(wf, host)) == decoded(
            enumerate_monomorphism_groups(2, [(0, 1)], host, min_qubits=[4, 1])
        )


class TestDeterminism:
    def test_two_runs_identical_sequence(self):
        rng = random.Random(9)
        for _ in range(25):
            wf, network, _ = random_small_instance(rng)
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


class TestSearchPlan:
    """The skeleton-only plan is cached across workflows and networks; the
    qubit domains come from the network's calibration classes."""

    @staticmethod
    def groups(wf, network):
        return [
            (list(prefix.items()), u, v, list(pairs))
            for prefix, u, v, pairs in workflow_monomorphism_groups(wf, network)
        ]

    def test_cached_plans_give_the_groups_of_fresh_plans(self):
        instances = [scenario_instances("LP-LR", seed, 40)[:2] for seed in range(2)]
        hits = _search_plan.cache_info().hits
        warm = [self.groups(wf, network) for workflows, _ in instances for _, network in instances for wf in workflows]
        # both networks run every skeleton, so at least the second reads each plan
        assert _search_plan.cache_info().hits - hits >= 80
        fresh = []
        for workflows, _ in instances:
            for _, network in instances:
                for wf in workflows:
                    _search_plan.cache_clear()
                    fresh.append(self.groups(wf, network))
        assert warm == fresh
        assert sum(map(len, fresh)) > 100

    def test_plan_cache_is_bounded(self):
        maxsize = _search_plan.cache_info().maxsize
        assert maxsize is not None and maxsize >= 32
        path = [(k, k + 1) for k in range(6)]
        for edges in itertools.islice(itertools.permutations(path), maxsize + 10):
            assert pattern_order(7, edges) == [1, 0, 2, 3, 4, 5, 6]
        assert _search_plan.cache_info().currsize == maxsize

    def test_class_mask_domains_equal_per_node_filter(self):
        rng = random.Random(31)
        networks = [random_small_instance(rng, max_nodes=8)[1] for _ in range(20)]
        networks += [scenario_instances(s, seed, 1)[1] for s in ("LP-LR", "LP-MR") for seed in range(2)]
        networks.append(make_network([5, 3, 5, 5, 3], [(0, 1), (1, 2), (2, 3), (3, 4)]))
        for network in networks:
            assert len(network.calibration_classes[0]) <= len(network.nodes)
            everything = (1 << len(network.nodes)) - 1
            assert list(enumerate_monomorphism_groups(1, [], network)) == [({}, None, 0, [(None, everything)])]
            for q in {0, 1} | {node.qubits + d for node in network.nodes for d in (-1, 0, 1)}:
                fits = sum(1 << k for k, node in enumerate(network.nodes) if node.qubits >= q)
                groups = list(enumerate_monomorphism_groups(1, [], network, min_qubits=[q]))
                assert groups == ([({}, None, 0, [(None, fits)])] if fits else [])


class TestMappingFeasible:
    def test_enumerated_mappings_pass_adjacency_by_construction(self):
        # soft_iso accepts stream mappings unchecked, so every one up to its
        # default budget must be injective and feasible on the preset draws
        rng = random.Random(5)
        instances = [(wf, network, 20) for wf, network, _ in (random_small_instance(rng) for _ in range(30))]
        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(3):
                workflows, network, _ = scenario_instances(scenario, seed, 5)
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
            wf, network, _ = random_small_instance(rng)
            pruned = [
                tuple(sorted(m.items())) for m in workflow_monomorphisms(wf, network)
            ]
            unpruned_feasible = [
                tuple(sorted(m.items()))
                for m in enumerate_monomorphisms(len(wf.tasks), wf.skeleton(), network)
                if mapping_feasible(m, wf, network)
            ]
            assert sorted(pruned) == sorted(unpruned_feasible)
