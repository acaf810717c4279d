"""Monomorphism enumerator tests, including brute-force oracle equivalence."""

from __future__ import annotations

import itertools
import math
import random

from qflow import allocators, matcher
from qflow.allocators import EXHAUSTIVE, SoftIsoConfig, soft_iso
from qflow.matcher import (
    REPLAY_MAX_GROUPS,
    _group_bound,
    _groups,
    _search_plan,
    group_blocks,
    group_size,
    mask_hosts,
    task_domains,
    workflow_monomorphisms,
)
from qflow.model import NetworkParams, WeightConfig, components, mapping_feasible
from qflow.workload import random_connected_dag

from .conftest import (
    chain_workflow,
    make_network,
    pattern_workflow,
    random_small_instance,
    scenario_instances,
    unrolled,
)


def visit_order(wf):
    """The search's visit order of the workflow's tasks."""
    return list(_search_plan(len(wf.tasks), wf.skeleton)[0])


def uncapped(wf):
    """The workflow's skeleton with 1-qubit tasks, which every node fits."""
    return pattern_workflow(len(wf.tasks), wf.skeleton)


def brute_force_monomorphisms(wf, network):
    """Oracle: filter all injective index tuples by adjacency preservation
    and qubit capacity. Edges are looked up in ``network.links``, not in the
    neighbour masks that the matcher and ``mapping_feasible`` search with."""
    n = len(wf.tasks)
    found = []
    for tup in itertools.permutations(range(len(network.nodes)), n):
        ok = all((min(tup[a], tup[b]), max(tup[a], tup[b])) in network.links for a, b in wf.skeleton)
        if ok and all(network.nodes[tup[v]].qubits >= wf.tasks[v].qubits for v in range(n)):
            found.append({v: tup[v] for v in range(n)})
    return found


def reference_monomorphisms(wf, host):
    """Reference for the group search: a plain list-domain backtracker that
    yields one dict per leaf, keyed in visit order, with hosts ascending
    along the visit order."""
    pattern_size = len(wf.tasks)
    order = visit_order(wf)
    adj = {i: set() for i in range(pattern_size)}
    for a, b in wf.skeleton:
        adj[a].add(b)
        adj[b].add(a)
    domain = [[h for h, node in enumerate(host.nodes) if node.qubits >= task.qubits] for task in wf.tasks]
    neighbours = [frozenset(mask_hosts(mask)) for mask in host.neighbour_masks]
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
        wf = pattern_workflow(2, [(0, 1)])
        got = list(unrolled(wf, k3))
        assert len(got) == 6
        assert got == brute_force_monomorphisms(wf, k3) or sorted(
            tuple(sorted(m.items())) for m in got
        ) == sorted(tuple(sorted(m.items())) for m in brute_force_monomorphisms(wf, k3))

    def test_single_vertex_pattern_yields_every_node(self):
        host = make_network([5, 5, 5, 5], [(0, 1), (1, 2), (2, 3)])
        got = list(unrolled(pattern_workflow(1, []), host))
        assert got == [{0: 0}, {0: 1}, {0: 2}, {0: 3}]

    def test_triangle_into_path_yields_nothing(self):
        path = make_network([5, 5, 5], [(0, 1), (1, 2)])
        got = list(unrolled(pattern_workflow(3, [(0, 1), (1, 2), (0, 2)]), path))
        assert got == []

    def test_monomorphism_allows_extra_host_links(self):
        # pattern path 0-1-2 embeds into K3 even though the images carry an
        # extra link
        k3 = make_network([5, 5, 5], [(0, 1), (0, 2), (1, 2)])
        loose = list(unrolled(pattern_workflow(3, [(0, 1), (1, 2)]), k3))
        assert len(loose) == 6


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
            wf = pattern_workflow(n_pat, pat_edges, caps)
            got = list(unrolled(wf, host))
            expected = brute_force_monomorphisms(wf, host)
            key = lambda m: tuple(sorted(m.items()))
            assert sorted(map(key, got)) == sorted(map(key, expected))
            assert len(got) == len(expected)  # exhaustive, no duplicates
            # with the set fixed, this pins the exact sequence: hosts ascend
            # lexicographically along the pattern visit order
            order = visit_order(wf)
            visit = lambda m: tuple(m[v] for v in order)
            unpruned = list(unrolled(uncapped(wf), host))
            for stream in (got, unpruned):
                assert [visit(m) for m in stream] == sorted(visit(m) for m in stream)

    def test_no_duplicates_and_injective(self):
        rng = random.Random(1)
        for _ in range(50):
            wf, network, _ = random_small_instance(rng)
            seen = set()
            for m in unrolled(uncapped(wf), network):
                key = tuple(sorted(m.items()))
                assert key not in seen
                seen.add(key)
                assert len(set(m.values())) == len(m)


class TestFlatStream:
    """The group stream, unrolled, is the reference backtracker's stream,
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

    def test_equals_reference_stream(self, monkeypatch):
        # every key stored at its first read, then every key searched lazily at every read
        compared, sizes = 0, {True: set(), False: set()}
        for stored, replay_max in ((True, math.inf), (False, -1)):
            monkeypatch.setattr(matcher, "REPLAY_MAX_GROUPS", replay_max)
            for wf, network, limit in self.instances():
                for pattern in (wf, uncapped(wf)):
                    ref = list(itertools.islice(reference_monomorphisms(pattern, network), limit))
                    for _ in range(1 + stored):  # the first read, then a stored key's replay
                        got = list(itertools.islice(unrolled(pattern, network), limit))
                        assert got == ref
                        assert [list(m) for m in got] == [list(m) for m in ref]
                        compared += len(ref)
                    assert (network.group_streams[stream_key(pattern, network)] is not False) == stored
                    sizes[stored].add(len(pattern.tasks))
        assert compared > 300_000 and sizes[True] == sizes[False] == {1, 2, 3, 4, 5}


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


def blocks_of(group):
    """A group's (host of u, leaf mask) blocks."""
    return group_blocks(*group[3:])


def unrolled_blocks(groups):
    """Groups unrolled by hand into (prefix copy, v, hosts) blocks, leaving
    the read-only prefix as it is. A one-task group's ``u`` is ``v``, whose
    host the block varies, so ``v`` is left out of the copy."""
    blocks = []
    for group in groups:
        prefix, u, v = group[:3]
        for h, mask in blocks_of(group):
            blocks.append(({w: k for w, k in {**prefix, u: h}.items() if w != v}, v, mask_hosts(mask)))
    return blocks


class TestGroupStream:
    """Groups share all but the hosts of the last two visited vertices;
    unrolled, they are the reference stream's blocks and its mappings,
    in order and down to key order."""

    @staticmethod
    def patterns():
        rng = random.Random(404)
        for _ in range(200):
            wf, network, _ = random_small_instance(rng, max_tasks=5, max_nodes=8)
            yield wf, network
        k6 = make_network([9, 4, 9, 9, 2, 9], [(a, b) for a in range(6) for b in range(a + 1, 6)])
        # star around 1, visited 1, 0, 2, 3: u = 2 and v = 3 are not adjacent
        yield pattern_workflow(4, [(0, 1), (1, 2), (1, 3)]), k6
        yield pattern_workflow(2, [(0, 1)], [5, 3]), k6
        yield pattern_workflow(1, [], [3]), k6

    def test_unrolled_groups_equal_blocks_and_flat_stream(self):
        leaves = 0
        for wf, network in self.patterns():
            groups = unrolled_blocks(workflow_monomorphisms(wf, network))
            ref = list(reference_monomorphisms(wf, network))
            expected = reference_blocks(ref, visit_order(wf)[-1])
            assert groups == expected
            assert [list(prefix) for prefix, _, _ in groups] == [list(prefix) for prefix, _, _ in expected]
            flat = list(unrolled(wf, network))
            assert flat == ref and [list(m) for m in flat] == [list(m) for m in ref]
            leaves += len(ref)
        assert leaves > 4_000

    def test_pairs_ascend_with_nonzero_masks(self):
        groups = 0
        for wf, network in self.patterns():
            order = visit_order(wf)
            for group in workflow_monomorphisms(wf, network):
                prefix, u, v = group[:3]
                pairs = blocks_of(group)
                assert v == order[-1]
                if len(wf.tasks) == 1:
                    assert (prefix, u, [h for h, _ in pairs]) == ({}, v, [len(network.nodes)])
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
        wf = pattern_workflow(4, [(0, 1), (1, 2), (1, 3)])
        assert visit_order(wf) == [1, 0, 2, 3]
        assert list(workflow_monomorphisms(wf, path)) == []
        star = make_network([5] * 5, [(0, k) for k in range(1, 5)])
        groups = [
            (dict(group[0]), *group[1:3], [(h, mask_hosts(mask)) for h, mask in blocks_of(group)])
            for group in workflow_monomorphisms(wf, star)
        ]
        assert groups[0] == ({1: 0, 0: 1}, 2, 3, [(2, [3, 4]), (3, [2, 4]), (4, [2, 3])])
        assert len(groups) == 4 and sum(len(hosts) for g in groups for _, hosts in g[3]) == 24

    def test_one_and_two_task_patterns(self):
        host = make_network([5, 3, 5, 5], [(0, 1), (1, 2), (2, 3)])

        def decoded(groups):
            return [(dict(g[0]), *g[1:3], [(h, mask_hosts(m)) for h, m in blocks_of(g)]) for g in groups]

        def groups(qubits):
            return decoded(workflow_monomorphisms(chain_workflow(qubits), host))

        assert groups([1]) == [({}, 0, 0, [(4, [0, 1, 2, 3])])]
        assert groups([4]) == [({}, 0, 0, [(4, [0, 2, 3])])]
        assert groups([6]) == []
        assert groups([4, 1]) == [({}, 0, 1, [(0, [1]), (2, [1, 3]), (3, [2])])]


class TestGroupInvariants:
    """With ``v`` linked to ``u`` and not: a group's closed-form size is the
    summed popcount of its listed blocks, and no yielded group lists zero
    blocks."""

    @staticmethod
    def instances():
        rng = random.Random(606)
        for _ in range(300):
            n_nodes = rng.randint(2, 9)
            density = rng.choice([0.2, 0.5, 0.8])
            links = {(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes) if rng.random() < density}
            network = make_network([rng.randint(1, 9) for _ in range(n_nodes)], links)
            n_tasks = rng.randint(2, 5)
            edges = {(rng.randrange(i), i) for i in range(1, n_tasks)}
            edges |= {(i, j) for i in range(n_tasks) for j in range(i + 1, n_tasks) if rng.random() < 0.3}
            qubits = [rng.randint(1, 9) for _ in range(n_tasks)] if rng.random() < 0.5 else None
            yield pattern_workflow(n_tasks, edges, qubits), network
        for scenario in ("LP-LR", "LP-MR"):
            workflows, network, _ = scenario_instances(scenario, 0, 10)
            for wf in workflows:
                yield wf, network

    def test_closed_form_size_and_no_empty_group(self):
        groups = {True: 0, False: 0}
        for wf, network in self.instances():
            for group in itertools.islice(workflow_monomorphisms(wf, network), 2_000):
                blocks = blocks_of(group)
                assert blocks, "a yielded group lists no block"
                assert group_size(*group[3:]) == sum(mask.bit_count() for _, mask in blocks)
                groups[group[5] is not None] += 1
        assert groups[True] > 1_000 and groups[False] > 1_000

    def test_group_size_reads_every_byte_of_its_hosts(self):
        """``group_size`` reads the hosts of ``u`` a byte at a time: on a
        40-node network, linked and unlinked, it is the summed popcount of
        the listed blocks for masks with empty low bytes, masks confined to
        one high byte and bits at each byte's edges (7, 8, 15, 16, 23, 24)
        and at the top node, 39."""
        rng = random.Random(4040)
        n = 40
        network = make_network([5] * n, {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5})
        edges = (7, 8, 15, 16, 23, 24, 39)
        masks = [sum(1 << b for b in edges), 1 << 39, (1 << n) - 1, ((1 << n) - 1) & ~0xFFFF, 0xFF << 32, 0xFF << 8]
        masks += [rng.getrandbits(n) & -(1 << 8 * rng.randint(1, 4)) for _ in range(25)]  # empty low bytes
        masks += [rng.getrandbits(8) << 8 * rng.randint(1, 4) for _ in range(25)]  # one high byte
        masks += [sum(1 << b for b in rng.sample(edges, rng.randint(1, len(edges)))) for _ in range(25)]
        for hosts in masks:
            for leaves in masks:
                for links in (None, network.neighbour_masks):
                    blocks = group_blocks(hosts, leaves, links)
                    assert group_size(hosts, leaves, links) == sum(mask.bit_count() for _, mask in blocks)


class TestDeterminism:
    def test_two_runs_identical_sequence(self):
        rng = random.Random(9)
        for _ in range(25):
            wf, network, _ = random_small_instance(rng)
            first = list(unrolled(wf, network))
            second = list(unrolled(wf, network))
            assert first == second

    def test_pattern_order_highest_degree_root_then_bfs(self):
        # star: vertex 1 has degree 3
        order = _search_plan(4, ((0, 1), (1, 2), (1, 3)))[0]
        assert order[0] == 1
        assert sorted(order) == [0, 1, 2, 3]
        # chain: middle vertex of a 3-chain has degree 2
        assert _search_plan(3, ((0, 1), (1, 2)))[0][0] == 1


class TestSearchPlan:
    """The skeleton-only plan is cached across workflows and networks; the
    qubit domains come from the network's calibration classes."""

    @staticmethod
    def groups(wf, network):
        return [
            (list(group[0].items()), *group[1:5], blocks_of(group))
            for group in workflow_monomorphisms(wf, network)
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

    @staticmethod
    def reference_plan(n, edges):
        """The plan from ascending neighbour lists: a breadth-first walk
        over the lists and each field read off them one by one."""
        adj = [sorted({b for a, b in edges if a == w} | {a for a, b in edges if b == w}) for w in range(n)]
        order = [max(range(n), key=lambda w: (len(adj[w]), -w))]
        seen = set(order)
        for u in order:  # grows while walked
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        depth_of = {w: d for d, w in enumerate(order)}
        earlier = tuple(tuple(p for p in adj[w] if depth_of[p] < d) for d, w in enumerate(order))
        u = order[-2] if n > 1 else None
        v_earlier = tuple(p for p in earlier[-1] if p != u)
        return tuple(order), earlier, u in adj[order[-1]], v_earlier, tuple(map(len, adj))

    def test_plan_equals_the_list_reference(self):
        # every connected skeleton on four labelled tasks, then random ones of 1 to 6 tasks
        pairs = list(itertools.combinations(range(4), 2))
        shapes = [(4, chosen) for r in range(3, 7) for chosen in itertools.combinations(pairs, r)]
        skeletons = [(4, edges) for n, edges in shapes if len(components(n, edges)) == 1]
        assert len(skeletons) == 38
        rng = random.Random(37)
        for _ in range(240):
            n = rng.randint(1, 6)
            labels = rng.sample(range(n), n)  # so that task 0 is not always the arborescence's root
            edges = {tuple(sorted((labels[a], labels[b]))) for a, b in random_connected_dag(n, rng)}
            skeletons.append((n, tuple(sorted(edges))))
        for n, edges in skeletons:
            assert _search_plan(n, edges) == self.reference_plan(n, edges), edges
        assert {n for n, _ in skeletons} == set(range(1, 7))

    def test_plan_cache_is_bounded(self):
        maxsize = _search_plan.cache_info().maxsize
        assert maxsize is not None and maxsize >= 32
        path = [(k, k + 1) for k in range(6)]
        for edges in itertools.islice(itertools.permutations(path), maxsize + 10):
            assert _search_plan(7, edges)[0] == (1, 0, 2, 3, 4, 5, 6)
        assert _search_plan.cache_info().currsize == maxsize

    def test_class_mask_domains_equal_per_node_filter(self):
        rng = random.Random(31)
        networks = [random_small_instance(rng, max_nodes=8)[1] for _ in range(20)]
        networks += [scenario_instances(s, seed, 1)[1] for s in ("LP-LR", "LP-MR") for seed in range(2)]
        networks.append(make_network([5, 3, 5, 5, 3], [(0, 1), (1, 2), (2, 3), (3, 4)]))
        for network in networks:
            assert len(network.calibration_classes[0]) <= len(network.nodes)
            everything = (1 << len(network.nodes)) - 1
            assert list(workflow_monomorphisms(pattern_workflow(1, []), network)) == [
                ({}, 0, 0, 1 << len(network.nodes), everything, None)
            ]
            for q in {1} | {node.qubits + d for node in network.nodes for d in (-1, 0, 1)} - {0}:
                fits = sum(1 << k for k, node in enumerate(network.nodes) if node.qubits >= q)
                groups = list(workflow_monomorphisms(pattern_workflow(1, [], [q]), network))
                assert groups == ([({}, 0, 0, 1 << len(network.nodes), fits, None)] if fits else [])


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
            for m in itertools.islice(unrolled(wf, network), int(cap)):
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
                tuple(sorted(m.items())) for m in unrolled(wf, network)
            ]
            unpruned_feasible = [
                tuple(sorted(m.items()))
                for m in unrolled(uncapped(wf), network)
                if mapping_feasible(m, wf, network)
            ]
            assert sorted(pruned) == sorted(unpruned_feasible)


def described(group):
    """A group as plain values: its prefix items in key order, ``u``, ``v``
    and its blocks."""
    return list(group[0].items()), *group[1:3], blocks_of(group)


def spied(groups, seen):
    """``groups`` passed through, each described into ``seen`` as it is
    yielded; ``seen`` ends with ``"dry"`` once they run dry."""
    for group in groups:
        seen.append(described(group))
        yield group
    seen.append("dry")


def stream_key(wf, network):
    return (wf.skeleton, *task_domains(wf, network))


def searched(wf, network):
    """The live search of the workflow's stream, past the network's store."""
    return _groups(wf, network, task_domains(wf, network))


class TestReplay:
    """A network stores a stream at its first read if its group bound is
    within ``REPLAY_MAX_GROUPS``, and replays it from then on; a key over
    the bound is searched lazily at every read. No consumer can tell the
    reads apart."""

    @staticmethod
    def instances():
        yield from TestGroupStream.patterns()
        for scenario, n in (("LP-LR", 12), ("LP-MR", 2)):
            for seed in range(2):
                workflows, network, _ = scenario_instances(scenario, seed, n)
                for wf in workflows:
                    yield wf, network

    @staticmethod
    def fits(wf, network, limit=REPLAY_MAX_GROUPS):
        return _group_bound(wf, network, task_domains(wf, network)) <= limit

    def test_fresh_first_and_replayed_reads_are_equal(self, monkeypatch):
        weights, params = WeightConfig(), NetworkParams()
        stored = {"one-task": 0, "empty": 0, "longer": 0, "long": 0}
        for wf, network in self.instances():
            network.group_streams.clear()
            key = stream_key(wf, network)
            fresh = [described(group) for group in searched(wf, network)]  # the live search
            live = allocators.workflow_monomorphisms
            monkeypatch.setattr(allocators, "workflow_monomorphisms", searched)
            live_outcome = soft_iso(wf, network, weights, params, EXHAUSTIVE)
            assert key not in network.group_streams
            # soft_iso reads the whole stream when nothing stops it
            first = []
            monkeypatch.setattr(allocators, "workflow_monomorphisms", lambda w, n: spied(live(w, n), first))
            outcome = soft_iso(wf, network, weights, params, EXHAUSTIVE)
            monkeypatch.setattr(allocators, "workflow_monomorphisms", live)
            entry = network.group_streams[key]
            # stored at the first read exactly when the bound fits
            assert isinstance(entry, list) == self.fits(wf, network)
            replayed = [described(group) for group in workflow_monomorphisms(wf, network)]
            assert first == [*fresh, "dry"]
            assert replayed == fresh and outcome == live_outcome
            if entry is False:
                assert len(wf.tasks) > 2 and network.group_streams[key] is False
                stored["long"] += 1
                continue
            assert [described(group) for group in entry] == replayed
            # a replay scores as the live search did, and leaves the stored list as it was
            again = soft_iso(wf, network, weights, params, EXHAUSTIVE)
            assert again == live_outcome
            assert [described(group) for group in network.group_streams[key]] == replayed
            stored["one-task" if len(wf.tasks) == 1 else "empty" if not replayed else "longer"] += 1
        assert stored["one-task"] >= 1 and stored["empty"] >= 20 and stored["longer"] >= 100 and stored["long"] >= 4

    def test_streams_sharing_a_skeleton_replay_their_own_groups(self):
        # one network, one chain skeleton, domains that differ by qubits
        k6 = make_network([9, 4, 9, 9, 2, 9], [(a, b) for a in range(6) for b in range(a + 1, 6)])
        path = make_network([5, 3, 5, 5, 3, 5], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
        patterns = [pattern_workflow(3, [(0, 1), (1, 2)], q) for q in itertools.product([1, 3, 5], repeat=3)]
        for network in (k6, path):
            expected = [[described(g) for g in searched(wf, network)] for wf in patterns]
            assert len({repr(e) for e in expected}) > 5
            for _ in range(3):
                for wf, groups in zip(patterns, expected):
                    assert [described(g) for g in workflow_monomorphisms(wf, network)] == groups
            assert len(network.group_streams) == len({stream_key(wf, network) for wf in patterns})
            assert all(isinstance(entry, list) for entry in network.group_streams.values())

    def test_an_abandoned_first_read_stores_the_complete_stream(self, monkeypatch):
        weights, params = WeightConfig(), NetworkParams()
        configs = (SoftIsoConfig(), SoftIsoConfig(thres_max=math.inf, thres_prev=math.inf, counter_cap_base=2.0))
        live = allocators.workflow_monomorphisms
        cuts = {"stop rule": 0, "budget": 0, "dry": 0}
        for config in configs:
            for wf, network in self.instances():
                if len(wf.tasks) > 3 and len(network.nodes) > 10:
                    continue  # LP-MR: over the bound in any case
                network.group_streams.clear()
                key = stream_key(wf, network)
                fresh = [described(group) for group in searched(wf, network)]
                monkeypatch.setattr(allocators, "workflow_monomorphisms", searched)
                outcomes = [soft_iso(wf, network, weights, params, config)]  # the live search's
                for read in range(3):
                    seen = []
                    monkeypatch.setattr(allocators, "workflow_monomorphisms", lambda w, n: spied(live(w, n), seen))
                    outcomes.append(soft_iso(wf, network, weights, params, config))
                    groups = [group for group in seen if group != "dry"]
                    assert groups == fresh[: len(groups)]
                    entry = network.group_streams[key]
                    # the whole stream, however far the first read went, and never one over the bound
                    assert isinstance(entry, list) == self.fits(wf, network)
                    if entry is not False:
                        assert [described(group) for group in entry] == fresh
                    if read:
                        continue
                    if seen[-1:] == ["dry"]:
                        cuts["dry"] += 1
                    else:
                        budget = outcomes[-1].candidates_examined == config.cap(len(wf.tasks))
                        cuts["budget" if budget else "stop rule"] += entry is not False
                assert outcomes[1] == outcomes[2] == outcomes[3] == outcomes[0]
        assert min(cuts.values()) >= 20

    def test_keys_over_the_bound_are_never_stored(self, monkeypatch):
        monkeypatch.setattr(matcher, "REPLAY_MAX_GROUPS", 3)
        lengths, kept = set(), {True: 0, False: 0}
        for wf, network in TestGroupStream.patterns():
            network.group_streams.clear()
            key = stream_key(wf, network)
            fresh = [described(g) for g in searched(wf, network)]
            reads, prefixes = [], []
            for _ in range(3):
                # a live prefix is valid only until the next group: describe each as it is read
                read = [(described(g), g[0]) for g in workflow_monomorphisms(wf, network)]
                reads.append([d for d, _ in read])
                prefixes.append([prefix for _, prefix in read])
            assert reads[0] == reads[1] == reads[2] == fresh
            entry = network.group_streams[key]
            fits = self.fits(wf, network, 3)
            assert isinstance(entry, list) == fits
            kept[fits] += 1
            if fits:
                # every read replays the stored snapshots
                assert [described(g) for g in entry] == fresh
                assert all(p is g[0] for read in prefixes for p, g in zip(read, entry, strict=True))
            elif fresh:
                # each read yields its own search's live mapping, no copy
                assert all(p is read[0] for read in prefixes for p in read)
                assert len({id(read[0]) for read in prefixes}) == 3
            lengths.add(min(len(fresh), 4))
        assert lengths == {0, 1, 2, 3, 4} and min(kept.values()) >= 20

    def test_the_bound_is_never_below_the_group_count(self):
        rng = random.Random(505)
        instances = [random_small_instance(rng, max_tasks=5, max_nodes=8)[:2] for _ in range(300)]
        for scenario in ("LP-LR", "LP-MR"):
            for seed in range(3):
                workflows, network, _ = scenario_instances(scenario, seed, 10)
                instances += [(wf, network) for wf in workflows]
        tight = 0
        for wf, network in instances:
            domain = task_domains(wf, network)
            groups = sum(1 for _ in _groups(wf, network, domain))
            bound = _group_bound(wf, network, domain)
            assert bound >= groups
            tight += bound == groups > 0
        assert {len(wf.tasks) for wf, _ in instances} == {1, 2, 3, 4, 5} and tight >= 20

    def test_exhaustive_lp_mr_decisions_store_no_stream(self):
        weights, params = WeightConfig(), NetworkParams()
        workflows, network, free_at = scenario_instances("LP-MR", 0, 3)
        for _ in range(2):
            for wf in workflows:
                assert soft_iso(wf, network, weights, params, EXHAUSTIVE, free_at).succeeded
        assert len(network.group_streams) == len({stream_key(wf, network) for wf in workflows})
        assert not any(network.group_streams.values())


class TestDegreePruning:
    """A task's domain drops the hosts with fewer neighbours than the task
    has in the skeleton; the streams stay those of the qubit domains."""

    def test_a_four_task_domain_loses_a_host_on_lp_lr(self):
        lost = 0
        for seed in range(3):
            workflows, network, _ = scenario_instances("LP-LR", seed, 10)
            reps, masks, _ = network.calibration_classes
            degrees = [mask.bit_count() for mask in network.neighbour_masks]
            for wf in workflows:
                assert len(wf.tasks) == 4
                task_degree = _search_plan(4, wf.skeleton)[4]
                for task, d, domain in zip(wf.tasks, task_degree, task_domains(wf, network)):
                    fits = sum(m for rep, m in zip(reps, masks) if rep.qubits >= task.qubits)
                    assert domain == sum(1 << k for k in mask_hosts(fits) if degrees[k] >= d)
                    lost += domain != fits
                # every host a group names, mapped or not, is in its task's pruned domain
                domains = task_domains(wf, network)
                for group in workflow_monomorphisms(wf, network):
                    prefix, u, v, hosts, leaves, _ = group
                    assert all(domains[w] >> h & 1 for w, h in prefix.items())
                    assert hosts & ~domains[u] == 0 and leaves & ~domains[v] == 0
        assert lost >= 10

    def test_domains_equal_the_class_definition_on_random_networks(self):
        rng = random.Random(29)
        too_large = no_degree = 0
        for _ in range(300):
            n = rng.randint(1, 8)
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
            network = make_network([rng.choice((5, 20, 127)) for _ in range(n)], pairs)
            size = rng.randint(1, 5)
            qubits = [rng.choice((1, 5, 20, 127, 200)) for _ in range(size)]  # 200 fits no node
            wf = pattern_workflow(size, random_connected_dag(size, rng), qubits)
            reps, masks, _ = network.calibration_classes
            at_least = network.degree_masks
            for task, d, domain in zip(wf.tasks, _search_plan(size, wf.skeleton)[4], task_domains(wf, network)):
                fits = sum(m for rep, m in zip(reps, masks) if rep.qubits >= task.qubits)
                assert domain == (fits & at_least[d] if d < len(at_least) else 0)
                too_large += fits == 0
                no_degree += d >= len(at_least)
        assert too_large >= 50 and no_degree >= 20

    def test_degree_masks(self):
        star = make_network([5] * 5, [(0, k) for k in range(1, 5)])
        assert star.degree_masks == (0b11111, 0b11111, 1, 1, 1)
        lone = make_network([5], [])
        assert lone.degree_masks == (1,)
        # a task with more neighbours than any node has no host
        path = make_network([5] * 4, [(0, 1), (1, 2), (2, 3)])
        assert task_domains(pattern_workflow(5, [(0, k) for k in range(1, 5)]), path)[0] == 0
