"""Lazy enumeration of subgraph monomorphisms of a workflow skeleton into
the resource network.

A candidate mapping sends each workflow task index to a distinct network
node index such that every workflow edge lands on a network link; extra
links among the chosen nodes are allowed (monomorphism semantics, since
surplus physical connectivity cannot hurt execution).

Enumeration is a deterministic backtracking search: pattern vertices are
visited highest-degree first then breadth-first, and host candidates are
tried in ascending node index. An optional per-vertex capacity requirement
prunes host nodes with too few qubits in-search, which drops only mappings
that the qubit constraint would reject anyway.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .model import ResourceNetwork, Workflow

# A candidate mapping: workflow task index -> network node index, injective.
CandidateMapping = dict[int, int]


def pattern_order(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Visit order of pattern vertices: highest degree first, then BFS."""
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    root = max(range(n), key=lambda v: (len(adj[v]), -v))
    order = [root]
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    if len(order) != n:
        raise ValueError("pattern skeleton must be connected")
    return order


def enumerate_monomorphisms(
    pattern_size: int,
    pattern_edges: Iterable[tuple[int, int]],
    host: ResourceNetwork,
    min_qubits: Sequence[int] | None = None,
) -> Iterator[CandidateMapping]:
    """Yield every injective, adjacency-preserving mapping of the pattern
    into the host, lazily and in a deterministic order.

    ``min_qubits[v]`` (optional) prunes host nodes whose qubit count cannot
    host pattern vertex ``v``.
    """
    if pattern_size < 1:
        raise ValueError("pattern must be nonempty")
    edges = {(min(a, b), max(a, b)) for a, b in pattern_edges}
    order = pattern_order(pattern_size, edges)
    adj: dict[int, set[int]] = {i: set() for i in range(pattern_size)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    host_indices = list(range(len(host.nodes)))
    mapping: CandidateMapping = {}
    used: set[int] = set()

    def feasible(v: int, h: int) -> bool:
        if min_qubits is not None and host.nodes[h].qubits < min_qubits[v]:
            return False
        for p in adj[v]:
            if p in mapping and not host.has_link(mapping[p], h):
                return False
        return True

    def extend(depth: int) -> Iterator[CandidateMapping]:
        if depth == pattern_size:
            yield dict(mapping)
            return
        v = order[depth]
        for h in host_indices:
            if h in used or not feasible(v, h):
                continue
            mapping[v] = h
            used.add(h)
            yield from extend(depth + 1)
            del mapping[v]
            used.remove(h)

    return extend(0)


def workflow_monomorphisms(workflow: Workflow, network: ResourceNetwork) -> Iterator[CandidateMapping]:
    """Enumerate embeddings of a workflow's undirected skeleton into the
    network, pruning nodes too small for the candidate task."""
    caps = [t.qubits for t in workflow.tasks]
    return enumerate_monomorphisms(len(workflow.tasks), workflow.skeleton(), network, min_qubits=caps)
