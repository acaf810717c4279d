"""Lazy enumeration of subgraph monomorphisms of a workflow skeleton into
the resource network.

A candidate mapping sends each workflow task index to a distinct network
node index such that every workflow edge lands on a network link; extra
links among the chosen nodes are allowed (monomorphism semantics, since
surplus physical connectivity cannot hurt execution).

Enumeration is one deterministic backtracking search: pattern vertices are
visited highest-degree first then breadth-first, and host candidates are
tried in ascending node index, so the stream is sorted by the hosts of the
vertices in visit order. An optional per-vertex capacity requirement
prunes host nodes with too few qubits before the search, which drops only
mappings that the qubit constraint would reject anyway. As in VF2++
(Juttner and Madarasi, 2018) and bitset subgraph solvers (McCreesh and
Prosser, 2015), each vertex's candidate domain is a bitmask of hosts fixed
once and, at each depth, narrowed by the neighbour masks of the hosts of
its already-mapped pattern neighbours and by the mask of used hosts.

The search yields blocks: all mappings that differ only in the host of the
last vertex in visit order share one prefix, so a consumer can evaluate
the prefix once per block (soft_iso scores a whole block per call). The
flat streams are the blocks unrolled into one dict per mapping.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .model import ResourceNetwork, Workflow

# A candidate mapping: workflow task index -> network node index, injective.
CandidateMapping = dict[int, int]
# A block of candidate mappings that differ only in the host of the last
# visited pattern vertex: (prefix, last vertex, ascending leaf hosts).
MappingBlock = tuple[CandidateMapping, int, list[int]]


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


def enumerate_monomorphism_blocks(
    pattern_size: int,
    pattern_edges: Iterable[tuple[int, int]],
    host: ResourceNetwork,
    min_qubits: Sequence[int] | None = None,
) -> Iterator[MappingBlock]:
    """Yield every injective, adjacency-preserving mapping of the pattern
    into the host, grouped into blocks, lazily and in a deterministic order.

    A block ``(prefix, v, hosts)`` stands for the mappings ``prefix`` plus
    ``v -> h`` for each ``h`` in ``hosts``: ``v`` is the last pattern vertex
    in visit order, ``hosts`` is its nonempty ascending list of leaf hosts,
    and ``prefix`` maps every other vertex, keyed in visit order. ``prefix``
    is the search's live mapping: it is valid only until the next block is
    requested and must not be modified or kept.

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

    # Search tables as host bitmasks: qubit-feasible hosts per pattern
    # vertex and neighbours per host; per depth, the pattern neighbours
    # mapped at earlier depths.
    domain = [
        sum(1 << h for h, node in enumerate(host.nodes) if min_qubits is None or node.qubits >= min_qubits[v])
        for v in range(pattern_size)
    ]
    adjacency = host.adjacency()
    neighbours = [sum(1 << k for k in adjacency[h]) for h in range(len(host.nodes))]
    depth_of = {v: d for d, v in enumerate(order)}
    earlier = [[p for p in adj[v] if depth_of[p] < d] for d, v in enumerate(order)]
    last = pattern_size - 1
    mapping: CandidateMapping = {}

    def extend(depth: int, used: int) -> Iterator[MappingBlock]:
        v = order[depth]
        pool = domain[v] & ~used
        for p in earlier[depth]:
            pool &= neighbours[mapping[p]]
        if depth == last:
            hosts = []
            while pool:
                low = pool & -pool
                hosts.append(low.bit_length() - 1)
                pool ^= low
            if hosts:
                yield mapping, v, hosts
            return
        while pool:
            low = pool & -pool
            pool ^= low
            # reassigning a key keeps its position, so ``mapping`` stays
            # keyed in visit order without deleting keys on backtrack
            mapping[v] = low.bit_length() - 1
            yield from extend(depth + 1, used | low)

    return extend(0, 0)


def enumerate_monomorphisms(
    pattern_size: int,
    pattern_edges: Iterable[tuple[int, int]],
    host: ResourceNetwork,
    min_qubits: Sequence[int] | None = None,
) -> Iterator[CandidateMapping]:
    """The mappings of :func:`enumerate_monomorphism_blocks`, one dict each,
    keyed in visit order."""
    return _flatten(enumerate_monomorphism_blocks(pattern_size, pattern_edges, host, min_qubits))


def _flatten(blocks: Iterator[MappingBlock]) -> Iterator[CandidateMapping]:
    for prefix, v, hosts in blocks:
        for h in hosts:
            mapping = prefix.copy()
            mapping[v] = h
            yield mapping


def workflow_monomorphism_blocks(workflow: Workflow, network: ResourceNetwork) -> Iterator[MappingBlock]:
    """Enumerate embeddings of a workflow's undirected skeleton into the
    network in blocks, pruning nodes too small for the candidate task."""
    caps = [t.qubits for t in workflow.tasks]
    return enumerate_monomorphism_blocks(len(workflow.tasks), workflow.skeleton(), network, min_qubits=caps)


def workflow_monomorphisms(workflow: Workflow, network: ResourceNetwork) -> Iterator[CandidateMapping]:
    """The mappings of :func:`workflow_monomorphism_blocks`, one dict each."""
    return _flatten(workflow_monomorphism_blocks(workflow, network))
