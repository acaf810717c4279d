"""Lazy enumeration of subgraph monomorphisms of a workflow skeleton into
the resource network.

A candidate mapping sends each workflow task index to a distinct network
node index such that every workflow edge lands on a network link; extra
links among the chosen nodes are allowed (monomorphism semantics, since
surplus physical connectivity cannot hurt execution).

Enumeration is one deterministic backtracking search: pattern vertices (the
tasks) are visited highest-degree first then breadth-first, and host
candidates are tried in ascending node index, so the stream is sorted by the
hosts of the vertices in visit order. Each task's domain holds only the
nodes with enough qubits for it, so every mapping also meets the qubit
constraint, and with at least as many neighbours as the task has in the
skeleton, since no mapping can use a node with fewer. As in VF2++ (Juttner
and Madarasi, 2018) and bitset subgraph solvers (McCreesh and Prosser,
2015), each vertex's candidate domain is a bitmask of hosts fixed once and,
at each depth, narrowed by the neighbour masks of the hosts of its
already-mapped pattern neighbours and by the mask of used hosts. The visit
order, the per-depth lists and the degrees depend only on the skeleton, so
they are cached per skeleton; the masks come from the network's cached
views.

The search yields groups. With ``u`` and ``v`` the last two vertices in
visit order (for one task, ``u`` is ``v`` on the host ``N``, the node
count), all mappings that differ only in the hosts of ``u`` and ``v`` share
one prefix, and a group carries the hosts of ``u`` and the leaf hosts of
``v`` as two bitmasks. Each depth ahead of the vertex just before ``u`` is
a generator that recurses; the depth of that vertex computes, in its own
loop over its hosts, the group each host ends (``u``'s pool and ``v``'s
leaves read from the live mapping, an empty group trimmed) and yields it,
so a group costs its bit operations and no frame of its own. Two tasks
have an empty prefix and take their one group from the same computation.
A group's blocks, listed by :func:`group_blocks`, are its
``(host of u, leaf mask)`` pairs: all mappings that differ only in the host
of ``v``. No group is empty. A consumer can fold the prefix once per group
and go through a run of blocks per call (as soft_iso's scorer does), count
a group it rules out from the two masks with :func:`group_size`, and decode
a leaf mask with :func:`mask_hosts` only where it needs the hosts one by one.
Dense-mask loops (:func:`group_size`'s, soft_iso's ``skim``) read a byte at
a time (``BYTE_BITS``); the rest keep the bit trick, cheaper on sparse masks.

A stream depends only on the skeleton and the domains, and decisions on one
network meet the same few keys again and again. So at a key's first read
the search bounds the stream's group count from the domains and, if the
bound is at most ``REPLAY_MAX_GROUPS``, runs once to the end into the
network's store, which every read then replays; its prefixes are snapshots
that every read shares, so a consumer reads a prefix and never writes it.
A key over the bound is searched lazily at every read, no prefix copied.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .model import ResourceNetwork, Workflow, adjacency_masks

# A candidate mapping: workflow task index -> network node index, injective.
CandidateMapping = dict[int, int]
# A group of mappings that differ only in the hosts of the last two visited
# pattern vertices u and v: (prefix, u, v, hosts of u, leaf hosts of v,
# links), links being the neighbour masks when v neighbours u, else None.
MappingGroup = tuple[CandidateMapping, int, int, int, int, tuple[int, ...] | None]
# The greatest group bound of a stream a network stores, which bounds the memory
# of a replay: an LP-LR read of four tasks meets 17 groups in the median (bound
# 28, at most 54 over 1,000 reads), an LP-MR one hundreds (bound 380).
REPLAY_MAX_GROUPS = 64
BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1) for x in range(256))  # per byte value, its set bits


def mask_hosts(mask: int) -> list[int]:
    """The hosts of a host bitmask, ascending."""
    hosts = []
    while mask:
        low = mask & -mask
        hosts.append(low.bit_length() - 1)
        mask ^= low
    return hosts


def group_blocks(hosts: int, leaves: int, links: tuple[int, ...] | None) -> list[tuple[int, int]]:
    """Each host of ``u`` ascending with its nonzero leaf mask of ``v``: the
    leaves off that host, and on its neighbours given ``links``. A one-task
    group, whose one host ``N`` is no leaf, gives ``[(N, leaves)]``."""
    blocks = []
    while hosts:
        low = hosts & -hosts
        hosts ^= low
        h = low.bit_length() - 1
        if mask := (leaves & ~low if links is None else leaves & links[h]):  # no self-links
            blocks.append((h, mask))
    return blocks


def group_size(hosts: int, leaves: int, links: tuple[int, ...] | None) -> int:
    """The summed popcounts of :func:`group_blocks`, without listing them."""
    if links is None:
        return hosts.bit_count() * leaves.bit_count() - (hosts & leaves).bit_count()
    size = base = 0
    while hosts:  # a byte of hosts at a time, each set bit offset by ``base``
        for b in BYTE_BITS[hosts & 255]:
            size += (leaves & links[base + b]).bit_count()
        hosts, base = hosts >> 8, base + 8
    return size


# Never evicts on generated workloads: over 200,000 draws each,
# random_connected_dag drew 3, 21 and 315 distinct skeletons for 3, 4 and 5
# tasks, 341 over the 1-5 tasks a WorkloadSpec allows.
@lru_cache(maxsize=512)
def _search_plan(n: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    """The skeleton-only part of the search, derived once per pattern and
    kept in a bounded cache: the visit order; per depth, the pattern
    neighbours mapped at earlier depths; whether the last vertex ``v``
    neighbours the one before it, ``u``; ``v``'s earlier neighbours other
    than ``u``; and each vertex's degree, by vertex. The skeleton is
    connected (:class:`Workflow` rejects any other), so the breadth-first
    walk reaches every vertex."""
    adj = adjacency_masks(n, edges)
    order = [max(range(n), key=lambda v: (adj[v].bit_count(), -v))]
    seen = 1 << order[0]
    for u in order:  # grows while walked: a breadth-first search, new neighbours ascending
        order += mask_hosts(adj[u] & ~seen)
        seen |= adj[u]
    earlier, placed = [], 0
    for w in order:
        earlier.append(tuple(mask_hosts(adj[w] & placed)))
        placed |= 1 << w
    u = order[-2] if n > 1 else n  # for one task, a vertex that no mask holds
    v_earlier = tuple(p for p in earlier[-1] if p != u)
    v_on_u = adj[order[-1]] >> u & 1 == 1
    return tuple(order), tuple(earlier), v_on_u, v_earlier, tuple(m.bit_count() for m in adj)


def task_domains(workflow: Workflow, network: ResourceNetwork) -> list[int]:
    """Each task's candidate hosts as a bitmask: the network's
    :meth:`~ResourceNetwork.qubit_mask` for its qubit count, less the nodes
    with fewer neighbours than the task has in the skeleton, which no
    monomorphism can use."""
    at_least = network.degree_masks
    degrees = _search_plan(len(workflow.tasks), workflow.skeleton)[4]
    return [
        network.qubit_mask(task.qubits) & at_least[d] if d < len(at_least) else 0
        for task, d in zip(workflow.tasks, degrees)
    ]


def workflow_monomorphisms(workflow: Workflow, network: ResourceNetwork) -> Iterator[MappingGroup]:
    """Yield every injective mapping of the workflow's tasks onto network
    nodes that puts each skeleton edge on a link and each task on a node
    with enough qubits, in groups, lazily and in a deterministic order.

    With ``u`` and ``v`` the last two tasks in visit order, a group
    ``(prefix, u, v, hosts, leaves, links)`` stands for the mappings
    ``prefix`` plus ``u -> hu`` plus ``v -> h``, for each ``(hu, mask)`` in
    ``group_blocks(hosts, leaves, links)`` and each ``h`` in
    ``mask_hosts(mask)``; none is empty. ``prefix`` maps every task before
    ``u``, keyed in visit order. It is read-only: it may be the search's
    live mapping, valid only until the next group is requested, or a
    snapshot that later reads of the stream share. A one-task workflow
    gives at most ``({}, v, v, 1 << N, mask, None)``, ``N`` the node count.

    The stream is a function of the skeleton and the :func:`task_domains`,
    so the network keeps it (:attr:`ResourceNetwork.group_streams`) under
    that key. At the key's first read, a stream whose :func:`_group_bound`
    is at most ``REPLAY_MAX_GROUPS`` is searched whole, each group with its
    prefix copied, and stored, an empty one too; every read replays the
    stored list. A key over the bound is marked and searched lazily at
    every read.
    """
    domain = task_domains(workflow, network)
    streams = network.group_streams
    key = (workflow.skeleton, *domain)
    stored = streams.get(key)
    if stored is None:  # the key's first read: the whole stream if its bound fits, else False
        stored = streams[key] = _group_bound(workflow, network, domain) <= REPLAY_MAX_GROUPS and [
            (dict(group[0]), *group[1:]) for group in _groups(workflow, network, domain)
        ]
    return _groups(workflow, network, domain) if stored is False else iter(stored)


def _group_bound(workflow: Workflow, network: ResourceNetwork, domain: list[int]) -> int:
    """An upper bound on the stream's group count, one group per prefix:
    the hosts of the first task in visit order times, per later depth of
    the prefix, the most hosts of the task's domain that one node
    neighbours (every task after the first has an earlier neighbour in the
    breadth-first visit order); 1 for one or two tasks, whose prefix is
    empty."""
    order = _search_plan(len(workflow.tasks), workflow.skeleton)[0]
    if len(order) <= 2:
        return 1
    neighbours = network.neighbour_masks
    bound = domain[order[0]].bit_count()
    for w in order[1:-2]:
        bound *= max((mask & domain[w]).bit_count() for mask in neighbours)
    return bound


def _groups(workflow: Workflow, network: ResourceNetwork, domain: list[int]) -> Iterator[MappingGroup]:
    """The search itself, over the hosts of ``domain``: the depths before
    ``u`` backtrack, and the level of the task before ``u`` computes the
    group of each of its hosts in its own loop and yields it."""
    n = len(workflow.tasks)
    order, earlier, v_on_u, v_earlier, _ = _search_plan(n, workflow.skeleton)
    v = order[-1]
    if n == 1:
        return iter([({}, v, v, 1 << len(network.nodes), domain[v], None)] if domain[v] else [])
    neighbours = network.neighbour_masks
    links = neighbours if v_on_u else None
    last = n - 2  # the depth of u
    u = order[last]
    u_domain, u_earlier, v_domain = domain[u], earlier[last], domain[v]
    mapping: CandidateMapping = {}

    def group(used: int) -> MappingGroup | None:
        # the group of the prefix in ``mapping``, whose hosts are ``used``: u's pool, v's leaves off
        # the prefix's hosts; None for an empty one, where u's one host is v's one leaf or, when v
        # neighbours u, no host of u neighbours a leaf
        pool = u_domain & ~used
        for p in u_earlier:
            pool &= neighbours[mapping[p]]
        leaves = v_domain & ~used
        for p in v_earlier:
            leaves &= neighbours[mapping[p]]
        hosts = pool if leaves else 0
        if links is None:
            hosts = hosts if hosts != leaves or hosts & (hosts - 1) else 0
        else:
            while hosts and not leaves & links[(hosts & -hosts).bit_length() - 1]:
                hosts &= hosts - 1
        return (mapping, u, v, pool, leaves, links) if hosts else None

    if n == 2:  # the prefix is empty
        return iter([found] if (found := group(0)) else [])

    def extend(depth: int, used: int) -> Iterator[MappingGroup]:
        w = order[depth]
        pool = domain[w] & ~used
        for p in earlier[depth]:
            pool &= neighbours[mapping[p]]
        if depth < last - 1:
            while pool:
                low = pool & -pool
                pool ^= low
                # reassigning a key keeps its position, so ``mapping`` stays
                # keyed in visit order without deleting keys on backtrack
                mapping[w] = low.bit_length() - 1
                yield from extend(depth + 1, used | low)
            return
        while pool:  # w is the task before u: each of its hosts ends a prefix
            low = pool & -pool
            pool ^= low
            mapping[w] = low.bit_length() - 1
            if found := group(used | low):
                yield found

    return extend(0, 0)
