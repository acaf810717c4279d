"""Core domain types: tasks, workflows, QPU nodes, networks, and allocations.

All types are immutable value records. A :class:`QpuNode` holds calibration
only; availability is simulation state
(:class:`qflow.simulation.SimState`), so runs and decisions may share a
network, and the calibration classes and cost terms each
:class:`ResourceNetwork` caches (:meth:`ResourceNetwork.term_cache`) stay
valid for its life. A simulation run is single-threaded; independent runs
can execute in parallel.

The graph helpers at the end (:func:`neighbour_lists`, :func:`components`,
:func:`kahn_order`) build the neighbour lists, components and topological
orders every module uses; each workflow and network derives its views from
them once, a network's neighbour bitmasks included.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from operator import attrgetter

PROGRAM_FAMILIES = (
    "ghz",
    "qft",
    "graphstate",
    "randomcircuit",
    "grover",
    "dj",
    "qaoa",
    "qnn",
    "vqe",
    "qpe",
    "ae",
    "groundstate",
    "shor",
)


def check_count(name: str, value: float, minimum: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a whole
    number ``>= minimum``. A bool, NaN, an infinite or a fractional value
    fails; an integral float such as ``6.0`` passes and returns ``6``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a whole number, not a bool, got {value}")
    if not value >= minimum:  # NaN fails here
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if value % 1:  # inf % 1 is NaN, which is true
        raise ValueError(f"{name} must be a finite whole number, got {value}")
    return int(value)


@dataclass(frozen=True)
class TaskSpec:
    """Metadata of one quantum-circuit task.

    A task is a metadata record, not a gate-level circuit: the allocator
    consumes only qubit count, depth, two-qubit gate count, measured-qubit
    count and shots.
    """

    id: str
    qubits: int
    depth: int
    two_qubit_gates: int
    measured_qubits: int
    shots: int = 1000
    program_family: str = "randomcircuit"

    def __post_init__(self):
        counts = (("qubits", 1), ("depth", 1), ("shots", 1), ("two_qubit_gates", 0), ("measured_qubits", 0))
        try:
            for name, minimum in counts:
                check_count(name, getattr(self, name), minimum)
        except ValueError as exc:
            raise ValueError(f"task {self.id}: {exc}") from None
        if self.measured_qubits > self.qubits:
            raise ValueError(
                f"task {self.id}: measured_qubits must be in [0, qubits], "
                f"got {self.measured_qubits} with qubits={self.qubits}"
            )
        if self.program_family not in PROGRAM_FAMILIES:
            raise ValueError(f"task {self.id}: unknown program family {self.program_family!r}")


@dataclass(frozen=True)
class Workflow:
    """A DAG of tasks submitted as one user request.

    ``edges`` are directed (dependency order, used for execution gating);
    constraint checking uses the undirected skeleton. The skeleton must be
    connected and the directed graph acyclic. Validation keeps the
    topological order it computes; the skeleton is derived on first use.
    """

    id: str
    tasks: tuple[TaskSpec, ...]
    edges: frozenset[tuple[int, int]] = frozenset()
    arrival_time: float = 0.0
    priority: int = 0
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.tasks)
        if n < 1:
            raise ValueError(f"workflow {self.id}: needs at least one task")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"workflow {self.id}: edge ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"workflow {self.id}: self-loop on task {a}")
        if not self.arrival_time >= 0:
            raise ValueError(f"workflow {self.id}: arrival time must be >= 0, got {self.arrival_time}")
        # one task has no edge (self-loops are rejected above) and one order
        order = kahn_order(n, self.edges) if n > 1 else [0]
        if len(order) < n:
            raise ValueError(f"workflow {self.id}: task graph has a cycle")
        if n > 1 and len(components(n, self.edges)) > 1:
            raise ValueError(f"workflow {self.id}: task graph skeleton is disconnected")
        object.__setattr__(self, "_order", tuple(order))

    @property
    def total_qubits(self) -> int:
        return sum(t.qubits for t in self.tasks)

    def skeleton(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as ascending index pairs, in sorted order."""
        return self._skeleton

    @cached_property
    def _skeleton(self) -> tuple[tuple[int, int], ...]:
        # an acyclic graph has no pair of opposite edges, so no pair repeats
        return tuple(sorted((a, b) if a < b else (b, a) for a, b in self.edges))

    def topological_order(self) -> tuple[int, ...]:
        """Task indices in dependency order, the least ready index first."""
        return self._order


# A QpuNode's ten calibration fields are its qubits, these error rates and these positive figures.
_ERROR_RATES = ("readout_error", "one_qubit_error", "two_qubit_error")
_POSITIVE = ("one_qubit_runtime", "two_qubit_runtime", "readout_runtime", "t1", "t2", "d1cps")
_calibration = attrgetter("qubits", *_ERROR_RATES, *_POSITIVE)


@dataclass(frozen=True)
class QpuNode:
    """One quantum device: its id and its ten calibration fields.

    Error rates are probabilities in [0, 1); runtimes and coherence times are
    seconds; ``d1cps`` is depth-1 circuit layers per second (the device speed
    figure). The node is frozen, so the cost terms its network caches stay
    valid; the simulator holds each node's free time.
    """

    id: str
    qubits: int
    readout_error: float
    one_qubit_error: float
    two_qubit_error: float
    one_qubit_runtime: float
    two_qubit_runtime: float
    readout_runtime: float
    t1: float
    t2: float
    d1cps: float
    # Class attributes, not fields: read only by perfbench/run.py:check_idle.
    next_available_time = 0.0
    queue = ()

    def __post_init__(self):
        check_count(f"node {self.id}: qubits", self.qubits, 1)
        for name in _ERROR_RATES:
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"node {self.id}: {name} must be in [0, 1), got {v}")
        for name in _POSITIVE:
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"node {self.id}: {name} must be > 0, got {v}")


@dataclass(frozen=True)
class ResourceNetwork:
    """Undirected graph of QPU nodes joined by hybrid quantum-classical links."""

    nodes: tuple[QpuNode, ...]
    links: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(self.nodes)
        if n < 1:
            raise ValueError("network needs at least one node")
        norm = set()
        for a, b in self.links:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"link ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "links", frozenset(norm))

    def has_link(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.links

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour indices per node, ascending; built once."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, neighbour_lists(len(self.nodes), self.links)))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Each node's neighbours as a host bitmask, bit k for node k."""
        return tuple(sum(1 << k for k in adjacent) for adjacent in self.adjacency())

    @cached_property
    def calibration_classes(self) -> tuple[tuple[QpuNode, ...], tuple[int, ...], tuple[int, ...]]:
        """The nodes grouped by their ten calibration fields (``id`` is not
        part of the key), in order of first appearance:
        one representative node and one host bitmask per class, then each
        node's class index. Nodes of a class have equal cost terms."""
        index: dict[tuple, int] = {}
        of_node = tuple(index.setdefault(_calibration(node), len(index)) for node in self.nodes)
        reps = tuple(self.nodes[of_node.index(c)] for c in range(len(index)))
        masks = tuple(sum(1 << k for k, d in enumerate(of_node) if d == c) for c in range(len(index)))
        return reps, masks, of_node

    def dfs_order(self) -> tuple[int, ...]:
        """Depth-first traversal order, built once: start at the node with
        the fewest qubits, visit neighbours in ascending qubit order, and
        restart from the next unvisited minimum-qubit node if the graph is a
        forest. Ties in qubits go to the lower index."""
        return self._dfs_order

    @cached_property
    def _dfs_order(self) -> tuple[int, ...]:
        key = lambda k: (self.nodes[k].qubits, k)
        adjacency = self.adjacency()
        visited: list[int] = []
        seen: set[int] = set()
        for start in sorted(range(len(self.nodes)), key=key):
            if start in seen:
                continue
            stack = [start]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                visited.append(u)
                for v in sorted(adjacency[u], key=key, reverse=True):
                    if v not in seen:
                        stack.append(v)
        return tuple(visited)

    def term_cache(self, params: NetworkParams) -> dict:
        """The store, keyed by :class:`TaskSpec`, in which
        :class:`qflow.costs.DecisionTable` keeps the static cost terms of
        tasks on these nodes under ``params``; created empty on first use
        and kept for the network's life. Sound because nodes are frozen."""
        return self._term_caches.setdefault(params, {})

    @cached_property
    def _term_caches(self) -> dict[NetworkParams, dict]:
        return {}

    def is_connected(self) -> bool:
        return len(components(len(self.nodes), self.links)) == 1


@dataclass(frozen=True)
class NetworkParams:
    """Link-model parameters shared by every link in the network.

    ``transmission_efficiency`` is a dimensionless linear factor by default
    (1.0 makes the switch attenuation term vanish) and must be > 0. Set
    ``eta_in_db`` to interpret the value as decibels instead: any finite
    value, 0 dB being lossless and a loss negative. NaN is rejected in
    either mode, as it is for ``classical_latency``, and so is a value
    whose attenuation ``eta_linear ** switch_count`` overflows or
    underflows to zero.
    """

    success_probability: float = 0.5
    transmission_efficiency: float = 1.0
    switch_count: int = 1
    classical_latency: float = 0.02
    eta_in_db: bool = False

    def __post_init__(self):
        if not 0.0 <= self.success_probability <= 1.0:
            raise ValueError("success_probability must be in [0, 1]")
        if self.eta_in_db:
            if not math.isfinite(self.transmission_efficiency):
                raise ValueError("transmission_efficiency must be finite in dB")
        elif not self.transmission_efficiency > 0:
            raise ValueError("transmission_efficiency must be > 0")
        check_count("switch_count", self.switch_count, 0)
        try:
            attenuation = self.eta_linear ** self.switch_count
        except OverflowError:
            attenuation = math.inf
        if not 0.0 < attenuation < math.inf:
            raise ValueError("transmission_efficiency ** switch_count must be a positive finite float")
        if not self.classical_latency >= 0:
            raise ValueError("classical_latency must be >= 0")

    @property
    def eta_linear(self) -> float:
        if self.eta_in_db:
            return 10.0 ** (self.transmission_efficiency / 10.0)
        return self.transmission_efficiency


@dataclass(frozen=True)
class WeightConfig:
    """Weights of the scalarized objective.

    ``zeta`` trades availability against the three system costs; ``alpha``,
    ``beta``, ``gamma`` (error, runtime, network) must sum to 1.
    """

    zeta: float = 0.5
    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 1.0 / 3.0

    def __post_init__(self):
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must be in [0, 1]")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not v >= 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if not abs(self.alpha + self.beta + self.gamma - 1.0) <= 1e-12:
            raise ValueError("alpha + beta + gamma must equal 1")


@dataclass(frozen=True)
class Allocation:
    """Injective task-index -> node-index assignment for one workflow."""

    workflow_id: str
    assignment: dict[int, int]
    cost_breakdown: "CostBreakdown | None" = None

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))


def mapping_feasible(
    mapping: Mapping[int, int] | Sequence[int], workflow: Workflow, network: ResourceNetwork
) -> bool:
    """True iff every workflow edge lands on a network link and every task
    fits its node's qubit capacity; ``mapping[j]`` is task j's node index.
    Injectivity is not checked here."""
    for a, b in workflow.skeleton():
        if not network.has_link(mapping[a], mapping[b]):
            return False
    for j, task in enumerate(workflow.tasks):
        if task.qubits > network.nodes[mapping[j]].qubits:
            return False
    return True


def validate_allocation(workflow: Workflow, network: ResourceNetwork, allocation: Allocation) -> bool:
    """Check injectivity, link coverage of workflow edges, and qubit capacity.

    Returns False on a constraint violation. Malformed index references are a
    structural error and raise IndexError instead.
    """
    n_tasks = len(workflow.tasks)
    n_nodes = len(network.nodes)
    assignment = allocation.assignment
    for j, k in assignment.items():
        if not 0 <= j < n_tasks:
            raise IndexError(f"allocation references task index {j} out of range")
        if not 0 <= k < n_nodes:
            raise IndexError(f"allocation references node index {k} out of range")
    if len(assignment) != n_tasks:
        return False
    if len(set(assignment.values())) != n_tasks:
        return False
    return mapping_feasible(assignment, workflow, network)


def neighbour_lists(n: int, pairs: Iterable[tuple[int, int]], directed: bool = False) -> list[list[int]]:
    """Ascending neighbour list of each vertex 0..n-1: the ``b`` of every
    pair ``(a, b)`` when ``directed``, else both endpoints of every pair.
    Each pair is counted once, so an undirected pair must not repeat."""
    lists: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        lists[a].append(b)
        if not directed:
            lists[b].append(a)
    for neighbours in lists:
        neighbours.sort()
    return lists


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the undirected graph on 0..n-1, each as an
    ascending vertex list, ordered by their least vertex."""
    adjacency = neighbour_lists(n, edges)
    seen = [False] * n
    found = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for u in component:  # grows while walked: a breadth-first search
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
        component.sort()
        found.append(component)
    return found


def kahn_order(n: int, edges: Collection[tuple[int, int]]) -> list[int]:
    """Kahn's topological order of the directed graph on 0..n-1, taking the
    least ready vertex first; shorter than ``n`` exactly when the graph has
    a cycle."""
    successors = neighbour_lists(n, edges, directed=True)
    indegree = [0] * n
    for _, b in edges:
        indegree[b] += 1
    ready = [v for v in range(n) if not indegree[v]]  # ascending, so a heap
    order = []
    while ready:
        u = heappop(ready)
        order.append(u)
        for v in successors[u]:
            indegree[v] -= 1
            if not indegree[v]:
                heappush(ready, v)
    return order
