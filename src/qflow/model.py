"""Core domain types: tasks, workflows, QPU nodes, networks, and allocations.

All types are immutable value records except :class:`QpuNode`, whose queue
state (``next_available_time`` and ``queue``) is mutated by the simulation
engine only. A single simulation run is single-threaded; independent runs
may share nothing and can execute in parallel.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

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
        if self.qubits < 1:
            raise ValueError(f"task {self.id}: qubits must be >= 1, got {self.qubits}")
        if self.depth < 1:
            raise ValueError(f"task {self.id}: depth must be >= 1, got {self.depth}")
        if self.shots < 1:
            raise ValueError(f"task {self.id}: shots must be >= 1, got {self.shots}")
        if self.two_qubit_gates < 0:
            raise ValueError(f"task {self.id}: two_qubit_gates must be >= 0")
        if not 0 <= self.measured_qubits <= self.qubits:
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
    connected and the directed graph acyclic.
    """

    id: str
    tasks: tuple[TaskSpec, ...]
    edges: frozenset[tuple[int, int]] = frozenset()
    arrival_time: float = 0.0
    priority: int = 0

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
        if self.arrival_time < 0:
            raise ValueError(f"workflow {self.id}: negative arrival time")
        if not _is_acyclic(n, self.edges):
            raise ValueError(f"workflow {self.id}: task graph has a cycle")
        if not _skeleton_connected(n, self.edges):
            raise ValueError(f"workflow {self.id}: task graph skeleton is disconnected")

    @property
    def total_qubits(self) -> int:
        return sum(t.qubits for t in self.tasks)

    def skeleton(self) -> frozenset[tuple[int, int]]:
        """Undirected edge set (each edge as a sorted index pair)."""
        return frozenset(tuple(sorted(e)) for e in self.edges)

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; ties broken by ascending task index."""
        n = len(self.tasks)
        indeg = [0] * n
        succ: list[list[int]] = [[] for _ in range(n)]
        for a, b in sorted(self.edges):
            indeg[b] += 1
            succ[a].append(b)
        ready = sorted(i for i in range(n) if indeg[i] == 0)
        order = []
        while ready:
            u = ready.pop(0)
            order.append(u)
            for v in sorted(succ[u]):
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
            ready.sort()
        return order


@dataclass
class QpuNode:
    """One quantum device with calibration data and live queue state.

    Error rates are probabilities in [0, 1); runtimes and coherence times are
    seconds; ``d1cps`` is depth-1 circuit layers per second (the device speed
    figure). ``next_available_time`` is monotonically nondecreasing over a
    simulation run.
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
    next_available_time: float = 0.0
    queue: list = field(default_factory=list)

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"node {self.id}: qubits must be >= 1")
        for name in ("readout_error", "one_qubit_error", "two_qubit_error"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"node {self.id}: {name} must be in [0, 1), got {v}")
        for name in (
            "one_qubit_runtime",
            "two_qubit_runtime",
            "readout_runtime",
            "t1",
            "t2",
            "d1cps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"node {self.id}: {name} must be > 0")


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

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Neighbor indices per node, ascending; built once and cached."""
        cached = getattr(self, "_adjacency", None)
        if cached is None:
            lists: dict[int, list[int]] = {k: [] for k in range(len(self.nodes))}
            for a, b in self.links:
                lists[a].append(b)
                lists[b].append(a)
            cached = {k: tuple(sorted(v)) for k, v in lists.items()}
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def is_connected(self) -> bool:
        n = len(self.nodes)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.adjacency()[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n


@dataclass(frozen=True)
class NetworkParams:
    """Link-model parameters shared by every link in the network.

    ``transmission_efficiency`` is a dimensionless linear factor by default
    (1.0 makes the switch attenuation term vanish). Set ``eta_in_db`` to
    interpret the value as decibels instead.
    """

    success_probability: float = 0.5
    transmission_efficiency: float = 1.0
    switch_count: int = 1
    classical_latency: float = 0.02
    eta_in_db: bool = False

    def __post_init__(self):
        if not 0.0 <= self.success_probability <= 1.0:
            raise ValueError("success_probability must be in [0, 1]")
        if self.transmission_efficiency <= 0:
            raise ValueError("transmission_efficiency must be > 0")
        if self.switch_count < 0:
            raise ValueError("switch_count must be >= 0")
        if self.classical_latency < 0:
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
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be nonnegative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
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


def _skeleton_connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    if n == 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def _is_acyclic(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        indeg[b] += 1
        succ[a].append(b)
    ready = [i for i in range(n) if indeg[i] == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return removed == n
