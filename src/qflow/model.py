"""Core domain types: tasks, workflows, QPU nodes, networks, and allocations.

All types are immutable value records. A :class:`QpuNode` holds calibration
only; availability is simulation state
(:class:`qflow.simulation.SimState`), so runs and decisions may share a
network, and the calibration classes, cost terms and group streams each
:class:`ResourceNetwork` caches (:attr:`ResourceNetwork.term_caches`,
:attr:`ResourceNetwork.group_streams`) stay valid for its life. A
simulation run is single-threaded; independent runs can execute in
parallel.

The graph helpers at the end (:func:`adjacency_masks`, :func:`components`)
build the neighbour bitmasks and components the other modules use; a
:class:`Workflow` validates from bitmasks of each task's predecessors and
successors. Each workflow and network derives its views once and holds them
as plain attributes (``skeleton``, ``topological_order``, ``neighbour_masks``,
``degree_masks``, ``dfs_order``); the neighbour bitmasks answer the link
half of :func:`mapping_feasible`, as they do for the matcher's search. A
network also keeps the hosts with at least q qubits per count q
(:meth:`ResourceNetwork.qubit_mask`, ORed from the calibration classes'
host masks) and the hosts of a bitmask as a tuple
(:attr:`ResourceNetwork.host_tuples`), each filled at its key's first read.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter, index, or_
from typing import NamedTuple

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


def check_count(name: str, value: float, minimum: float) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a whole
    number ``>= minimum``. A bool, a value that is no number (a string, a
    list, None), NaN, an infinite or a fractional value fails; an integral
    float such as ``6.0`` passes and returns ``6``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a whole number, not a bool, got {value}")
    try:
        if value != value:  # NaN
            raise ValueError(f"{name} must be a whole number, got nan")
        if not value >= minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if value % 1:  # inf % 1 is NaN, which is true
            raise ValueError(f"{name} must be a finite whole number, got {value}")
    except TypeError:  # a comparison or remainder on a value that is no number
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None
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
        try:  # not through __dict__, which would build the instance dict and slow every later read
            for name, minimum in counts:
                value = getattr(self, name)
                if type(value) is int and value >= minimum:  # a bool's type is bool, so it is checked below
                    continue
                if (count := check_count(name, value, minimum)) is not value:
                    object.__setattr__(self, name, count)
        except ValueError as exc:
            raise ValueError(f"task {self.id}: {exc}") from None
        if self.measured_qubits > self.qubits:
            raise ValueError(
                f"task {self.id}: measured_qubits must be in [0, qubits], "
                f"got {self.measured_qubits} with qubits={self.qubits}"
            )
        if self.program_family not in PROGRAM_FAMILIES:
            raise ValueError(f"task {self.id}: unknown program family {self.program_family!r}")

    def __hash__(self) -> int:
        # Equal specs have equal ids, so hashing the id alone agrees with
        # ``__eq__`` and costs one str hash instead of a tuple of all seven
        # fields per term-cache lookup. It is computed per call, so a pickled
        # spec hashes with the receiving process's str hashes.
        return hash(self.id)


@dataclass(frozen=True, init=False)
class Workflow:
    """A DAG of tasks submitted as one user request.

    ``edges`` are directed (dependency order, used for execution gating);
    constraint checking uses the undirected skeleton. The skeleton must be
    connected and the directed graph acyclic. Validation keeps the
    topological order it computes (:attr:`topological_order`: task indices
    in dependency order, the least ready index first); the skeleton is
    derived on first use.
    """

    id: str
    tasks: tuple[TaskSpec, ...]
    edges: frozenset[tuple[int, int]] = frozenset()
    arrival_time: float = 0.0
    priority: int = 0
    topological_order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, id, tasks, edges=frozenset(), arrival_time=0.0, priority=0):
        # the fields go straight into the instance dict, in field order, where a generated
        # frozen __init__ makes five object.__setattr__ calls; the skeleton cache needs the dict anyway
        fields = self.__dict__
        fields["id"] = id
        fields["tasks"] = tasks
        fields["edges"] = edges
        fields["arrival_time"] = arrival_time
        fields["priority"] = priority
        n = len(tasks)
        if n < 1:
            raise ValueError(f"workflow {id}: needs at least one task")
        fields["tasks"] = tuple(tasks)
        preds, succs = [0] * n, [0] * n  # each task's, as bitmasks: bit k for task k
        pairs = []  # ``edges`` is read once, so a one-shot iterable keeps the pairs it validated
        try:
            for edge in edges:
                try:
                    a, b = edge
                except (TypeError, ValueError):  # not iterable, or not two items
                    raise ValueError(f"workflow {id}: edge {edge!r} is not a pair of task indices") from None
                try:
                    if not (0 <= a < n and 0 <= b < n):
                        raise ValueError(f"workflow {id}: edge ({a},{b}) out of range")
                    if a == b:
                        raise ValueError(f"workflow {id}: self-loop on task {a}")
                    succs[a] |= 1 << b
                    preds[b] |= 1 << a
                except TypeError:  # a comparison, index or shift on a non-integer endpoint
                    raise ValueError(f"workflow {id}: edge ({a!r},{b!r}) needs integer task indices") from None
                pairs.append((a, b))
        except TypeError:  # the body raises none, so ``edges`` itself is not iterable
            raise ValueError(
                f"workflow {id}: edges must be a collection of task index pairs, got {edges!r}"
            ) from None
        fields["edges"] = frozenset(pairs)
        if not 0 <= arrival_time < math.inf:
            raise ValueError(f"workflow {id}: arrival time must be finite and >= 0, got {arrival_time}")
        if n == 1:  # no edge passed the checks above; one order
            fields["topological_order"] = (0,)
            return
        ready = done = 0  # Kahn's order, least ready task first; a pop tests only its successors
        for v, p in enumerate(preds):
            if not p:
                ready |= 1 << v
        order = []
        while ready:
            low = ready & -ready
            ready ^= low
            done |= low
            order.append(u := low.bit_length() - 1)
            s = succs[u]
            while s:
                bit = s & -s
                s ^= bit
                if not preds[bit.bit_length() - 1] & ~done:
                    ready |= bit
        if len(order) < n:
            raise ValueError(f"workflow {id}: task graph has a cycle")
        seen = frontier = 1  # a flood of the skeleton from task 0
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            new = (preds[u] | succs[u]) & ~seen
            seen |= new
            frontier = frontier ^ (1 << u) | new  # u leaves, the new tasks join
        if seen != done:
            raise ValueError(f"workflow {id}: task graph skeleton is disconnected")
        fields["topological_order"] = tuple(order)

    @property
    def total_qubits(self) -> int:
        return sum(t.qubits for t in self.tasks)

    @cached_property
    def skeleton(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as ascending index pairs, in sorted order."""
        # an acyclic graph has no pair of opposite edges, so no pair repeats
        return tuple(sorted((a, b) if a < b else (b, a) for a, b in self.edges))


# A QpuNode's eight calibration fields are its qubits, these error rates and these positive figures.
_ERROR_RATES = ("readout_error", "one_qubit_error", "two_qubit_error")
_POSITIVE = ("two_qubit_runtime", "t1", "t2", "d1cps")
_calibration = attrgetter("qubits", *_ERROR_RATES, *_POSITIVE)


@dataclass(frozen=True)
class QpuNode:
    """One quantum device: its id and its eight calibration fields.

    Error rates are probabilities in [0, 1); the gate and coherence times are
    seconds; ``d1cps`` is depth-1 circuit layers per second (the device speed
    figure). The node is frozen, so the cost terms its network caches stay
    valid; the simulator holds each node's free time.
    """

    id: str
    qubits: int
    readout_error: float
    one_qubit_error: float
    two_qubit_error: float
    two_qubit_runtime: float
    t1: float
    t2: float
    d1cps: float
    # Class attributes, not fields: read only by perfbench/run.py:check_idle.
    next_available_time = 0.0
    queue = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", check_count(f"node {self.id}: qubits", self.qubits, 1))
        for name in _ERROR_RATES:
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"node {self.id}: {name} must be in [0, 1), got {v}")
        for name in _POSITIVE:
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"node {self.id}: {name} must be > 0 and finite, got {v}")
        hm = 2.0 * self.t1 * self.t2 / (self.t1 + self.t2)  # as costs.quantum_link_cost takes it
        if not hm >= sys.float_info.min:
            raise ValueError(f"node {self.id}: 2 * t1 * t2 / (t1 + t2) must be >= {sys.float_info.min}, got {hm}")


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
        try:
            for link in self.links:
                try:
                    a, b = link
                except (TypeError, ValueError):  # not iterable, or not two items
                    raise ValueError(f"link {link!r} is not a pair of node indices") from None
                try:
                    if not (0 <= index(a) < n and 0 <= index(b) < n):
                        raise ValueError(f"link ({a},{b}) out of range")
                except TypeError:  # operator.index on a non-integer endpoint
                    raise ValueError(f"link ({a!r},{b!r}) needs integer node indices") from None
                if a == b:
                    raise ValueError(f"self-loop on node {a}")
                norm.add((a, b) if a < b else (b, a))
        except TypeError:  # the body raises none, so ``links`` itself is not iterable
            raise ValueError(f"links must be a collection of node index pairs, got {self.links!r}") from None
        object.__setattr__(self, "links", frozenset(norm))

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Each node's neighbours as a host bitmask, bit k for node k."""
        return tuple(adjacency_masks(len(self.nodes), self.links))

    @cached_property
    def calibration_classes(self) -> tuple[tuple[QpuNode, ...], tuple[int, ...], tuple[int, ...]]:
        """The nodes grouped by their eight calibration fields (``id`` is not
        part of the key), in order of first appearance:
        one representative node and one host bitmask per class, then each
        node's class index. Nodes of a class have equal cost terms."""
        ids: dict[tuple, int] = {}
        reps, masks, of_node = [], [], []
        for k, node in enumerate(self.nodes):  # one pass: a new class's first node is its representative
            if (c := ids.setdefault(_calibration(node), len(ids))) == len(reps):
                reps.append(node)
                masks.append(0)
            masks[c] |= 1 << k
            of_node.append(c)
        return tuple(reps), tuple(masks), tuple(of_node)

    @cached_property
    def dfs_order(self) -> tuple[int, ...]:
        """Depth-first traversal order: start at the node with the fewest
        qubits, visit neighbours in ascending qubit order, and restart from
        the next unvisited minimum-qubit node if the graph is a forest. Ties
        in qubits go to the lower index."""
        n = len(self.nodes)
        key = lambda k: (self.nodes[k].qubits, k)
        masks = self.neighbour_masks
        visited, seen = [], 0  # seen as a host bitmask
        for start in sorted(range(n), key=key):
            stack = [start]
            while stack:
                u = stack.pop()
                if seen >> u & 1:
                    continue
                seen |= 1 << u
                visited.append(u)
                fresh = masks[u] & ~seen
                stack += sorted((v for v in range(n) if fresh >> v & 1), key=key, reverse=True)
        return tuple(visited)

    @cached_property
    def degree_masks(self) -> tuple[int, ...]:
        """Per degree d from 0 to the greatest node degree, the nodes with at
        least d neighbours as a host bitmask: the nodes bucketed by exact
        degree, the buckets ORed from the greatest degree down."""
        degrees = [mask.bit_count() for mask in self.neighbour_masks]
        exact = [0] * (max(degrees) + 1)
        for k, d in enumerate(degrees):
            exact[d] |= 1 << k
        return tuple(accumulate(reversed(exact), or_))[::-1]

    @cached_property
    def _qubit_masks(self) -> dict[int, int]:
        return {}

    def qubit_mask(self, qubits: int) -> int:
        """The nodes with at least ``qubits`` qubits as a host bitmask: the
        host masks of the calibration classes whose representative has that
        many (``qubits`` is a calibration field), ORed at the count's first
        read and kept for the network's life."""
        mask = self._qubit_masks.get(qubits)
        if mask is None:  # a mask of 0 is kept too, not recomputed
            reps, masks, _ = self.calibration_classes
            mask = 0
            for rep, hosts in zip(reps, masks):
                if rep.qubits >= qubits:
                    mask |= hosts
            self._qubit_masks[qubits] = mask
        return mask

    @cached_property
    def host_tuples(self) -> dict[int, tuple[int, ...]]:
        """Per host bitmask, its hosts ascending as a tuple
        (``tuple(mask_hosts(mask))``), stored by
        :func:`qflow.allocators.random_aware` at the mask's first read and
        kept for the network's life."""
        return {}

    @cached_property
    def term_caches(self) -> dict[NetworkParams, dict]:
        """Per :class:`NetworkParams`, the store, keyed by :class:`TaskSpec`,
        in which :func:`qflow.costs.task_terms` keeps the static cost terms
        of tasks on these nodes; kept for the network's life. Sound because
        nodes are frozen."""
        return {}

    @cached_property
    def group_streams(self) -> dict[tuple, list | bool]:
        """The store in which :func:`qflow.matcher.workflow_monomorphisms`
        keeps, keyed by skeleton and task domains, the complete group
        streams it searched at a key's first read and replays on these
        nodes, and ``False`` for a key whose group bound is over
        ``REPLAY_MAX_GROUPS``; kept for the network's life. Sound because a
        stream depends only on its key and the links."""
        return {}


@dataclass(frozen=True)
class NetworkParams:
    """Link-model parameters shared by every link in the network.

    ``transmission_efficiency`` is a dimensionless linear factor by default
    (1.0 makes the switch attenuation term vanish) and must be > 0. Set
    ``eta_in_db`` to interpret the value as decibels instead: any finite
    value, 0 dB being lossless and a loss negative. NaN is rejected in
    either mode, as are NaN and infinity for ``classical_latency``, and so
    is a value whose attenuation ``eta_linear ** switch_count`` overflows
    or falls below the least normal float (a subnormal one overflows the
    link cost).
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
        if not sys.float_info.min <= attenuation < math.inf:
            raise ValueError("transmission_efficiency ** switch_count must be a normal positive finite float")
        if not 0 <= self.classical_latency < math.inf:
            raise ValueError("classical_latency must be >= 0 and finite")

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


class Allocation(NamedTuple):
    """Injective task-index -> node-index assignment for one workflow, kept as given."""

    assignment: dict[int, int]
    cost_breakdown: "CostBreakdown | None" = None


def mapping_feasible(
    mapping: Mapping[int, int] | Sequence[int], workflow: Workflow, network: ResourceNetwork
) -> bool:
    """True iff every workflow edge lands on a network link and every task
    fits its node's qubit capacity; ``mapping[j]`` is task j's node index.
    Injectivity is not checked here."""
    masks = network.neighbour_masks
    for a, b in workflow.skeleton:
        if not masks[mapping[a]] >> mapping[b] & 1:
            return False
    for j, task in enumerate(workflow.tasks):
        if task.qubits > network.nodes[mapping[j]].qubits:
            return False
    return True


def validate_allocation(workflow: Workflow, network: ResourceNetwork, allocation: Allocation) -> bool:
    """Check injectivity, link coverage of workflow edges, and qubit capacity.

    Returns False on a constraint violation; a task or node index out of
    range is a structural error and raises ValueError naming the workflow.
    """
    n_tasks = len(workflow.tasks)
    n_nodes = len(network.nodes)
    assignment = allocation.assignment
    for j, k in assignment.items():
        if not 0 <= j < n_tasks:
            raise ValueError(f"workflow {workflow.id}: allocation references task index {j} out of range")
        if not 0 <= k < n_nodes:
            raise ValueError(f"workflow {workflow.id}: allocation references node index {k} out of range")
    if len(assignment) != n_tasks:
        return False
    if len(set(assignment.values())) != n_tasks:
        return False
    return mapping_feasible(assignment, workflow, network)


def adjacency_masks(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Each vertex 0..n-1's neighbours in the undirected graph of ``pairs``
    as a bitmask, bit k for vertex k."""
    masks = [0] * n
    for a, b in pairs:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the undirected graph on 0..n-1, each as an
    ascending vertex list, ordered by their least vertex."""
    adjacency = adjacency_masks(n, edges)
    found = []
    rest = (1 << n) - 1  # the vertices not yet reached
    while rest:
        seen = frontier = rest & -rest  # a flood from the least of them
        while frontier:
            low = frontier & -frontier
            new = adjacency[low.bit_length() - 1] & ~seen
            seen |= new
            frontier = frontier ^ low | new  # low leaves, the new vertices join
        rest ^= seen
        found.append([v for v in range(n) if seen >> v & 1])
    return found
