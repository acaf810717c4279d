"""Seeded generation of task catalogs, workflows, arrival processes and
network topologies.

Task metadata comes from closed-form per-family formulas (no external
benchmark dependency); a measured catalog can be imported from CSV instead.
Workflow shapes are random spanning arborescences over the tasks plus
forward chords, which covers chains, stars and diamonds. Topologies draw
each link independently and are repaired to connectivity with a uniform
random spanning tree over the components.

Everything is driven by explicit ``random.Random`` instances, so identical
seeds reproduce identical objects byte-for-byte on export.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .model import PROGRAM_FAMILIES, QpuNode, ResourceNetwork, TaskSpec, Workflow, check_count, components
from .profiles import node_from_profile

DEFAULT_PROFILE_POOL = ("brisbane", "torino", "marrakesh")
DEFAULT_QUBIT_RANGE = (5, 100)
RANDOM_CIRCUIT_DEPTH_BAND = (5, 50)
GRAPH_STATE_CHORD_PROB = 0.1
WORKFLOW_CHORD_PROB = 0.2
CATALOG_COLUMNS = ("id", "family", "qubits", "depth", "two_qubit_gates", "measured_qubits", "shots")


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one generated workload batch.

    ``arrival_rate`` is workflows per second; when omitted it is chosen so
    the batch spans roughly ten simulated seconds. ``tasks_per_group_min``
    defaults to 1 (task counts drawn uniformly in [1, tasks_per_group]);
    raising it pins larger workflows.
    """

    batch_size: int = 50
    tasks_per_group: int = 3
    qubit_range: tuple[int, int] = DEFAULT_QUBIT_RANGE
    arrival_rate: float | None = None
    seed: int = 0
    shots_default: int = 1000
    tasks_per_group_min: int = 1

    def __post_init__(self):
        for name in ("batch_size", "tasks_per_group", "tasks_per_group_min", "shots_default"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 1))
        if self.tasks_per_group > 5:
            raise ValueError("tasks_per_group must be in [1, 5]")
        if self.tasks_per_group_min > self.tasks_per_group:
            raise ValueError("tasks_per_group_min must be in [1, tasks_per_group]")
        lo, hi = self.qubit_range
        lo = check_count("qubit_range low end", lo, 1)
        object.__setattr__(self, "qubit_range", (lo, check_count("qubit_range high end", hi, lo)))
        if self.arrival_rate is not None and not self.arrival_rate > 0:
            raise ValueError(f"arrival_rate must be > 0, got {self.arrival_rate}")

    @property
    def effective_rate(self) -> float:
        return self.arrival_rate if self.arrival_rate is not None else self.batch_size / 10.0


@dataclass(frozen=True)
class TopologySpec:
    """Shape of one generated resource network."""

    node_count: int = 5
    link_probability: float = 0.5
    profile_pool: tuple[str, ...] = DEFAULT_PROFILE_POOL
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "node_count", check_count("node_count", self.node_count, 1))
        if not 0.0 <= self.link_probability <= 1.0:
            raise ValueError("link_probability must be in [0, 1]")
        if not self.profile_pool:
            raise ValueError("profile_pool must be nonempty")


def generate_task(
    family: str,
    qubits: int,
    rng: random.Random,
    shots: int = 1000,
    task_id: str | None = None,
    depth_band: tuple[int, int] = RANDOM_CIRCUIT_DEPTH_BAND,
) -> TaskSpec:
    """Build task metadata from the family's closed-form size model.

    The formulas are documented constants: a GHZ ladder on n qubits has
    depth n+1, n-1 entangling gates and measures every qubit; a QFT has the
    quadratic n(n-1)/2 controlled-rotation count; variational families use
    fixed layer counts; modular-arithmetic circuits grow quadratically.
    Randomness enters only for graph-state chord draws and the random-circuit
    depth band.
    """
    family = family.strip().lower()
    n = qubits
    if family not in PROGRAM_FAMILIES:
        raise ValueError(f"unknown program family {family!r}")
    if family == "ghz":
        depth, g2, mq = n + 1, n - 1, n
    elif family == "qft":
        depth, g2, mq = max(n * (n + 1) // 2, 1), n * (n - 1) // 2, n
    elif family == "graphstate":
        ring = n if n >= 3 else (1 if n == 2 else 0)
        chords = 0
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # ring edge
                if rng.random() < GRAPH_STATE_CHORD_PROB:
                    chords += 1
        g2 = ring + chords
        depth = 2 + math.ceil(2 * g2 / n)
        mq = n
    elif family == "randomcircuit":
        depth = rng.randint(depth_band[0], depth_band[1])
        g2, mq = depth * n // 2, n
    elif family == "grover":
        depth, g2, mq = 2 * n + 4, 2 * (n - 1), n
    elif family == "dj":
        depth, g2, mq = 5, n - 1, max(n - 1, 1)
    elif family == "qaoa":
        depth, g2, mq = 14, 4 * n, n
    elif family == "qnn":
        depth, g2, mq = 14, 3 * (n - 1), n
    elif family == "vqe":
        depth, g2, mq = 10, 2 * (n - 1), n
    elif family == "qpe":
        depth, g2, mq = n * (n + 1) // 2 + 2 * n, n * (n - 1) // 2 + (n - 1), max(n - 1, 1)
    elif family == "ae":
        depth, g2, mq = n * (n + 1) // 2 + 3 * n, n * (n - 1) // 2 + 2 * (n - 1), max(n - 1, 1)
    elif family == "groundstate":
        depth, g2, mq = 18, 4 * (n - 1), n
    else:  # shor
        depth, g2, mq = 4 * n * n, 2 * n * n, n
    return TaskSpec(
        id=task_id or f"{family}-{n}",
        qubits=n,
        depth=depth,
        two_qubit_gates=g2,
        measured_qubits=mq,
        shots=shots,
        program_family=family,
    )


def generate_catalog(
    size: int,
    qubit_range: tuple[int, int] = DEFAULT_QUBIT_RANGE,
    seed: int = 0,
    families: tuple[str, ...] = PROGRAM_FAMILIES,
    shots: int = 1000,
) -> list[TaskSpec]:
    """Sample a catalog of tasks with uniform families and qubit counts."""
    rng = random.Random(seed)
    catalog = []
    for i in range(size):
        family = rng.choice(list(families))
        qubits = rng.randint(qubit_range[0], qubit_range[1])
        catalog.append(generate_task(family, qubits, rng, shots=shots, task_id=f"{family}-{qubits}-{i}"))
    return catalog


def export_task_catalog(catalog: list[TaskSpec], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CATALOG_COLUMNS)
        for t in catalog:
            writer.writerow(
                [t.id, t.program_family, t.qubits, t.depth, t.two_qubit_gates, t.measured_qubits, t.shots]
            )


def import_task_catalog(path: str | Path) -> list[TaskSpec]:
    """Parse a CSV task catalog; parse problems report the offending line,
    invariant violations the offending field."""
    catalog = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CATALOG_COLUMNS:
            raise ValueError(f"{path}: line 1: expected header {','.join(CATALOG_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(CATALOG_COLUMNS):
                raise ValueError(f"{path}: line {lineno}: expected {len(CATALOG_COLUMNS)} fields")
            try:
                task = TaskSpec(
                    id=row[0].strip(),
                    program_family=row[1].strip().lower(),
                    qubits=int(row[2]),
                    depth=int(row[3]),
                    two_qubit_gates=int(row[4]),
                    measured_qubits=int(row[5]),
                    shots=int(row[6]),
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            catalog.append(task)
    return catalog


def random_connected_dag(n: int, rng: random.Random) -> frozenset[tuple[int, int]]:
    """Random DAG over 0..n-1 whose skeleton is connected: a spanning
    arborescence (every task after the first depends on an earlier one) plus
    independent forward chords."""
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < WORKFLOW_CHORD_PROB:
                edges.add((i, j))
    return frozenset(edges)


def generate_workload(spec: WorkloadSpec, catalog: list[TaskSpec]) -> list[Workflow]:
    """Draw a batch of workflows with exponential inter-arrival gaps.

    Tasks are sampled uniformly from the qubit-range-filtered catalog; task
    counts are uniform in [tasks_per_group_min, tasks_per_group]; arrival
    times are cumulative sums of Exponential(rate) gaps.
    """
    lo, hi = spec.qubit_range
    filtered = [t for t in catalog if lo <= t.qubits <= hi]
    if not filtered:
        raise ValueError(f"catalog has no tasks within qubit range [{lo}, {hi}]")
    rng = random.Random(spec.seed)
    rate = spec.effective_rate
    workflows = []
    clock = 0.0
    for i in range(spec.batch_size):
        clock += rng.expovariate(rate)
        count = rng.randint(spec.tasks_per_group_min, spec.tasks_per_group)
        tasks = tuple(rng.choice(filtered) for _ in range(count))
        edges = random_connected_dag(count, rng)
        workflows.append(
            Workflow(id=f"wf-{i:04d}", tasks=tasks, edges=edges, arrival_time=clock)
        )
    return workflows


def export_workload(workflows: list[Workflow], path: str | Path) -> None:
    """Round-trippable JSON dump of a workload."""
    payload = {
        "workflows": [
            {
                "id": wf.id,
                "arrival_time": wf.arrival_time,
                "priority": wf.priority,
                "edges": sorted(list(e) for e in wf.edges),
                "tasks": [
                    {
                        "id": t.id,
                        "family": t.program_family,
                        "qubits": t.qubits,
                        "depth": t.depth,
                        "two_qubit_gates": t.two_qubit_gates,
                        "measured_qubits": t.measured_qubits,
                        "shots": t.shots,
                    }
                    for t in wf.tasks
                ],
            }
            for wf in workflows
        ]
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def import_workload(path: str | Path) -> list[Workflow]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    workflows = []
    for rec in payload["workflows"]:
        tasks = tuple(
            TaskSpec(
                id=t["id"],
                program_family=t["family"],
                qubits=t["qubits"],
                depth=t["depth"],
                two_qubit_gates=t["two_qubit_gates"],
                measured_qubits=t["measured_qubits"],
                shots=t["shots"],
            )
            for t in rec["tasks"]
        )
        workflows.append(
            Workflow(
                id=rec["id"],
                tasks=tasks,
                edges=frozenset(tuple(e) for e in rec["edges"]),
                arrival_time=rec["arrival_time"],
                priority=rec.get("priority", 0),
            )
        )
    return workflows


def _uniform_spanning_tree_edges(m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on m vertices via a Prufer sequence."""
    if m == 1:
        return []
    if m == 2:
        return [(0, 1)]
    prufer = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def generate_network(
    spec: TopologySpec, profiles: dict[str, dict[str, float]]
) -> ResourceNetwork:
    """Random topology: profiles drawn with replacement, links drawn iid
    with the configured probability, then connectivity repaired by joining
    components along a uniform random spanning tree."""
    rng = random.Random(spec.seed)
    nodes: list[QpuNode] = []
    for k in range(spec.node_count):
        name = rng.choice(list(spec.profile_pool))
        nodes.append(node_from_profile(name, profiles, node_id=f"{name}-{k}"))

    links = set()
    n = spec.node_count
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < spec.link_probability:
                links.add((a, b))

    members = components(n, links)
    if len(members) > 1:
        for ca, cb in _uniform_spanning_tree_edges(len(members), rng):
            a = rng.choice(members[ca])
            b = rng.choice(members[cb])
            links.add((min(a, b), max(a, b)))

    return ResourceNetwork(nodes=tuple(nodes), links=frozenset(links))

