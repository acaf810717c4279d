"""Seeded generation of task catalogs, workflows, arrival processes and
network topologies.

Task metadata comes from closed-form per-family formulas (no external
benchmark dependency); a measured catalog can be imported from CSV instead.
Workflow shapes are random spanning arborescences over the tasks plus
forward chords, which covers chains, stars and diamonds. Topologies draw
each link independently and are repaired to connectivity with a uniform
random spanning tree over the components.

Everything is driven by explicit ``random.Random`` instances, so identical
seeds reproduce equal objects. The catalog, workload and DAG builders read
the generator's 32-bit words in place. An integer below n is drawn as
``Random.randrange(n)`` draws it: ``getrandbits(n.bit_length())``, one
word, drawn again while it is n or more; so their ``choice``, ``randint``
and ``randrange`` become that loop where the value is used, and an
exponential gap is ``expovariate``'s ``-log(1.0 - random()) / rate``. A
graph state's chord draws are read in bulk, ``getrandbits`` a few thousand
draws at a time. Each draw is the same number, read from the same words in
the same order, that the ``Random`` method would return, and leaves the
generator in the same state. The network builder and a random circuit's
depth call the ``Random`` methods themselves.
"""

from __future__ import annotations

import csv
import heapq
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
# The TaskSpec attribute each catalog column holds, in column order.
_TASK_ATTRS = tuple("program_family" if column == "family" else column for column in CATALOG_COLUMNS)
# Graph-state chord draws are read this many at a time, as the generator's
# words: 2 words, 8 bytes, per draw, so a read holds 32 KB whatever the task.
_CHORD_CHUNK = 4096
# A draw whose first word has top byte t lies in [t/256, (t+1)/256). Each
# top byte marks its draw as surely under GRAPH_STATE_CHORD_PROB (_BELOW),
# as needing the exact value (_EDGE, the byte whose interval holds the
# probability) or as surely not under it (0).
_BELOW, _EDGE = 1, 2
_CHORD_MARKS = bytes(
    _BELOW if (t + 1) / 256 <= GRAPH_STATE_CHORD_PROB else _EDGE if t / 256 < GRAPH_STATE_CHORD_PROB else 0
    for t in range(256)
)


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
        try:
            lo, hi = self.qubit_range
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ValueError(f"qubit_range must be a pair of qubit counts, got {self.qubit_range!r}") from None
        lo = check_count("qubit_range low end", lo, 1)
        object.__setattr__(self, "qubit_range", (lo, check_count("qubit_range high end", hi, lo)))
        rate = self.arrival_rate
        if rate is not None and not (isinstance(rate, (int, float)) and rate > 0):
            raise ValueError(f"arrival_rate must be > 0, got {rate!r}")

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
        if isinstance(self.profile_pool, str):
            raise ValueError(f"profile_pool must be a list of profile names, not the string {self.profile_pool!r}")
        object.__setattr__(self, "profile_pool", tuple(self.profile_pool))
        if not self.profile_pool:
            raise ValueError("profile_pool must be nonempty")


def generate_task(
    family: str,
    qubits: int,
    rng: random.Random,
    shots: int = 1000,
    task_id: str | None = None,
) -> TaskSpec:
    """Build task metadata from the family's closed-form size model.

    The formulas are documented constants: a GHZ ladder on n qubits has
    depth n+1, n-1 entangling gates and measures every qubit; a QFT has the
    quadratic n(n-1)/2 controlled-rotation count; variational families use
    fixed layer counts; modular-arithmetic circuits grow quadratically.
    Randomness enters only for graph-state chord draws and the random-circuit
    depth band. The chord draws are read in bulk as ``rng``'s words, two
    words per draw as ``rng.random()`` takes them, so they are the same
    numbers and ``rng`` ends in the same state; a draw is compared whole
    only when its first word's top byte cannot settle it. An unknown family
    draws nothing, and :class:`TaskSpec` rejects it with a ValueError
    naming the task.
    """
    family = family.strip().lower()
    n = qubits
    if family == "ghz":
        depth, g2, mq = n + 1, n - 1, n
    elif family == "qft":
        depth, g2, mq = max(n * (n + 1) // 2, 1), n * (n - 1) // 2, n
    elif family == "graphstate":
        ring = n if n >= 3 else (1 if n == 2 else 0)
        # one draw per non-ring pair i < j: j >= i + 2, the ring's closing
        # pair (0, n-1) excepted; only the count under the probability is kept
        draws, chords = (n - 1) * (n - 2) // 2 - 1 if n >= 3 else 0, 0
        while draws > 0:
            m = _CHORD_CHUNK if draws > _CHORD_CHUNK else draws
            draws -= m
            # the 2m words that m rng.random() calls consume, in order, each little-endian
            raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
            marks = raw[3::8].translate(_CHORD_MARKS)  # each draw's first word's top byte
            chords += marks.count(_BELOW)
            k = marks.find(_EDGE)
            while k >= 0:  # settled as random() forms a draw from its words a and b
                pair = int.from_bytes(raw[8 * k : 8 * k + 8], "little")
                a, b = pair & 0xFFFFFFFF, pair >> 32
                if ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0) < GRAPH_STATE_CHORD_PROB:
                    chords += 1
                k = marks.find(_EDGE, k + 1)
        g2 = ring + chords
        depth = 2 + math.ceil(2 * g2 / n)
        mq = n
    elif family == "randomcircuit":
        depth = rng.randint(*RANDOM_CIRCUIT_DEPTH_BAND)
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
    shots: int = 1000,
) -> list[TaskSpec]:
    """Sample a catalog of tasks with uniform families and qubit counts; a
    qubit range that is empty or not of whole numbers >= 1 raises ValueError."""
    lo = check_count("qubit_range low end", qubit_range[0], 1)
    span = check_count("qubit_range high end", qubit_range[1], lo) - lo + 1
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    families = len(PROGRAM_FAMILIES)
    family_bits, span_bits = families.bit_length(), span.bit_length()
    catalog = []
    for i in range(size):
        r = getrandbits(family_bits)  # rng.choice(PROGRAM_FAMILIES)
        while r >= families:
            r = getrandbits(family_bits)
        family = PROGRAM_FAMILIES[r]
        r = getrandbits(span_bits)  # rng.randint(lo, hi)
        while r >= span:
            r = getrandbits(span_bits)
        qubits = lo + r
        catalog.append(generate_task(family, qubits, rng, shots=shots, task_id=f"{family}-{qubits}-{i}"))
    return catalog


def export_task_catalog(catalog: list[TaskSpec], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CATALOG_COLUMNS)
        for t in catalog:
            writer.writerow([getattr(t, attr) for attr in _TASK_ATTRS])


def import_task_catalog(path: str | Path) -> list[TaskSpec]:
    """Parse a CSV task catalog; parse problems report the offending line,
    invariant violations the offending field."""
    catalog = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
                task_id, family, *counts = (cell.strip() for cell in row)
                task = TaskSpec(**dict(zip(_TASK_ATTRS, (task_id, family.lower(), *map(int, counts)))))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            catalog.append(task)
    return catalog


def random_connected_dag(n: int, rng: random.Random) -> frozenset[tuple[int, int]]:
    """Random DAG over 0..n-1 whose skeleton is connected: a spanning
    arborescence (every task after the first depends on an earlier one) plus
    independent forward chords. Task i's parent is ``rng.randrange(i)``,
    drawn in place."""
    getrandbits, draw = rng.getrandbits, rng.random
    edges = set()
    for i in range(1, n):
        k = i.bit_length()
        r = getrandbits(k)
        while r >= i:
            r = getrandbits(k)
        edges.add((r, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and draw() < WORKFLOW_CHORD_PROB:
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
    getrandbits, draw = rng.getrandbits, rng.random
    rate = spec.effective_rate
    least = spec.tasks_per_group_min
    counts = spec.tasks_per_group - least + 1
    choices = len(filtered)
    count_bits, choice_bits = counts.bit_length(), choices.bit_length()
    workflows = []
    clock = 0.0
    for i in range(spec.batch_size):
        clock += -math.log(1.0 - draw()) / rate  # rng.expovariate(rate)
        r = getrandbits(count_bits)  # rng.randint(least, spec.tasks_per_group)
        while r >= counts:
            r = getrandbits(count_bits)
        count = least + r
        tasks = []
        for _ in range(count):
            r = getrandbits(choice_bits)  # rng.choice(filtered)
            while r >= choices:
                r = getrandbits(choice_bits)
            tasks.append(filtered[r])
        workflows.append(Workflow(f"wf-{i:04d}", tasks, random_connected_dag(count, rng), clock))
    return workflows


def _uniform_spanning_tree_edges(m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on m >= 2 vertices via a Prufer
    sequence; for m == 2 the sequence is empty, so no draw is made and the
    tree is the edge (0, 1)."""
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
        name = rng.choice(spec.profile_pool)
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

