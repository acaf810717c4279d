from __future__ import annotations

import contextlib
import dataclasses
import random
import sys

import pytest

from qflow.experiments import scenario_config
from qflow.matcher import group_blocks, mask_hosts, workflow_monomorphisms
from qflow.model import QpuNode, ResourceNetwork, TaskSpec, Workflow, components
from qflow.profiles import load_profiles, node_from_profile
from qflow.workload import generate_catalog, generate_network, generate_workload


@pytest.fixture(scope="session")
def profiles():
    return load_profiles()


@pytest.fixture()
def brisbane(profiles):
    return node_from_profile("brisbane", profiles, "brisbane-0")


@pytest.fixture()
def torino(profiles):
    return node_from_profile("torino", profiles, "torino-0")


@pytest.fixture()
def marrakesh(profiles):
    return node_from_profile("marrakesh", profiles, "marrakesh-0")


@contextlib.contextmanager
def listings(score):
    """Record, in the list it yields, the ``(hu, mask)`` of each call of the
    scorer's ``score`` made inside the block, told apart by its code object
    with :func:`sys.setprofile`, so that no hook is needed in the scorer.
    A closure without a ``hu`` of its own (``skim``'s scan) has its
    caller's ``hu`` recorded."""
    listed = []
    code = score.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            local = frame.f_locals
            listed.append((local["hu"] if "hu" in local else frame.f_back.f_locals["hu"], local["mask"]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield listed
    finally:
        sys.setprofile(previous)


def skim_scan(skim):
    """``skim``'s improvement scan, the closure it calls on each block its
    bounds let through; its ``mask`` is a local and ``hu`` one of ``skim``'s,
    so :func:`listings` records its calls too."""
    return dict(zip(skim.__code__.co_freevars, (cell.cell_contents for cell in skim.__closure__)))["improving"]


def make_task(
    task_id="t",
    qubits=5,
    depth=6,
    two_qubit_gates=4,
    measured_qubits=5,
    shots=1000,
    family="ghz",
):
    return TaskSpec(
        id=task_id,
        qubits=qubits,
        depth=depth,
        two_qubit_gates=two_qubit_gates,
        measured_qubits=measured_qubits,
        shots=shots,
        program_family=family,
    )


def make_node(node_id="n", qubits=127, e1=0.0, e2=0.0, er=0.0, rt2=660e-9, t1=220e-6, t2=120e-6, d1cps=180000.0):
    return QpuNode(
        id=node_id,
        qubits=qubits,
        readout_error=er,
        one_qubit_error=e1,
        two_qubit_error=e2,
        two_qubit_runtime=rt2,
        t1=t1,
        t2=t2,
        d1cps=d1cps,
    )


def make_network(qubit_list, links):
    nodes = tuple(make_node(node_id=f"n{k}", qubits=q) for k, q in enumerate(qubit_list))
    return ResourceNetwork(nodes=nodes, links=links)


def is_connected(network: ResourceNetwork) -> bool:
    return len(components(len(network.nodes), network.links)) == 1


def reference_kahn(n, edges):
    """Kahn's algorithm over a sorted ready list, the least index first."""
    indeg = [0] * n
    succ = [[] for _ in range(n)]
    for a, b in sorted(edges):
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


def chain_workflow(task_qubits, wf_id="wf", arrival=0.0, shots=1000):
    tasks = tuple(
        make_task(task_id=f"{wf_id}-t{i}", qubits=q, measured_qubits=q)
        for i, q in enumerate(task_qubits)
    )
    edges = frozenset((i, i + 1) for i in range(len(task_qubits) - 1))
    return Workflow(id=wf_id, tasks=tasks, edges=edges, arrival_time=arrival)


def pattern_workflow(n, edges, qubits=None, wf_id="pattern"):
    """A workflow of ``n`` tasks whose skeleton is the undirected ``edges``,
    each oriented low to high; task v needs ``qubits[v]`` qubits, or 1, which
    every node fits, when ``qubits`` is None."""
    qubits = [1] * n if qubits is None else qubits
    tasks = tuple(make_task(task_id=f"{wf_id}-t{v}", qubits=q, measured_qubits=q) for v, q in enumerate(qubits))
    return Workflow(id=wf_id, tasks=tasks, edges=frozenset((min(a, b), max(a, b)) for a, b in edges))


def unrolled(workflow, network):
    """Reference unrolling of the matcher's groups: one dict per mapping,
    keyed in visit order, in stream order."""
    for prefix, u, v, hosts, leaves, links in workflow_monomorphisms(workflow, network):
        for h, mask in group_blocks(hosts, leaves, links):
            for k in mask_hosts(mask):
                yield {**prefix, u: h, v: k}


def backlog_at(free_at, t):
    """The backlog vector the simulator passes at time ``t`` when node k is
    free from ``free_at[k]``."""
    return [max(f - t, 0.0) for f in free_at]


def random_small_instance(rng: random.Random, max_tasks=4, max_nodes=6):
    """Random workflow and network within the oracle guard, and a drawn free
    time per node (zero on about half of them), which is also the backlog at
    time 0."""
    n_tasks = rng.randint(1, max_tasks)
    n_nodes = rng.randint(max(2, n_tasks), max_nodes)
    tasks = tuple(
        make_task(
            task_id=f"t{i}",
            qubits=rng.randint(1, 8),
            depth=rng.randint(1, 40),
            two_qubit_gates=rng.randint(0, 30),
            measured_qubits=0,
            shots=rng.choice([100, 1000]),
            family="randomcircuit",
        )
        for i in range(n_tasks)
    )
    # measured_qubits=0 above would zero classical cost; re-make with random mq
    tasks = tuple(
        TaskSpec(
            id=t.id,
            qubits=t.qubits,
            depth=t.depth,
            two_qubit_gates=t.two_qubit_gates,
            measured_qubits=rng.randint(0, t.qubits),
            shots=t.shots,
            program_family=t.program_family,
        )
        for t in tasks
    )
    edges = set()
    for i in range(1, n_tasks):
        edges.add((rng.randrange(i), i))
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if (i, j) not in edges and rng.random() < 0.3:
                edges.add((i, j))
    workflow = Workflow(id="wf", tasks=tasks, edges=frozenset(edges))

    nodes, free_at = [], []
    for k in range(n_nodes):
        nodes.append(
            make_node(
                node_id=f"n{k}",
                qubits=rng.randint(4, 10),
                e1=rng.uniform(0, 0.01),
                e2=rng.uniform(0, 0.02),
                er=rng.uniform(0, 0.05),
                rt2=rng.uniform(50e-9, 700e-9),
                t1=rng.uniform(100e-6, 250e-6),
                t2=rng.uniform(80e-6, 200e-6),
                d1cps=rng.uniform(1e5, 3e5),
            )
        )
        free_at.append(rng.choice([0.0, rng.uniform(0, 2.0)]))
    links = set()
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            if rng.random() < rng.choice([0.3, 0.6, 0.9]):
                links.add((a, b))
    # keep the host connected so embeddings are likelier
    for k in range(1, n_nodes):
        if not any(k in pair for pair in links):
            links.add((rng.randrange(k), k))
    network = ResourceNetwork(nodes=tuple(nodes), links=frozenset(links))
    return workflow, network, free_at


def scenario_instances(scenario, seed, n_workflows, node_count=None):
    """Workflows and a network from the scenario's specs, seeded the way
    perfbench seeds a unit's inputs (workload ``4*seed + 1``, network
    ``4*seed + 2``, catalog ``4*seed + 3``), not by ``repetition``'s derived
    seeds, and a seeded free time per node (zero on about half of them)."""
    topology = {} if node_count is None else {"node_count": node_count}
    config = scenario_config(scenario, "soft_iso", workload={"batch_size": n_workflows}, topology=topology)
    catalog = generate_catalog(
        config.catalog_size, qubit_range=config.workload.qubit_range, seed=4 * seed + 3,
        shots=config.workload.shots_default,
    )
    workflows = generate_workload(dataclasses.replace(config.workload, seed=4 * seed + 1), catalog)
    network = generate_network(dataclasses.replace(config.topology, seed=4 * seed + 2), load_profiles())
    rng = random.Random(seed)
    free_at = [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in network.nodes]
    return workflows, network, free_at
