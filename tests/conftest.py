from __future__ import annotations

import dataclasses
import random

import pytest

from qflow.experiments import scenario_config
from qflow.model import QpuNode, ResourceNetwork, TaskSpec, Workflow
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


def make_node(node_id="n", qubits=127, e1=0.0, e2=0.0, er=0.0, rt1=60e-9, rt2=660e-9,
              rtr=1600e-9, t1=220e-6, t2=120e-6, d1cps=180000.0):
    return QpuNode(
        id=node_id,
        qubits=qubits,
        readout_error=er,
        one_qubit_error=e1,
        two_qubit_error=e2,
        one_qubit_runtime=rt1,
        two_qubit_runtime=rt2,
        readout_runtime=rtr,
        t1=t1,
        t2=t2,
        d1cps=d1cps,
    )


def make_network(qubit_list, links):
    nodes = tuple(make_node(node_id=f"n{k}", qubits=q) for k, q in enumerate(qubit_list))
    return ResourceNetwork(nodes=nodes, links=frozenset(links))


def chain_workflow(task_qubits, wf_id="wf", arrival=0.0, shots=1000):
    tasks = tuple(
        make_task(task_id=f"{wf_id}-t{i}", qubits=q, measured_qubits=q)
        for i, q in enumerate(task_qubits)
    )
    edges = frozenset((i, i + 1) for i in range(len(task_qubits) - 1))
    return Workflow(id=wf_id, tasks=tasks, edges=edges, arrival_time=arrival)


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
    """Workflows and a network drawn the way a scenario repetition draws
    them, and a seeded free time per node (zero on about half of them)."""
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
