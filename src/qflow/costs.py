"""Cost functions for task-on-device execution and their normalization.

Every operation here is a pure function of its inputs. Raw costs:

* error probability of running a task on a node, compounded from the
  per-layer one-qubit, two-qubit and readout error rates;
* runtime in seconds, ``depth * shots / d1cps``;
* quantum-link and classical-link communication terms per task endpoint;
* the per-workflow aggregate, a convex combination of the normalized
  availability, error, runtime and network sums.

Normalization divides each raw component by a per-decision upper bound
(:func:`compute_bounds`) and clips to [0, 1], so candidate costs are
comparable under lazy enumeration with early stopping.

:func:`aggregate_cost` is the reference objective and returns every
component. :func:`candidate_scorer` is the fast path for scoring many
candidates of one decision: it tabulates the per-(task, node) terms once and
returns only the total, equal as a float to ``aggregate_cost(...).total``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .model import NetworkParams, QpuNode, ResourceNetwork, TaskSpec, WeightConfig, Workflow

BOUND_FLOOR = 1e-12


@dataclass(frozen=True)
class CostBreakdown:
    """Raw and normalized cost components of one candidate assignment."""

    availability_raw: float
    error_raw: float
    runtime_raw: float
    network_raw: float
    availability: float
    error: float
    runtime: float
    network: float
    total: float


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-workflow upper bounds used to scale raw costs into [0, 1]."""

    max_nat: float
    max_task_error_sum: float
    max_task_runtime_sum: float
    max_network_sum: float

    def __post_init__(self):
        for name in ("max_nat", "max_task_error_sum", "max_task_runtime_sum", "max_network_sum"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0 (apply the {BOUND_FLOOR} floor)")


def error_cost(task: TaskSpec, node: QpuNode) -> float:
    """Probability that the task execution is corrupted on this node.

    Survival probabilities of the depth-many one-qubit layers, sqrt(g2)
    two-qubit layers and per-qubit readouts are multiplied; the error is the
    complement. Result lies in [0, 1].
    """
    survival = (
        (1.0 - node.one_qubit_error) ** task.depth
        * (1.0 - node.two_qubit_error) ** math.sqrt(task.two_qubit_gates)
        * (1.0 - node.readout_error) ** task.qubits
    )
    return 1.0 - survival


def fidelity(task: TaskSpec, node: QpuNode) -> float:
    """Fidelity is the complement of the execution error."""
    return 1.0 - error_cost(task, node)


def runtime_cost(task: TaskSpec, node: QpuNode) -> float:
    """Seconds to run all shots of the task at the node's layer rate."""
    return task.depth * task.shots / node.d1cps


def quantum_link_cost(task: TaskSpec, node: QpuNode, params: NetworkParams) -> float:
    """Cost of entanglement distribution for one task endpoint.

    Scales with the qubit count and the node's two-qubit gate time, against
    the harmonic mean of the coherence times and the switch attenuation.
    """
    hm = 2.0 * node.t1 * node.t2 / (node.t1 + node.t2)
    return (
        params.success_probability * 10.0 * task.qubits * node.two_qubit_runtime
        / (hm * params.eta_linear ** params.switch_count)
    )


def classical_link_cost(task: TaskSpec, params: NetworkParams) -> float:
    """Classical transfer cost: latency per measured qubit."""
    return params.classical_latency * task.measured_qubits


def edge_communication_cost(
    task_a: TaskSpec,
    node_a: QpuNode,
    task_b: TaskSpec,
    node_b: QpuNode,
    params: NetworkParams,
) -> float:
    """Hybrid-link cost of one workflow edge: endpoint averages of the
    quantum and classical terms."""
    nq = (quantum_link_cost(task_a, node_a, params) + quantum_link_cost(task_b, node_b, params)) / 2.0
    nc = (classical_link_cost(task_a, params) + classical_link_cost(task_b, params)) / 2.0
    return nq + nc


def workflow_network_cost(
    workflow: Workflow,
    assignment: dict[int, int],
    network: ResourceNetwork,
    params: NetworkParams,
    require_links: bool = True,
) -> float:
    """Sum of per-edge communication costs over the workflow's edges.

    With ``require_links`` (the default) a workflow edge mapped onto a
    non-linked node pair raises ValueError. Candidate scoring before the
    feasibility check passes ``require_links=False``; the per-edge value
    depends only on the endpoints' tasks and nodes.
    """
    total = 0.0
    for a, b in sorted(workflow.skeleton()):
        ka, kb = assignment[a], assignment[b]
        if require_links and not network.has_link(ka, kb):
            raise ValueError(
                f"workflow {workflow.id}: edge ({a},{b}) maps to non-linked nodes ({ka},{kb})"
            )
        total += edge_communication_cost(
            workflow.tasks[a], network.nodes[ka], workflow.tasks[b], network.nodes[kb], params
        )
    return total


def compute_bounds(
    workflow: Workflow,
    network: ResourceNetwork,
    params: NetworkParams,
    sim_time: float = 0.0,
) -> NormalizationBounds:
    """Upper bounds on the raw cost components of any assignment of this
    workflow, computable before candidate enumeration begins.

    Error/runtime bounds take the worst feasible (task, node) pair times the
    task count; the network bound takes the worst per-edge endpoint value
    times the edge count. Falls back to all pairs when no pair satisfies the
    qubit constraint, and floors everything at a small epsilon so that
    normalization never divides by zero.
    """
    max_nat = max((node.next_available_time - sim_time for node in network.nodes), default=0.0)
    max_nat = max(max_nat, 0.0)

    pairs = [
        (task, node)
        for task in workflow.tasks
        for node in network.nodes
        if task.qubits <= node.qubits
    ]
    if not pairs:
        pairs = [(task, node) for task in workflow.tasks for node in network.nodes]

    worst_error = max(error_cost(t, n) for t, n in pairs)
    worst_runtime = max(runtime_cost(t, n) for t, n in pairs)
    worst_endpoint = max(
        quantum_link_cost(t, n, params) + classical_link_cost(t, params) for t, n in pairs
    )

    n_tasks = len(workflow.tasks)
    n_edges = len(workflow.skeleton())
    return NormalizationBounds(
        max_nat=max(max_nat, BOUND_FLOOR),
        max_task_error_sum=max(n_tasks * worst_error, BOUND_FLOOR),
        max_task_runtime_sum=max(n_tasks * worst_runtime, BOUND_FLOOR),
        max_network_sum=max(n_edges * worst_endpoint, BOUND_FLOOR),
    )


def aggregate_cost(
    workflow: Workflow,
    candidate_nodes: list[int] | tuple[int, ...],
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    bounds: NormalizationBounds,
    sim_time: float = 0.0,
) -> CostBreakdown:
    """Evaluate the weighted objective of assigning task j to
    ``candidate_nodes[j]``.

    Availability is the worst queue backlog among the chosen nodes relative
    to the current simulation time (idle machines contribute zero). The
    constraints are not checked here; scoring is total on any injective
    candidate.
    """
    if len(candidate_nodes) != len(workflow.tasks):
        raise ValueError("candidate_nodes must pair one node per task")

    availability = 0.0
    err = 0.0
    runtime = 0.0
    for j, task in enumerate(workflow.tasks):
        node = network.nodes[candidate_nodes[j]]
        availability = max(availability, max(node.next_available_time - sim_time, 0.0))
        err += error_cost(task, node)
        runtime += runtime_cost(task, node)
    assignment = {j: candidate_nodes[j] for j in range(len(workflow.tasks))}
    net = workflow_network_cost(workflow, assignment, network, params, require_links=False)

    a_norm = _clip01(availability / bounds.max_nat)
    e_norm = _clip01(err / bounds.max_task_error_sum)
    r_norm = _clip01(runtime / bounds.max_task_runtime_sum)
    n_norm = _clip01(net / bounds.max_network_sum)
    total = weights.zeta * a_norm + (1.0 - weights.zeta) * (
        weights.alpha * e_norm + weights.beta * r_norm + weights.gamma * n_norm
    )
    return CostBreakdown(
        availability_raw=availability,
        error_raw=err,
        runtime_raw=runtime,
        network_raw=net,
        availability=a_norm,
        error=e_norm,
        runtime=r_norm,
        network=n_norm,
        total=total,
    )


def candidate_scorer(
    workflow: Workflow,
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    bounds: NormalizationBounds,
    sim_time: float = 0.0,
) -> Callable[[Sequence[int]], float]:
    """Per-decision scorer: ``score(candidate)`` is the same float as
    ``aggregate_cost(workflow, candidate, ...).total``.

    The per-(task, node) error, runtime and quantum-link terms, each task's
    classical term, the clipped availability of every node and the sorted
    skeleton are computed once. Each call then performs exactly the
    additions of :func:`aggregate_cost` in the same order (tasks ascending,
    then sorted edges), because a strict-``<`` argmin over many candidates
    can flip on one ulp of reordering. ``candidate[j]`` is task j's node
    index; a list or a task-indexed dict both work.
    """
    tasks = workflow.tasks
    nodes = network.nodes
    err = [[error_cost(t, n) for n in nodes] for t in tasks]
    run = [[runtime_cost(t, n) for n in nodes] for t in tasks]
    qlink = [[quantum_link_cost(t, n, params) for n in nodes] for t in tasks]
    clink = [classical_link_cost(t, params) for t in tasks]
    avail = [max(n.next_available_time - sim_time, 0.0) for n in nodes]
    edges = [
        (qlink[a], qlink[b], a, b, (clink[a] + clink[b]) / 2.0)
        for a, b in sorted(workflow.skeleton())
    ]
    rows = list(zip(range(len(tasks)), err, run))
    max_nat = bounds.max_nat
    max_err = bounds.max_task_error_sum
    max_run = bounds.max_task_runtime_sum
    max_net = bounds.max_network_sum
    zeta, alpha, beta, gamma = weights.zeta, weights.alpha, weights.beta, weights.gamma
    rest = 1.0 - zeta

    def score(candidate: Sequence[int]) -> float:
        availability = 0.0
        e = 0.0
        r = 0.0
        for j, err_j, run_j in rows:
            k = candidate[j]
            wait = avail[k]
            if wait > availability:  # as max(availability, wait)
                availability = wait
            e += err_j[k]
            r += run_j[k]
        net = 0.0
        for q_a, q_b, a, b, c in edges:
            net += (q_a[candidate[a]] + q_b[candidate[b]]) / 2.0 + c
        return zeta * _clip01(availability / max_nat) + rest * (
            alpha * _clip01(e / max_err) + beta * _clip01(r / max_run) + gamma * _clip01(net / max_net)
        )

    return score


def _clip01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x
