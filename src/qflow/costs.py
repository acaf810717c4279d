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
component. :class:`DecisionTable` holds one decision's terms; the
normalization bounds are read off it. Its :meth:`~DecisionTable.breakdown`
returns a candidate's breakdown and its block scorer the totals of
candidates that differ in one task's host, each equal as a float to
``aggregate_cost(...)``'s; given a floor, the scorer first checks an exact
float lower bound on the block and returns ``None`` if no total can be
below the floor. With a second task on a sentinel host, the same
expression bounds a group of blocks that differ in the hosts of both
tasks. The cost-aware allocators build one table per decision and score
every candidate, block or trial from it.

The error, runtime, quantum-link and classical terms of a task depend only
on the task, the node calibration and the :class:`NetworkParams`, none of
which changes during a run. Each :class:`ResourceNetwork` therefore keeps
them in a term cache keyed by ``(TaskSpec, NetworkParams)``. :func:`task_terms`
evaluates a task's terms on its first use, once per calibration class of the
network (nodes with equal calibration have equal terms), expands them to
every node, and serves every later decision and the simulator's execution
from the cache. A table takes its availability column (the backlog) as
given and computes only the bounds; its edges are the workflow's skeleton.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
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
    for a, b in workflow.skeleton():
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
    backlog: Sequence[float] | None = None,
) -> NormalizationBounds:
    """Upper bounds on the raw cost components of any assignment of this
    workflow: the bounds of its :class:`DecisionTable`."""
    return DecisionTable(workflow, network, params, backlog).bounds


def aggregate_cost(
    workflow: Workflow,
    candidate_nodes: list[int] | tuple[int, ...],
    network: ResourceNetwork,
    weights: WeightConfig,
    params: NetworkParams,
    bounds: NormalizationBounds,
    backlog: Sequence[float] | None = None,
) -> CostBreakdown:
    """Evaluate the weighted objective of assigning task j to
    ``candidate_nodes[j]``.

    Availability is the worst backlog among the chosen nodes, where
    ``backlog[k]`` is how long node k stays busy with work already placed
    and ``None`` means an idle network. The constraints are not checked here;
    scoring is total on any injective candidate.
    """
    if len(candidate_nodes) != len(workflow.tasks):
        raise ValueError("candidate_nodes must pair one node per task")
    backlog = [0.0] * len(network.nodes) if backlog is None else backlog

    availability = 0.0
    err = 0.0
    runtime = 0.0
    for task, k in zip(workflow.tasks, candidate_nodes):
        node = network.nodes[k]
        availability = max(availability, backlog[k])
        err += error_cost(task, node)
        runtime += runtime_cost(task, node)
    assignment = {j: candidate_nodes[j] for j in range(len(workflow.tasks))}
    net = workflow_network_cost(workflow, assignment, network, params, require_links=False)

    return _normalized(availability, err, runtime, net, bounds, weights)


def _normalized(
    availability: float,
    err: float,
    runtime: float,
    net: float,
    bounds: NormalizationBounds,
    weights: WeightConfig,
) -> CostBreakdown:
    """The breakdown of the raw sums: each clipped to [0, 1] against its
    bound, then weighted into the total."""
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


@dataclass(frozen=True, slots=True)
class TaskTerms:
    """The static cost terms of one task on every node of one network under
    one :class:`NetworkParams`.

    ``err``, ``run`` and ``qlink`` hold the task's error, runtime and
    quantum-link term per node, then the row's minimum at index ``n`` (the
    node count): a sentinel host with the task's least terms, for bounds.
    ``clink`` is its classical term.
    ``fit_max`` is the (error, runtime, ``qlink + clink``) maxima over the
    nodes that fit the task's qubits, ``None`` when none does;
    ``all_max`` the same maxima over every node.
    """

    err: tuple[float, ...]
    run: tuple[float, ...]
    qlink: tuple[float, ...]
    clink: float
    fit_max: tuple[float, float, float] | None
    all_max: tuple[float, float, float]


def task_terms(tasks: Sequence[TaskSpec], network: ResourceNetwork, params: NetworkParams) -> list[TaskTerms]:
    """Each task's :class:`TaskTerms` on ``network`` under ``params``, read
    from the network's term cache (:meth:`ResourceNetwork.term_cache`) and
    evaluated there on the task's first use."""
    cache = network.term_cache(params)  # ``or`` is safe: a TaskTerms is never false
    return [cache.get(t) or cache.setdefault(t, _task_terms(t, network, params)) for t in tasks]


def _task_terms(task: TaskSpec, network: ResourceNetwork, params: NetworkParams) -> TaskTerms:
    # one evaluation per calibration class, expanded by each node's class
    reps, _, of_node = network.calibration_classes
    per_class = [(error_cost(task, n), runtime_cost(task, n), quantum_link_cost(task, n, params)) for n in reps]
    clink = classical_link_cost(task, params)
    rows = [(e, r, q + clink) for e, r, q in per_class]
    fits = [row for row, n in zip(rows, reps) if task.qubits <= n.qubits]
    return TaskTerms(
        *((*map(col.__getitem__, of_node), min(col)) for col in zip(*per_class)), clink,
        fit_max=tuple(map(max, zip(*fits))) if fits else None,
        all_max=tuple(map(max, zip(*rows))),
    )


class DecisionTable:
    """Every cost term of one decision.

    Holds the error, runtime and quantum-link terms per (task, node), the
    classical term per task, the backlog per node (zeros when none is given),
    the workflow's skeleton (sorted), and the :class:`NormalizationBounds`
    taken from those same floats. The error and runtime bounds are the worst
    qubit-feasible (task, node) term times the task count; the network bound
    is the worst per-endpoint quantum-plus-classical term times the edge
    count; the availability bound is the largest backlog. When no pair
    satisfies the qubit constraint the worst cases range over all pairs, and
    every bound is floored at ``BOUND_FLOOR`` so normalization never divides
    by zero.

    The per-task rows, each ending with its minimum on the sentinel host
    ``n`` (the node count), and the maxima depend only on the task, the
    node calibration and the link parameters, so they come from the
    network's term cache (:meth:`ResourceNetwork.term_cache`), keyed by
    ``(NetworkParams, TaskSpec)``: one :class:`TaskTerms` per distinct
    task. Only the bounds (maxima of the per-task maxima, the same floats as
    maxima over the pairs) are computed per decision.
    """

    def __init__(
        self,
        workflow: Workflow,
        network: ResourceNetwork,
        params: NetworkParams,
        backlog: Sequence[float] | None = None,
    ):
        if backlog is not None and len(backlog) != len(network.nodes):
            raise ValueError(f"backlog has {len(backlog)} entries for {len(network.nodes)} nodes")
        terms = task_terms(workflow.tasks, network, params)
        self.err = [t.err for t in terms]
        self.run = [t.run for t in terms]
        self.qlink = [t.qlink for t in terms]
        self.clink = [t.clink for t in terms]
        self.avail = [0.0] * len(network.nodes) if backlog is None else backlog
        self.edges = workflow.skeleton()

        worst = [t.fit_max for t in terms if t.fit_max is not None] or [t.all_max for t in terms]
        max_err, max_run, max_net = map(max, zip(*worst))
        n_tasks = len(terms)
        self.bounds = NormalizationBounds(
            max_nat=max(max(self.avail, default=0.0), BOUND_FLOOR),
            max_task_error_sum=max(n_tasks * max_err, BOUND_FLOOR),
            max_task_runtime_sum=max(n_tasks * max_run, BOUND_FLOOR),
            max_network_sum=max(len(self.edges) * max_net, BOUND_FLOOR),
        )

    def breakdown(self, candidate: Sequence[int] | Mapping[int, int], weights: WeightConfig) -> CostBreakdown:
        """The breakdown :func:`aggregate_cost` returns for ``candidate``
        under this table's bounds, equal float for float.

        The additions run in :func:`aggregate_cost`'s order (tasks
        ascending, then sorted edges), because a strict-``<`` argmin over
        many candidates can flip on one ulp of reordering.
        ``candidate[j]`` is task j's node index; a list or a task-indexed
        dict both work.
        """
        avail, qlink, clink = self.avail, self.qlink, self.clink
        availability = 0.0
        e = 0.0
        r = 0.0
        for j, (err_j, run_j) in enumerate(zip(self.err, self.run)):
            k = candidate[j]
            wait = avail[k]
            if wait > availability:  # as max(availability, wait)
                availability = wait
            e += err_j[k]
            r += run_j[k]
        net = 0.0
        for a, b in self.edges:
            net += (qlink[a][candidate[a]] + qlink[b][candidate[b]]) / 2.0 + (clink[a] + clink[b]) / 2.0
        return _normalized(availability, e, r, net, self.bounds, weights)

    def block_scorer(self, weights: WeightConfig, v: int) -> Callable[..., list[float] | None]:
        """``score(prefix, mask, floor=None)`` lists, for each host ``h``
        whose bit is set in ``mask``, ascending, the total :meth:`breakdown`
        returns for ``prefix`` plus task ``v`` on ``h``. Given a ``floor``,
        it returns ``None`` instead when it can prove that no such total is
        below ``floor``.

        ``prefix`` maps every task but ``v``. The terms that do not depend on
        ``v``'s host are folded once per call: the availability maximum over
        the prefix, the error and runtime sums of the tasks before ``v``,
        the terms of the tasks after ``v`` and the edge sum up to the first
        sorted edge that touches ``v``. Per host only the remaining
        additions run, in :meth:`breakdown`'s order, so every float is equal.
        Availability is folded after normalizing, since
        ``f(max(a, b)) == max(f(a), f(b))`` for the monotone
        ``f(x) = zeta * clip(x / max_nat)``.

        Given a ``floor``, the folded prefix first goes through the
        per-host expression once more, in the same order, with ``v`` on the
        sentinel host ``n`` (the node count), whose normalized availability,
        error, runtime and quantum-link terms are the minima over all nodes.
        That bound needs no epsilon: under round-to-nearest, ``a + x``,
        ``x / d`` for ``d > 0``, ``w * x`` for ``w >= 0``, ``max(x, a)`` and
        the clip are each monotone non-decreasing in ``x`` as floats, the
        weights and ``1 - zeta`` are nonnegative and the bounds positive, so
        the bound is ``<=`` every host's total as a float. When it is
        ``>= floor`` the call returns ``None`` without decoding ``mask`` or
        computing any per-host cost.

        ``prefix`` may put another task ``u`` on the sentinel too: then
        ``score(prefix, 0, floor)`` evaluates the group bound, with the host
        terms of both ``u`` and ``v`` at their minima. By the same
        monotonicity it is ``<=`` the floor of every block that puts ``u``
        on a real node, so ``<=`` each of their totals; the call returns
        ``None`` when it is ``>= floor`` and ``[]`` otherwise.
        """
        err, run, qlink, clink = self.err, self.run, self.qlink, self.clink
        bounds = self.bounds
        max_err = bounds.max_task_error_sum
        max_run = bounds.max_task_runtime_sum
        max_net = bounds.max_network_sum
        zeta, alpha, beta, gamma = weights.zeta, weights.alpha, weights.beta, weights.gamma
        rest = 1.0 - zeta
        wait = [zeta * _clip01(a / bounds.max_nat) for a in self.avail]
        wait.append(min(wait))  # the sentinel host, as in the term rows
        err_v, run_v, qlink_v = err[v], run[v], qlink[v]
        low_wait, low_err, low_run, low_qlink = wait[-1], err_v[-1], run_v[-1], qlink_v[-1]
        before = [(err[j], run[j], j) for j in range(v)]
        after = [(err[j], run[j], j) for j in range(v + 1, len(err))]
        edges = [(qlink[a], qlink[b], a, b, (clink[a] + clink[b]) / 2.0) for a, b in self.edges]
        split = next((i for i, (a, b) in enumerate(self.edges) if v in (a, b)), len(edges))
        head = edges[:split]
        # From the first edge touching v on, each edge either touches v
        # (kept: the other endpoint's row and task) or is a prefix constant.
        tail = [
            (q_b, b, c, None, None) if a == v else (q_a, a, c, None, None) if b == v else (q_a, a, c, q_b, b)
            for q_a, q_b, a, b, c in edges[split:]
        ]
        first, others = (tail[0], tail[1:]) if tail else (None, [])  # no edge: a one-task workflow

        def score(prefix: Mapping[int, int], mask: int, floor: float | None = None) -> list[float] | None:
            w = 0.0
            for k in prefix.values():
                x = wait[k]
                if x > w:
                    w = x
            e = 0.0
            r = 0.0
            for err_j, run_j, j in before:
                k = prefix[j]
                e += err_j[k]
                r += run_j[k]
            net = 0.0
            for q_a, q_b, a, b, c in head:
                net += (q_a[prefix[a]] + q_b[prefix[b]]) / 2.0 + c
            # _clip01 is inlined below: a call per term costs as much as the
            # rest of the pass.
            if floor is not None:
                x_n = net
                for q_a, a, c, q_b, b in tail:
                    x_n += (q_a[prefix[a]] + (low_qlink if q_b is None else q_b[prefix[b]])) / 2.0 + c
                x_e = e + low_err
                x_r = r + low_run
                for err_j, run_j, j in after:
                    k = prefix[j]
                    x_e += err_j[k]
                    x_r += run_j[k]
                bound = (low_wait if low_wait > w else w) + rest * (
                    alpha * (0.0 if (x := x_e / max_err) < 0.0 else 1.0 if x > 1.0 else x)
                    + beta * (0.0 if (x := x_r / max_run) < 0.0 else 1.0 if x > 1.0 else x)
                    + gamma * (0.0 if (x := x_n / max_net) < 0.0 else 1.0 if x > 1.0 else x)
                )
                if bound >= floor:
                    return None
            # the mask decoded inline: a call per block costs about 1% of
            # a short LP-LR search
            hosts = []
            while mask:
                low = mask & -mask
                hosts.append(low.bit_length() - 1)
                mask ^= low
            if first is None:
                nets = [net] * len(hosts)
            else:
                q_a, a, c, _, _ = first
                q = q_a[prefix[a]]
                nets = [net + ((q + qlink_v[h]) / 2.0 + c) for h in hosts]
            for q_a, a, c, q_b, b in others:
                q = q_a[prefix[a]]
                if q_b is None:
                    nets = [x + ((q + qlink_v[h]) / 2.0 + c) for x, h in zip(nets, hosts)]
                else:
                    t = (q + q_b[prefix[b]]) / 2.0 + c
                    nets = [x + t for x in nets]
            if not after:
                # v is the last task, so its terms are the last additions
                return [
                    (x if (x := wait[h]) > w else w)
                    + rest * (
                        alpha * (0.0 if (x := (e + err_v[h]) / max_err) < 0.0 else 1.0 if x > 1.0 else x)
                        + beta * (0.0 if (x := (r + run_v[h]) / max_run) < 0.0 else 1.0 if x > 1.0 else x)
                        + gamma * (0.0 if (x := x_n / max_net) < 0.0 else 1.0 if x > 1.0 else x)
                    )
                    for h, x_n in zip(hosts, nets)
                ]
            errs = [e + err_v[h] for h in hosts]
            runs = [r + run_v[h] for h in hosts]
            for err_j, run_j, j in after:
                k = prefix[j]
                e = err_j[k]
                r = run_j[k]
                errs = [x + e for x in errs]
                runs = [x + r for x in runs]
            return [
                (x if (x := wait[h]) > w else w)
                + rest * (
                    alpha * (0.0 if (x := x_e / max_err) < 0.0 else 1.0 if x > 1.0 else x)
                    + beta * (0.0 if (x := x_r / max_run) < 0.0 else 1.0 if x > 1.0 else x)
                    + gamma * (0.0 if (x := x_n / max_net) < 0.0 else 1.0 if x > 1.0 else x)
                )
                for h, x_e, x_r, x_n in zip(hosts, errs, runs, nets)
            ]

        return score


def _clip01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x
