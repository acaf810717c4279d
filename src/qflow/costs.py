"""Cost functions for task-on-device execution and their normalization.

Every operation here is a pure function of its inputs. Raw costs:

* error probability of running a task on a node, compounded from the
  per-layer one-qubit, two-qubit and readout error rates;
* runtime in seconds, ``depth * shots / d1cps``;
* quantum-link and classical-link communication terms per task endpoint;
* the per-workflow aggregate, a convex combination of the normalized
  availability, error, runtime and network sums.

Normalization divides each raw component by a per-decision upper bound
(:attr:`DecisionTable.bounds`; :func:`compute_bounds` is the oracle's
wrapper of it) and clips to [0, 1], so candidate costs are comparable
under lazy enumeration with early stopping.

:func:`aggregate_cost` is the reference objective and returns every
component as a :class:`CostBreakdown`, a named tuple.
:class:`DecisionTable` holds one decision's terms; the normalization bounds
are read off it. Its :meth:`~DecisionTable.breakdown`
returns a candidate's breakdown and its group scorer the totals of a group
of candidates that differ in the hosts of two tasks, each equal as a float
to ``aggregate_cost(...)``'s: the rest of the candidate is added up once
per decision for each tuple of its hosts' calibration classes, the two
hosts' terms once per such tuple and pair of their own classes, and each
host then costs one compare and add (the hosts of a class differ only in
availability). Given a floor, the scorer walks a run of blocks with no
total below it in one call, summarising a large block by the least and
greatest wait of each class or, when the stop rule cannot fire, ruling
out a run of groups or a block by exact float lower bounds (tasks on a
sentinel host, then on each class at its least wait, in the network and
then in the block) without listing it. The
cost-aware allocators build at most one table per decision, at its first
group or feasible trial, and score every later one from it. What the
skeleton fixes in a scorer comes from a bounded cache; the rest is built
per call.

The error, runtime, quantum-link and classical terms of a task depend only
on the task, the node calibration and the :class:`NetworkParams`, none of
which changes during a run. Each :class:`ResourceNetwork` therefore keeps
them in a term cache keyed by ``(TaskSpec, NetworkParams)``. :func:`task_terms`
evaluates a task's terms on its first use, once per calibration class of the
network (nodes with equal calibration have equal terms), in one loop that
writes the term functions' expressions inline with the task's own factors
taken once, so every float is theirs, with one maxima triple per task
under one per-task rule: over the classes that fit its qubits, or over
every class when none fits. It expands them to every node and serves every
later decision and the simulator's execution from the cache. A table takes
its availability column (the backlog) as given and computes only the
bounds, the maxima of those triples; its edges are the workflow's skeleton.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .matcher import BYTE_BITS, group_size
from .model import NetworkParams, QpuNode, ResourceNetwork, TaskSpec, WeightConfig, Workflow

BOUND_FLOOR = 1e-12
# A group scorer's walk summarises a block by calibration class only if the
# block has more than SUMMARY_MIN_HOSTS hosts and SUMMARY_HOSTS_PER_CLASS per class.
SUMMARY_MIN_HOSTS = 8
SUMMARY_HOSTS_PER_CLASS = 2


class CostBreakdown(NamedTuple):
    """Raw and normalized cost components of one candidate assignment (a named tuple: immutable, cheap to build)."""

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
        if not (
            self.max_nat > 0 and self.max_task_error_sum > 0 and self.max_task_runtime_sum > 0
            and self.max_network_sum > 0
        ):  # NaN too; the loop only names the field that failed
            for name in ("max_nat", "max_task_error_sum", "max_task_runtime_sum", "max_network_sum"):
                if not getattr(self, name) > 0:
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
    assignment: Mapping[int, int] | Sequence[int],
    network: ResourceNetwork,
    params: NetworkParams,
) -> float:
    """Sum of per-edge communication costs over the workflow's edges.

    The per-edge value depends only on the endpoints' tasks and nodes, so
    links are not checked here: :func:`qflow.model.mapping_feasible` does.
    """
    total = 0.0
    for a, b in workflow.skeleton:
        ka, kb = assignment[a], assignment[b]
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
    net = workflow_network_cost(workflow, candidate_nodes, network, params)

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
    return CostBreakdown(availability, err, runtime, net, a_norm, e_norm, r_norm, n_norm, total)


class TaskTerms(NamedTuple):
    """The static cost terms of one task on every node of one network under
    one :class:`NetworkParams`.

    ``err``, ``run`` and ``qlink`` hold the task's error, runtime and
    quantum-link term per node, then the row's minimum at index ``n`` (the
    node count): a sentinel host with the task's least terms, for bounds.
    ``clink`` is its classical term.
    ``maxima`` holds the (error, runtime, ``qlink + clink``) maxima over the
    nodes that fit its qubits, or every node when none does (the per-task rule).
    """

    err: tuple[float, ...]
    run: tuple[float, ...]
    qlink: tuple[float, ...]
    clink: float
    maxima: tuple[float, float, float]


def task_terms(tasks: Sequence[TaskSpec], network: ResourceNetwork, params: NetworkParams) -> list[TaskTerms]:
    """Each task's :class:`TaskTerms` on ``network`` under ``params``, read
    from the network's term cache for ``params``
    (:attr:`ResourceNetwork.term_caches`) and evaluated there on the task's
    first use."""
    cache = network.term_caches.setdefault(params, {})  # ``or`` is safe: a TaskTerms is never false
    return [cache.get(t) or cache.setdefault(t, _task_terms(t, network, params)) for t in tasks]


def _task_terms(task: TaskSpec, network: ResourceNetwork, params: NetworkParams) -> TaskTerms:
    # one evaluation per calibration class, expanded by each node's class: the expressions of error_cost,
    # runtime_cost and quantum_link_cost, the task's factors taken once as their left-to-right products
    reps, _, of_node = network.calibration_classes
    depth, qubits = task.depth, task.qubits
    root, layers = math.sqrt(task.two_qubit_gates), depth * task.shots
    weight, attenuation = params.success_probability * 10.0 * qubits, params.eta_linear ** params.switch_count
    err, run, qlink = [], [], []
    fits = False
    for node in reps:
        e = 1.0 - (
            (1.0 - node.one_qubit_error) ** depth
            * (1.0 - node.two_qubit_error) ** root
            * (1.0 - node.readout_error) ** qubits
        )
        r = layers / node.d1cps
        t1, t2 = node.t1, node.t2
        q = weight * node.two_qubit_runtime / (2.0 * t1 * t2 / (t1 + t2) * attenuation)
        err.append(e)
        run.append(r)
        qlink.append(q)
        if qubits > node.qubits:
            continue
        if not fits:  # the maxima over the fitting classes, kept as max() keeps them
            fits, e_max, r_max, q_max = True, e, r, q
            continue
        if e > e_max:
            e_max = e
        if r > r_max:
            r_max = r
        if q > q_max:
            q_max = q
    clink = params.classical_latency * task.measured_qubits
    # max(q) + clink is the maximum of q + clink: rounding is monotone; no class fits -> every class
    maxima = (e_max, r_max, q_max + clink) if fits else (max(err), max(run), max(qlink) + clink)
    # each row with its minimum appended -> the row per node (each node's class entry), that minimum at index n
    expand = itemgetter(*of_node, len(reps))
    for row in err, run, qlink:
        row.append(min(row))
    return TaskTerms(expand(err), expand(run), expand(qlink), clink, maxima)


class DecisionTable:
    """Every cost term of one decision.

    Holds the error, runtime and quantum-link terms per (task, node), the
    classical term per task, the backlog per node (zeros when none is given),
    the workflow's skeleton (sorted), the network's calibration classes
    (for the group scorer), and the :class:`NormalizationBounds` taken from
    those same floats. Each task's worst terms follow one per-task rule
    (:attr:`TaskTerms.maxima`): they range over the nodes that fit its
    qubits, or over every node when none does. The error and runtime bounds
    are the worst such term over the tasks times the task count; the network
    bound is the worst per-endpoint quantum-plus-classical term times the
    edge count (none for an edge-free workflow, whose network bound is the
    floor even where that term is infinite); the availability bound is the
    largest backlog. Every bound is floored at ``BOUND_FLOOR`` so
    normalization never divides by zero.

    The per-task rows, each ending with its minimum on the sentinel host
    ``n`` (the node count), and the maxima depend only on the task, the
    node calibration and the link parameters, so they come from the
    network's term caches (:attr:`ResourceNetwork.term_caches`), keyed by
    ``(NetworkParams, TaskSpec)``: one :class:`TaskTerms` per distinct
    task. Per decision the rows are unpacked in one ``zip`` and only the
    bounds (maxima of the per-task maxima, kept as ``max()`` keeps them, a
    leading NaN too) are computed, in one loop over the maxima.
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
        self.err, self.run, self.qlink, self.clink, maxima = zip(*terms)
        self.avail = [0.0] * len(network.nodes) if backlog is None else backlog
        self.edges = workflow.skeleton
        self.classes = network.calibration_classes

        max_err, max_run, max_net = maxima[0]  # raised as max() raises them: a leading NaN is kept
        for e, r, q in maxima:
            if e > max_err:
                max_err = e
            if r > max_run:
                max_run = r
            if q > max_net:
                max_net = q
        n_tasks = len(maxima)
        self.bounds = NormalizationBounds(
            max_nat=max(max(self.avail, default=0.0), BOUND_FLOOR),
            max_task_error_sum=max(n_tasks * max_err, BOUND_FLOOR),
            max_task_runtime_sum=max(n_tasks * max_run, BOUND_FLOOR),
            max_network_sum=max(len(self.edges) * max_net, BOUND_FLOOR) if self.edges else BOUND_FLOOR,
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

    def group_scorer(
        self, weights: WeightConfig, u: int, v: int
    ) -> tuple[Callable, Callable, Callable, Callable, Callable]:
        """``(fold, score, walk, skim, skip)`` for groups of candidates that
        differ only in the hosts of tasks ``u`` and ``v`` (``u`` is ``v`` for
        a one-task workflow). ``fold(prefix)`` takes a group's ``prefix``,
        which maps every other task. Then ``score(hu, mask)`` lists, for
        each host ``h`` whose bit is set in ``mask``, ascending, the total
        :meth:`breakdown` returns for ``prefix`` plus ``u`` on ``hu`` plus
        ``v`` on ``h``.

        ``fold`` takes the availability maximum ``w`` over the prefix once
        per group. Every other term is a per-class value expanded to the
        nodes (``_task_terms``), so the rest of what ``fold`` adds up (the
        error and runtime sums of the tasks below ``min(u, v)`` and the edge
        sum up to the first sorted edge that touches ``u`` or ``v``) depends
        on the prefix only through its class tuple: its hosts' classes in
        task order, not in the prefix's key order. ``fold`` adds them up
        only for a class tuple the decision has not met, and otherwise
        reuses the sums and the memo kept for it. It writes the classes by
        task in the loop that takes ``w`` and reads the tuple's key in one
        ``itemgetter`` call (a bare class for one prefix task, a constant
        for none: a key only has to tell the tuples of one decision
        apart). Likewise the weighted non-availability part ``R = rest * (alpha·… + beta·… + gamma·…)``
        depends on the two hosts only through their classes: ``score``
        evaluates it once per (class tuple, ``u``-class, ``v``-class) the
        decision meets, with the remaining additions in :meth:`breakdown`'s
        order, and keeps it in the memo. A reused float is the one a fresh
        evaluation would add up in the same order. Each host then costs one
        compare and one add, ``max(wait[h], max(w, wait[hu])) + R``; every
        float is equal. Availability is folded after normalizing, since
        ``f(max(a, b)) == max(f(a), f(b))`` for the monotone
        ``f(x) = zeta * clip(x / max_nat)``.

        The sentinel host ``n`` (the node count) is one more class, whose
        normalized availability, error, runtime and quantum-link terms are
        the minima over all nodes. A one-task workflow scores with
        ``hu = n``, exactly: ``cand[u]`` is ``cand[v]``, so ``R`` reads
        ``v``'s terms alone, and ``w = 0.0`` (an empty prefix) with
        ``wait[n] = min(wait)`` makes each ``max(wait[h], wu)`` equal
        ``max(wait[h], 0.0)`` as a float.

        ``walk(hosts, leaves, links, floor, budget)`` goes through a group's
        blocks for the hosts of ``u`` in ``hosts``, ascending. It returns
        ``(size, top, last, hu, mask, costs)``: the candidate count, greatest
        and last total of the run of blocks with no total below ``floor``,
        then the next block with ``score``'s totals (``0, 0, None`` at the
        group's or the ``budget``'s end; the block that reaches the budget
        is cut to it). A listed block keeps no list: its greatest and last
        totals are kept as it goes, and its first total below ``floor`` ends
        the call. A block with more hosts than ``SUMMARY_MIN_HOSTS``
        and than ``SUMMARY_HOSTS_PER_CLASS`` per class is summarised, once a
        remaining budget of ``n**2`` candidates warrants sorting each class's
        hosts by wait: ``max(x, wu) + R`` is non-decreasing in ``x``, so a
        class's least and greatest wait in the mask give its exact least and
        greatest totals, and the highest host the last total.

        ``skim`` takes ``walk``'s arguments and returns its shape with the
        greatest and last totals at ``-inf`` and ``0.0``. It bounds each
        block by ``v`` on the sentinel host, then, the block cut to the
        budget, by each class of the mask at the class's least wait (its
        hosts share that ``R`` and wait no less) and, for a class that
        passes, at the least wait of its hosts in the block (the first of
        them in the class's hosts by wait): the exact least total of the
        class's hosts there. A block no class passes is counted. Else only
        the hosts of the classes that pass are scanned in host order with
        ``score``'s floats, since no other host's total is below ``floor``;
        the scan finds at least the least total of a passing class, so it
        ends the call with only the block's running minima below ``floor``
        (their mask and totals), the rest counted. Its loops read masks a
        byte at a time (:data:`~qflow.matcher.BYTE_BITS`).

        ``skip(group, groups, floor, budget)`` serves ``skim``'s caller
        between groups: it folds ``group``, a stream group, and bounds it
        with ``u`` and ``v`` on the sentinel host. A group the bound rules
        out is counted (:func:`group_size`) and the next is drawn from the
        iterator ``groups``. It returns ``(size, group)``: the candidates
        counted, cut to the budget, and the first group the bound lets
        through, folded, or ``None`` at the budget's or the stream's end.
        ``skim`` needs no such bound: each floor it gets is above it or a
        total of the group, so the bound could fire only at a tie, where
        every block bound is at the floor too and ``skim`` counts each block.

        The skeleton-only parts (the task split at ``min(u, v)``, the edge
        split and the class tuple's key) come from a bounded cache
        (``_scorer_plan``). A call derives the parts the calibration classes
        fix (each host's class with the sentinel's, the memo stride, each
        host's row offset and the key ``both``) from :attr:`classes`, and
        builds the waits, the term rows and the closures.

        No bound needs an epsilon: under round-to-nearest, ``a + x``, ``x /
        d`` for ``d > 0``, ``w * x`` for ``w >= 0``, ``max(x, a)`` and the
        clip are each monotone non-decreasing in ``x`` as floats, the
        weights and ``1 - zeta`` are nonnegative and the bounds positive, so
        each bound is ``<=`` every total it covers.
        """
        err, run, qlink, clink = self.err, self.run, self.qlink, self.clink
        bounds = self.bounds
        max_err = bounds.max_task_error_sum
        max_run = bounds.max_task_runtime_sum
        max_net = bounds.max_network_sum
        zeta, alpha, beta, gamma = weights.zeta, weights.alpha, weights.beta, weights.gamma
        rest = 1.0 - zeta
        n = len(self.avail)
        max_nat = bounds.max_nat
        # a negative or NaN entry (not first) waits 0.0, as the availability maxima from 0.0 read it
        wait = [zeta * (1.0 if (x := a / max_nat) > 1.0 else x if x > 0.0 else 0.0) for a in self.avail]
        wait.append(min(wait))  # the sentinel host, as in the term rows
        _, masks, of_node = self.classes
        sentinel = len(masks)  # the sentinel host's class
        of_node = [*of_node, sentinel]
        stride = sentinel + 1
        rows = [c * stride for c in of_node]  # per host, the offset of its class's row in a memo
        both = sentinel * stride + sentinel  # the memo key of u and v on the sentinel host
        large = max(SUMMARY_MIN_HOSTS, SUMMARY_HOSTS_PER_CLASS * sentinel)
        low, high, head, tail, class_key = _scorer_plan(self.edges, len(err), u, v)
        before = [(err[j], run[j], j) for j in low]
        after = [(err[j], run[j], j) for j in high]
        head = [(qlink[a], qlink[b], a, b, (clink[a] + clink[b]) / 2.0) for a, b in head]
        tail = [(qlink[a], qlink[b], a, b, (clink[a] + clink[b]) / 2.0) for a, b in tail]
        cand = [0] * len(err)  # the prefix, then the pair being evaluated
        of_task = [0] * len(err)  # the classes of the prefix's hosts, by task
        memos = {}  # per class tuple of the prefix's hosts: its e, r, net and memo
        memo = []  # the prefix's R per (u-class, v-class), row-major
        by_class = []  # by classes(): per class, its index, mask, least wait, (wait, bit) by wait, greatest, reversed
        w = e = r = net = 0.0
        inf = math.inf
        least = wait[n]

        def fold(prefix: Mapping[int, int]) -> None:
            nonlocal w, e, r, net, memo
            w = 0.0
            for j, k in prefix.items():
                cand[j] = k
                of_task[j] = of_node[k]
                x = wait[k]
                if x > w:
                    w = x
            key = class_key(of_task)
            if (sums := memos.get(key)) is not None:
                e, r, net, memo = sums
                return
            e = 0.0
            r = 0.0
            for err_j, run_j, j in before:
                k = cand[j]
                e += err_j[k]
                r += run_j[k]
            net = 0.0
            for q_a, q_b, a, b, c in head:
                net += (q_a[cand[a]] + q_b[cand[b]]) / 2.0 + c
            memo = [None] * (stride * stride)
            memos[key] = e, r, net, memo

        def evaluate(hu: int, h: int, key: int) -> float:
            # R with u on hu and v on h; _clip01 is inlined, as a call per
            # term costs as much as the rest of the evaluation
            cand[u] = hu
            cand[v] = h
            x_e = e
            x_r = r
            for err_j, run_j, j in after:
                k = cand[j]
                x_e += err_j[k]
                x_r += run_j[k]
            x_n = net
            for q_a, q_b, a, b, c in tail:
                x_n += (q_a[cand[a]] + q_b[cand[b]]) / 2.0 + c
            memo[key] = cost = rest * (
                alpha * (1.0 if (x := x_e / max_err) > 1.0 else x)
                + beta * (1.0 if (x := x_r / max_run) > 1.0 else x)
                + gamma * (1.0 if (x := x_n / max_net) > 1.0 else x)
            )
            return cost

        def score(hu: int, mask: int) -> list[float]:
            wu = x if (x := wait[hu]) > w else w
            row = of_node[hu] * stride
            costs = []
            while mask:
                low = mask & -mask
                h = low.bit_length() - 1
                if (cost := memo[key := row + of_node[h]]) is None:
                    cost = evaluate(hu, h, key)
                costs.append((x if (x := wait[h]) > wu else wu) + cost)
                mask ^= low
            return costs

        def improving(wu: float, row: int, mask: int, least: float) -> tuple[int, list[float]]:
            keep, costs, at = 0, [], 0
            while mask:
                for i in BYTE_BITS[mask & 255]:
                    # h's class is live: skim's class loop has read or filled its memo entry under this fold
                    if (cost := (x if (x := wait[h := at + i]) > wu else wu) + memo[row + of_node[h]]) < least:
                        keep |= 1 << h
                        costs.append(least := cost)
                mask, at = mask >> 8, at + 8
            return keep, costs

        def classes() -> list[tuple]:
            by_wait = [[] for _ in masks]
            for h in sorted(range(n), key=wait.__getitem__):
                by_wait[of_node[h]].append((wait[h], 1 << h))
            by_class.extend((c, masks[c], up[0][0], up, up[-1][0], up[::-1]) for c, up in enumerate(by_wait))
            return by_class

        def walk(hosts: int, leaves: int, links: tuple[int, ...] | None, floor: float, budget: float) -> tuple:
            size, top, last = 0, -inf, 0.0
            while hosts:
                low = hosts & -hosts
                hosts ^= low
                hu = low.bit_length() - 1
                if not (mask := leaves & ~low if links is None else leaves & links[hu]):
                    continue
                if (count := mask.bit_count()) > budget - size:  # the block that spends the budget, cut to it
                    for _ in range(count - budget + size):
                        mask ^= 1 << mask.bit_length() - 1
                    count = budget - size
                wu = x if (x := wait[hu]) > w else w
                row = of_node[hu] * stride
                high = -inf
                if count > large and (by_class or budget - size >= n * n):
                    for c, m, least, up, greatest, down in by_class or classes():
                        if not mask & m:
                            continue
                        if (cost := memo[key := row + c]) is None:
                            cost = evaluate(hu, (m & -m).bit_length() - 1, key)
                        if (least if least > wu else wu) + cost < floor:
                            for least, bit in up:  # the least wait of the class in the mask
                                if mask & bit:
                                    break
                            if (least if least > wu else wu) + cost < floor:  # a host of the block improves
                                return size, top, last, hu, mask, score(hu, mask)
                        if greatest > wu:
                            for greatest, bit in down:  # the greatest wait of the class in the mask
                                if mask & bit:
                                    break
                        if (cost := (greatest if greatest > wu else wu) + cost) > high:
                            high = cost
                    h = mask.bit_length() - 1
                    last = (x if (x := wait[h]) > wu else wu) + memo[row + of_node[h]]
                else:
                    m = mask
                    while m:
                        bit = m & -m
                        h = bit.bit_length() - 1
                        if (cost := memo[key := row + of_node[h]]) is None:
                            cost = evaluate(hu, h, key)
                        if (cost := (x if (x := wait[h]) > wu else wu) + cost) < floor:
                            return size, top, last, hu, mask, score(hu, mask)
                        if cost > high:
                            high = cost
                        m ^= bit
                    last = cost
                size += count
                if high > top:
                    top = high
                if size >= budget:
                    break
            return size, top, last, 0, 0, None

        def skim(hosts: int, leaves: int, links: tuple[int, ...] | None, floor: float, budget: float) -> tuple:
            size = base = 0
            while hosts:  # a byte of the hosts of u at a time
                for b in BYTE_BITS[hosts & 255]:
                    hu = base + b
                    if not (mask := leaves & ~(1 << hu) if links is None else leaves & links[hu]):
                        continue
                    count = mask.bit_count()
                    wu = x if (x := wait[hu]) > w else w
                    row = rows[hu]
                    if (cost := memo[key := row + sentinel]) is None:
                        cost = evaluate(hu, n, key)
                    if wu + cost < floor:  # v on the sentinel host, then on each class of the mask at its least wait
                        if count > budget - size:  # the block that spends the budget, cut to it
                            for _ in range(count - budget + size):
                                mask ^= 1 << mask.bit_length() - 1
                            count = budget - size
                        live = 0  # the classes whose least wait in the block gives a total below the floor
                        for c, m, x, up, _, _ in by_class or classes():
                            if mask & m:
                                if (cost := memo[key := row + c]) is None:
                                    cost = evaluate(hu, (m & -m).bit_length() - 1, key)
                                if (x if x > wu else wu) + cost < floor:
                                    for x, bit in up:  # the least wait of the class in the block
                                        if mask & bit:
                                            break
                                    if (x if x > wu else wu) + cost < floor:
                                        live |= m
                        if live:
                            keep, costs = improving(wu, row, mask & live, floor)
                            return size + count - len(costs), -inf, 0.0, hu, keep, costs
                    if (size := size + count) >= budget:
                        return budget, -inf, 0.0, 0, 0, None
                hosts, base = hosts >> 8, base + 8
            return size, -inf, 0.0, 0, 0, None

        def skip(group: tuple, groups: Iterator[tuple], floor: float, budget: float) -> tuple[int, tuple | None]:
            size = 0
            while True:
                prefix, _, _, hosts, leaves, links = group
                fold(prefix)
                if (cost := memo[both]) is None:
                    cost = evaluate(n, n, both)
                if not (least if least > w else w) + cost >= floor:  # the group's bound lets it through
                    return size, group
                if (size := size + group_size(hosts, leaves, links)) >= budget:
                    return budget, None
                if (group := next(groups, None)) is None:
                    return size, None

        return fold, score, walk, skim, skip


# Bounded as matcher._search_plan is: a search meets each skeleton with one (u, v), its last two tasks in visit order.
@lru_cache(maxsize=512)
def _scorer_plan(edges: tuple[tuple[int, int], ...], n: int, u: int, v: int) -> tuple:
    """The skeleton-only part of a group scorer for ``u`` and ``v`` on ``n``
    tasks, as tuples: the tasks below ``min(u, v)`` and from it, the sorted
    ``edges`` before and from the first that touches ``u`` or ``v``, and the
    prefix's class-tuple key (a bare class for one prefix task, a constant for none)."""
    lo = min(u, v)
    split = next((i for i, edge in enumerate(edges) if u in edge or v in edge), len(edges))
    others = [j for j in range(n) if j != u and j != v]  # the prefix's tasks, in task order
    class_key = itemgetter(*others) if others else lambda _: ()
    return tuple(range(lo)), tuple(range(lo, n)), edges[:split], edges[split:], class_key


def _clip01(x: float) -> float:
    # No lower clip: every raw sum is >= 0 (error terms are 1 - survival,
    # runtimes > 0, link terms >= 0, availability starts at 0.0) and every
    # bound is > 0. The group scorer gives a negative or NaN backlog entry a
    # wait of 0.0, as the availability maxima, which start at 0.0, read it
    # (a leading NaN is refused by the bounds). The upper clip stays: under
    # a caller's bounds, aggregate_cost's sums can exceed them.
    return 1.0 if x > 1.0 else x
