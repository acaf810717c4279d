"""Names the benchmark swaps at run time stay bound where it looks for them.

``perfbench/tracing.py`` times the allocators by replacing
``qflow.allocators.{aggregate_cost, compute_bounds, mapping_feasible,
workflow_monomorphisms}``, and ``perfbench/run.py`` times input builds and
records simulations by replacing names in ``qflow.experiments``. A change
that drops one of these imports breaks ``--trace 1`` and the set-up timing
while every other test stays green. Each swapped ``qflow.allocators`` name
is one that some allocator calls, so the swap times real work:
``workflow_monomorphisms`` is the group stream soft_iso walks, and wrapping
it changes no outcome. ``perfbench/run.py:check_idle`` also reads
``next_available_time`` and ``queue`` of every node.
"""

from __future__ import annotations

import pytest

from qflow import allocators, costs, experiments, matcher, model, profiles, simulation, workload
from qflow.experiments import ExperimentConfig, repetition, simulate
from qflow.model import NetworkParams, WeightConfig

from .conftest import chain_workflow, make_network

SWAPPED = [
    (allocators, "aggregate_cost", costs),
    (allocators, "compute_bounds", costs),
    (allocators, "mapping_feasible", model),
    (allocators, "workflow_monomorphisms", matcher),
    (experiments, "run_simulation", simulation),
    (experiments, "write_outputs", experiments),
    (experiments, "load_profiles", profiles),
    (experiments, "generate_catalog", workload),
    (experiments, "generate_workload", workload),
    (experiments, "generate_network", workload),
]


@pytest.mark.parametrize(
    "module, name, home", SWAPPED, ids=[f"{m.__name__}.{n}" for m, n, _ in SWAPPED]
)
def test_module_binds_swapped_name(module, name, home):
    bound = getattr(module, name, None)
    assert callable(bound), f"{module.__name__} no longer binds {name}"
    assert bound is getattr(home, name)


@pytest.mark.parametrize("name", [name for module, name, _ in SWAPPED if module is allocators])
def test_some_allocator_calls_swapped_name(monkeypatch, name):
    calls = []
    bound = getattr(allocators, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return bound(*args, **kwargs)

    monkeypatch.setattr(allocators, name, counting)
    wf = chain_workflow([5, 5])
    network = make_network([127] * 3, [(0, 1), (0, 2), (1, 2)])
    weights, params = WeightConfig(), NetworkParams()
    for outcome in (
        allocators.soft_iso(wf, network, weights, params),
        allocators.random_aware(wf, network, weights, params),
        allocators.greedy_dfs(wf, network),
        allocators.exhaustive_oracle(wf, network, weights, params),
    ):
        assert outcome.succeeded
    assert calls, f"no allocator calls qflow.allocators.{name}, so swapping it times nothing"


def default_soft_iso_outcomes():
    """Run soft_iso's repetitions of the default config; return each run's
    task executions and, per allocator call, its outcome."""
    config, outcomes = ExperimentConfig(algorithm="soft_iso", repetitions=2), []

    def recording(allocator):
        def call(workflow, network, backlog):
            outcomes.append(allocator(workflow, network, backlog))
            return outcomes[-1]

        return call

    reps = (repetition(config, i) for i in range(config.repetitions))
    runs = [simulate(config, rep._replace(allocator=recording(rep.allocator))).executions for rep in reps]
    return runs, outcomes


def test_wrapped_stream_reaches_soft_iso_and_changes_nothing(monkeypatch):
    """Wrapped as the tracer's ``stream()`` wraps it, the matcher stream is
    called once per soft_iso decision, yields the groups soft_iso walks, and
    leaves every outcome as it was."""
    plain = default_soft_iso_outcomes()
    counts = {"streams": 0, "groups": 0}
    stream = allocators.workflow_monomorphisms

    def counted(iterator):
        for group in iterator:
            counts["groups"] += 1
            yield group

    def wrapper(*args, **kwargs):
        counts["streams"] += 1
        return counted(stream(*args, **kwargs))

    monkeypatch.setattr(allocators, "workflow_monomorphisms", wrapper)
    runs, outcomes = default_soft_iso_outcomes()
    assert (runs, outcomes) == plain
    assert counts["streams"] == len(outcomes) > 100
    # every placed workflow came from at least one group
    assert counts["groups"] >= sum(outcome.succeeded for outcome in outcomes) > 0


def test_nodes_read_idle_to_the_benchmark():
    # QpuNode keeps these two names as class attributes only for check_idle
    node = profiles.node_from_profile("brisbane", profiles.load_profiles())
    assert node.next_available_time == 0.0
    assert not node.queue
