"""Names the benchmark swaps at run time stay bound where it looks for them.

``perfbench/tracing.py`` times the allocators by replacing
``qflow.allocators.{aggregate_cost, compute_bounds, mapping_feasible,
workflow_monomorphisms}``, and ``perfbench/run.py`` times input builds and
records simulations by replacing names in ``qflow.experiments``. A change
that drops one of these imports breaks ``--trace 1`` and the set-up timing
while every other test stays green. ``perfbench/run.py:check_idle`` also
reads ``next_available_time`` and ``queue`` of every node.
"""

from __future__ import annotations

import pytest

from qflow import allocators, costs, experiments, matcher, model, profiles, simulation, workload

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


def test_nodes_read_idle_to_the_benchmark():
    # QpuNode keeps these two names as class attributes only for check_idle
    node = profiles.node_from_profile("brisbane", profiles.load_profiles())
    assert node.next_available_time == 0.0
    assert not node.queue
