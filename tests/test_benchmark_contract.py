"""Names the benchmark swaps at run time stay bound where it looks for them.

``perfbench/tracing.py`` times the allocators by replacing
``qflow.allocators.{aggregate_cost, compute_bounds, mapping_feasible,
workflow_monomorphisms}``, and ``perfbench/run.py`` times input builds and
records simulations by replacing names in ``qflow.experiments``. A change
that drops one of these imports breaks ``--trace 1`` and the set-up timing
while every other test stays green.
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
