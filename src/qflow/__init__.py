"""qflow: allocation of distributed quantum workflows onto noisy QPU networks.

A deterministic, seedable simulator and algorithm library: domain model,
cost functions, subgraph-monomorphism matching, allocation strategies,
workload generation, discrete-event simulation and an experiment runner.
"""

from .allocators import (
    AllocationOutcome,
    SoftIsoConfig,
    exhaustive_oracle,
    greedy_dfs,
    random_aware,
    soft_iso,
)
from .costs import (
    CostBreakdown,
    DecisionTable,
    NormalizationBounds,
    aggregate_cost,
    classical_link_cost,
    compute_bounds,
    error_cost,
    fidelity,
    quantum_link_cost,
    runtime_cost,
    workflow_network_cost,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    emit_failure_histogram,
    run_experiment,
    run_scenario,
    scenario_config,
)
from .matcher import (
    CandidateMapping,
    MappingBlock,
    enumerate_monomorphism_blocks,
    enumerate_monomorphisms,
    workflow_monomorphism_blocks,
    workflow_monomorphisms,
)
from .model import (
    Allocation,
    NetworkParams,
    QpuNode,
    ResourceNetwork,
    TaskSpec,
    WeightConfig,
    Workflow,
    mapping_feasible,
    validate_allocation,
)
from .profiles import load_profiles, node_from_profile
from .simulation import (
    MetricsAccumulator,
    SimState,
    make_allocator,
    qpu_time_distribution,
    run_simulation,
)
from .workload import (
    TopologySpec,
    WorkloadSpec,
    export_task_catalog,
    export_workload,
    generate_catalog,
    generate_network,
    generate_task,
    generate_workload,
    import_task_catalog,
    import_workload,
)

__version__ = "0.1.0"
