"""densiflock: simulation and analysis of density-gated velocity-consensus models."""

from .analytic import (
    DetachTimes,
    ReducedSolution,
    detach_times,
    eval_v_b,
    eval_v_b_minus_v_a,
    reduced_solution,
)
from .config import RunConfig, parse_config, serialize_config
from .domains import Domain, euclidean_distances
from .dynamics import (
    EnsembleState,
    ModelParams,
    MPolicy,
    NeighborTable,
    alignment_weight,
    density_ratio,
    neighbor_sets_cs_delta,
    neighbor_sets_cs_q,
    neighbor_sets_di,
    total_momentum,
    velocity_diameter,
)
from .errors import ConfigError, IntegrationFault
from .graph import (
    ClusterLabeling,
    FlockingCertificate,
    InteractionDigraph,
    build_digraph,
    fiedler_value,
    flocking_certificate,
    is_r_densely_packed,
    log_linear_fit,
    strongly_connected_components,
)
from .integrate import (
    DelayBuffer,
    TrajectoryRecord,
    TrajectorySample,
    neighbor_table_for_step,
    rk4_step,
    simulate,
)
from .scenarios import (
    ChainResult,
    GroupResult,
    RegimeResult,
    ScenarioSpec,
    classify_chain,
    classify_group,
    classify_three_body,
    init_chain,
    init_group_vs_individual,
    init_random_clusters,
    init_three_body,
    initial_state,
    momentum_estimate,
    predict_three_body,
    run_simulation,
)

__version__ = "0.1.0"
