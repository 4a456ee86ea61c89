"""densiflock: simulation and analysis of density-gated velocity-consensus models."""

from .analytic import (
    DetachTimes,
    ReducedSolution,
    detach_times,
    eval_v_b,
    reduced_solution,
)
from .config import RunConfig, parse_config
from .domains import Domain
from .dynamics import (
    EnsembleState,
    ModelParams,
    NeighborSearch,
    NeighborTable,
    alignment_weight,
    total_momentum,
    velocity_diameter,
)
from .errors import ConfigError, IntegrationFault
from .graph import (
    ClusterLabeling,
    FlockingCertificate,
    build_digraph,
    fiedler_value,
    flocking_certificate,
    log_linear_fit,
    strongly_connected_components,
)
from .integrate import (
    TrajectoryRecord,
    TrajectorySample,
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
    initial_state,
    run_simulation,
)

__version__ = "0.1.0"
