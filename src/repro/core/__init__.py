"""The paper's primary contribution: game-based model, synthesis, scheduling.

Layered as Sec. V-VI of the paper: the droplet/actuation model with frontier
sets and probabilistic outcomes, the SMG/MDP formal models, routing-job
decomposition, strategy synthesis via the model checker, and the hybrid
scheduler that adapts routes to real-time health information.
"""

from repro.core.actions import (
    ACTIONS,
    ALL_ACTIONS,
    CARDINAL_ACTIONS,
    DEFAULT_MAX_ASPECT,
    DOUBLE_ACTIONS,
    HEIGHTEN_ACTIONS,
    ORDINAL_ACTIONS,
    WIDEN_ACTIONS,
    Action,
    ActionClass,
    apply_action,
    enabled_actions,
    frontier,
    frontier_directions,
    guard,
)
from repro.core.baseline import (
    AdaptiveRouter,
    BaselineRouter,
    OracleRouter,
    ReactiveRouter,
    Router,
)
from repro.core.droplet import (
    OFF_CHIP,
    actuation_matrix,
    fit_droplet_shape,
    is_off_chip,
    size_error,
    within_chip,
)
from repro.core.fastmdp import (
    HAZARD_STATE,
    CompiledRoutingModel,
    build_routing_model_fast,
    clear_shape_action_memo,
    compiled_shape_actions,
    extract_fast_strategy,
)
from repro.core.offline import PrecomputeReport, precompute_library, routing_jobs_of
from repro.core.routing_job import (
    ZONE_MARGIN,
    DecomposedMO,
    RJHelper,
    RoutingJob,
    zone,
)
from repro.core.scheduler import CyclePlan, HybridScheduler, MOPhase, RoutingTask
from repro.core.strategy import (
    RoutingStrategy,
    StrategyLibrary,
    health_fingerprint,
    strategy_from_synthesis,
)
from repro.core.synthesis import (
    SynthesisResult,
    baseline_field,
    force_field_from_degradation,
    force_field_from_health,
    synthesize,
    synthesize_with_field,
)
from repro.core.transitions import (
    ForceField,
    MatrixForceField,
    Outcome,
    UniformForceField,
    leg_probability,
    outcome_distribution,
    sample_outcome,
)

__all__ = [
    "ACTIONS",
    "ALL_ACTIONS",
    "AdaptiveRouter",
    "Action",
    "ActionClass",
    "BaselineRouter",
    "CARDINAL_ACTIONS",
    "CompiledRoutingModel",
    "CyclePlan",
    "DEFAULT_MAX_ASPECT",
    "DOUBLE_ACTIONS",
    "DecomposedMO",
    "ForceField",
    "HAZARD_STATE",
    "HEIGHTEN_ACTIONS",
    "HybridScheduler",
    "MOPhase",
    "MatrixForceField",
    "ORDINAL_ACTIONS",
    "OFF_CHIP",
    "OracleRouter",
    "Outcome",
    "PrecomputeReport",
    "RJHelper",
    "ReactiveRouter",
    "Router",
    "RoutingJob",
    "RoutingStrategy",
    "RoutingTask",
    "StrategyLibrary",
    "SynthesisResult",
    "UniformForceField",
    "WIDEN_ACTIONS",
    "ZONE_MARGIN",
    "actuation_matrix",
    "apply_action",
    "baseline_field",
    "build_routing_model_fast",
    "clear_shape_action_memo",
    "compiled_shape_actions",
    "extract_fast_strategy",
    "enabled_actions",
    "fit_droplet_shape",
    "force_field_from_degradation",
    "force_field_from_health",
    "frontier",
    "frontier_directions",
    "guard",
    "health_fingerprint",
    "is_off_chip",
    "leg_probability",
    "outcome_distribution",
    "precompute_library",
    "routing_jobs_of",
    "sample_outcome",
    "size_error",
    "strategy_from_synthesis",
    "synthesize",
    "synthesize_with_field",
    "within_chip",
    "zone",
]
