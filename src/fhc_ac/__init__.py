"""Finite-horizon constrained actor-critic with per-stage tabular critics.

The package trains stochastic non-stationary policies on finite-horizon MDPs
with expected-cost constraints. Three coupled stochastic approximations run
per episode: tabular TD critics for the penalized and constraint value
functions, a Gibbs actor driven by the critic's temporal differences, and
clamped Lagrange multipliers driven by the constraint critics. An exact
dynamic-programming module provides ground truth for all of it, and a dense
time-varying grid world serves as the standard benchmark.
"""

from .mdp_model import (
    Episode,
    FiniteHorizonCMDP,
    ValidationReport,
    load_model,
    make_cmdp,
    model_from_doc,
    reachable_sets,
    rollout,
    save_model,
    validate,
)
from .policy import (
    NonStationaryPolicy,
    load_policy,
    save_policy,
    tabular_policy,
)
from .dp_oracle import (
    ExactSolution,
    ReferenceSolution,
    backward_induction,
    constrained_reference,
    evaluate_deterministic,
    evaluate_policy,
    exact_gradient,
    finite_difference_gradient,
    greedy_response,
    lagrangian_value,
    occupation_measures,
)
from .critic import (
    FixedPointWeights,
    fixed_points,
    update_constraint_critic,
    update_penalized_critic,
)
from .trainer import (
    StationarityReport,
    StepSizeSchedules,
    TrainerConfig,
    TrainerState,
    TrainingMetrics,
    actor_update,
    check_schedules,
    load_checkpoint,
    make_trainer,
    moving_average,
    multiplier_update,
    save_checkpoint,
    stationarity_diagnostics,
    train,
)
from .gridworld_env import (
    DISPLACEMENTS,
    GridWorldConfig,
    benchmark_gridworld,
    build_gridworld,
    calibrate_threshold,
    cell_index,
    gridworld_config_from_doc,
    gridworld_config_to_doc,
    load_gridworld_config,
    random_gridworld,
    random_schedule,
    save_gridworld_config,
    step_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "Episode",
    "FiniteHorizonCMDP",
    "ValidationReport",
    "load_model",
    "make_cmdp",
    "model_from_doc",
    "reachable_sets",
    "rollout",
    "save_model",
    "validate",
    "NonStationaryPolicy",
    "load_policy",
    "save_policy",
    "tabular_policy",
    "ExactSolution",
    "ReferenceSolution",
    "backward_induction",
    "constrained_reference",
    "evaluate_deterministic",
    "evaluate_policy",
    "exact_gradient",
    "finite_difference_gradient",
    "greedy_response",
    "lagrangian_value",
    "occupation_measures",
    "FixedPointWeights",
    "fixed_points",
    "update_constraint_critic",
    "update_penalized_critic",
    "StationarityReport",
    "StepSizeSchedules",
    "TrainerConfig",
    "TrainerState",
    "TrainingMetrics",
    "actor_update",
    "check_schedules",
    "load_checkpoint",
    "make_trainer",
    "moving_average",
    "multiplier_update",
    "save_checkpoint",
    "stationarity_diagnostics",
    "train",
    "DISPLACEMENTS",
    "GridWorldConfig",
    "benchmark_gridworld",
    "build_gridworld",
    "calibrate_threshold",
    "cell_index",
    "gridworld_config_from_doc",
    "gridworld_config_to_doc",
    "load_gridworld_config",
    "random_gridworld",
    "random_schedule",
    "save_gridworld_config",
    "step_kernel",
    "__version__",
]
