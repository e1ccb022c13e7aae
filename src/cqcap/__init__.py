"""Capacity of classical-quantum channels via alternating maximization."""

from .capacity import constrained_capacity, unconstrained_capacity
from .channel import (
    CqChannel,
    IndependenceReport,
    InputDistribution,
    channel_from_jsonable,
    channel_to_jsonable,
    holevo_quantity,
    independence_check,
    kl_divergence_bits,
    load_channel,
    random_channel,
    save_channel,
)
from .hermitian import DensityMatrix, validate_density
from .oracle import GridResult, GridSpec, classical_ba, diagonal_transition_matrix, grid_capacity
from .solver import (
    CapacityResult,
    IterationState,
    IterationTrace,
    RateDiagnostics,
    SolverConfig,
    TerminationReason,
    ba_step,
    make_iteration_state,
    rate_diagnostics,
    solve_fixed_lambda,
    surrogate_objective,
    upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "CqChannel",
    "DensityMatrix",
    "GridResult",
    "GridSpec",
    "IndependenceReport",
    "InputDistribution",
    "IterationState",
    "IterationTrace",
    "RateDiagnostics",
    "SolverConfig",
    "TerminationReason",
    "ba_step",
    "channel_from_jsonable",
    "channel_to_jsonable",
    "classical_ba",
    "constrained_capacity",
    "diagonal_transition_matrix",
    "grid_capacity",
    "holevo_quantity",
    "independence_check",
    "kl_divergence_bits",
    "load_channel",
    "make_iteration_state",
    "random_channel",
    "rate_diagnostics",
    "save_channel",
    "solve_fixed_lambda",
    "surrogate_objective",
    "unconstrained_capacity",
    "upper_bound",
    "validate_density",
]
