"""Capacity with an optional expected-cost budget, in one solver loop.

The solver meets a budget S inside its step (``cqcap.solver``), so every
budget is one solve on the caller's channel at the full epsilon, and the
result is that solve's. The unconstrained capacity is the budgeted one at
S = inf, where the multiplier is zero.
"""

from __future__ import annotations

import math

from .channel import CqChannel
from .solver import CapacityResult, SolverConfig, solve_fixed_lambda


def unconstrained_capacity(ch: CqChannel, epsilon: float = 1e-6,
                           max_iter: int = 1_000_000) -> CapacityResult:
    """Capacity without a cost budget: the budgeted capacity at an infinite budget."""
    return constrained_capacity(ch, math.inf, epsilon, max_iter)


def constrained_capacity(ch: CqChannel, cost_limit: float, epsilon: float = 1e-6,
                         max_iter: int = 1_000_000) -> CapacityResult:
    """Capacity subject to expected cost <= cost_limit.

    One solve at ``epsilon`` on ``ch``: the solver meets a budget below the
    costliest letter's cost inside its step, and a budget at or above it
    cannot bind. A budget at or just above the cheapest letter cost is the
    solver's infinite tilt, whose trace still covers every letter; a budget
    below it raises ``InfeasibleCost``. ``SolverConfig`` checks the
    parameters, so a bad one raises ``BadParams`` before the solve starts.
    """
    # called through this module's global, which the benchmark wraps to count solves
    return solve_fixed_lambda(
        ch, SolverConfig(epsilon=epsilon, max_iter=max_iter, cost_limit=cost_limit))[0]
