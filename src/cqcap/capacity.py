"""Capacity with an optional expected-cost budget, in one solver loop.

The solver meets a budget S inside its step (``cqcap.solver``), so every
budget is one solve on the caller's channel at the full epsilon, and the
result's certificate is that solve's. The unconstrained capacity is the
budgeted one at S = inf, where the multiplier is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import CqChannel, InputDistribution
from .errors import BadParams
from .solver import IterationTrace, SolverConfig, TerminationReason, solve_fixed_lambda


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with its optimizer, multiplier, and certificate.

    ``capacity_bits`` is the certified lower bound, the Holevo value of the
    budget-feasible ``probs``. ``multiplier`` is that of the best upper
    bound's dual line, ``inf`` at a budget too close to the cheapest letter
    cost for any finite tilt. ``constraint_active`` is true when the budget
    set the answer: the solver had to tilt its steps onto the budget and the
    returned distribution costs it, or the tilt was infinite.
    ``iterations`` is the solver loop's step count, and ``certified`` says
    whether the certificate closed within epsilon. ``trace`` is the solve's,
    over every letter of the channel.
    """

    capacity_bits: float
    probs: InputDistribution
    multiplier: float
    expected_cost: float
    constraint_active: bool
    gap_certificate_bits: tuple
    termination: TerminationReason
    trace: IterationTrace
    iterations: int
    certified: bool


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
    below it raises ``InfeasibleCost``.
    """
    if math.isnan(cost_limit):
        raise BadParams("budget must be a number or inf, got nan")
    res, trace = solve_fixed_lambda(
        ch, SolverConfig(epsilon=epsilon, max_iter=max_iter, cost_limit=cost_limit))
    lower, upper = res.value_bits, res.upper_bits
    return CapacityResult(
        capacity_bits=lower,
        probs=res.probs,
        multiplier=res.multiplier,
        expected_cost=res.expected_cost,
        constraint_active=res.budget_binds,
        gap_certificate_bits=(lower, upper),
        termination=res.termination,
        trace=trace,
        iterations=res.iterations,
        certified=upper - lower <= epsilon,
    )
