"""Capacity with an optional expected-cost budget, in one solver loop.

The solver meets a budget S inside its step (``cqcap.solver``), so every
budget above the cheapest letter cost is one solve at the full epsilon, and
the result's certificate is that solve's. Only the cheapest letters fit a
budget at their cost, so its capacity is theirs alone. The unconstrained
capacity is the budgeted one at S = inf, where the multiplier is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CqChannel, InputDistribution, holevo_quantity
from .errors import BadParams, InfeasibleCost
from .hermitian import LN2
from .solver import (
    MIN_HEADROOM,
    IterationTrace,
    SolverConfig,
    TerminationReason,
    solve_fixed_lambda,
)


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with its optimizer, multiplier, and certificate.

    ``capacity_bits`` is the certified lower bound, the Holevo value of the
    budget-feasible ``probs``. ``multiplier`` is that of the best upper
    bound's dual line, ``inf`` at a budget equal to the cheapest letter
    cost. ``constraint_active`` is true when the budget set the answer: the
    solver had to tilt its steps onto the budget and the returned
    distribution costs it, or only the cheapest letters fit it.
    ``evaluations`` holds one (multiplier, expected cost) pair per solve,
    the cheapest-letter solve as ``(inf, cheapest cost)``, and
    ``outer_iterations``, the solves after the first, is 0. ``iterations``
    is the solver loop's step count, and ``certified`` says whether the
    certificate closed within epsilon. ``trace`` is the solve's, so at the
    cheapest budget it covers only the cheapest letters.
    """

    capacity_bits: float
    probs: InputDistribution
    multiplier: float
    expected_cost: float
    constraint_active: bool
    gap_certificate_bits: tuple
    outer_iterations: int
    termination: TerminationReason
    evaluations: tuple
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

    One solve at ``epsilon``: the solver meets a budget below the costliest
    letter's cost inside its step, and a budget at or above it cannot bind.
    At a budget equal to the cheapest letter cost only the cheapest letters
    fit, so the solve runs on them alone and its result is lifted back. So
    does a budget within ``MIN_HEADROOM`` of the cost range above it, with
    the upper bound widened by what the costlier letters' sliver of mass
    can add.
    """
    if math.isnan(cost_limit):
        raise BadParams("budget must be a number or inf, got nan")
    min_cost, max_cost = float(ch.costs.min()), float(ch.costs.max())
    if cost_limit < min_cost:
        raise InfeasibleCost(
            f"budget {cost_limit!r} below the cheapest letter cost {min_cost!r}"
        )
    headroom = cost_limit - min_cost
    if headroom <= MIN_HEADROOM * (max_cost - min_cost) and cost_limit < max_cost:
        # the solver's floored update cannot meet so little headroom, and
        # the cheapest letters alone fit any budget
        cheapest = np.flatnonzero(ch.costs == min_cost)
        res, trace = solve_fixed_lambda(
            CqChannel([ch.states[x] for x in cheapest], ch.costs[cheapest]),
            SolverConfig(epsilon=epsilon, max_iter=max_iter))
        probs = np.zeros(ch.size)
        probs[cheapest] = res.probs.probs
        lower, upper = holevo_quantity(ch, probs), res.upper_bits
        multiplier, active = math.inf, True
        if headroom > 0.0:
            # a feasible p puts mass q <= headroom / gap on the costlier
            # letters, which adds at most q log2(dim) + h(q) bits to the
            # Holevo value of the rest (h, the binary entropy, peaks at 1/2)
            gap = float(ch.costs[ch.costs > min_cost].min()) - min_cost
            q = min(1.0, headroom / gap)
            h = min(q, 0.5)
            upper += q * math.log2(ch.dim) - (h * math.log(h) + (1.0 - h) * math.log1p(-h)) / LN2
    else:
        # the solver meets a budget below the costliest letter's cost inside
        # its step; at multiplier zero its value is the Holevo value of its
        # distribution
        res, trace = solve_fixed_lambda(
            ch, SolverConfig(epsilon=epsilon, max_iter=max_iter, cost_limit=cost_limit))
        probs, lower, multiplier = res.probs.probs, res.value_bits, res.multiplier
        upper, active = res.upper_bits, res.budget_binds
    cost = float(ch.costs @ probs)
    return CapacityResult(
        capacity_bits=lower,
        probs=InputDistribution(probs),
        multiplier=multiplier,
        expected_cost=cost,
        constraint_active=active,
        gap_certificate_bits=(lower, upper),
        outer_iterations=0,
        termination=res.termination,
        evaluations=((multiplier, cost),),
        trace=trace,
        iterations=res.iterations,
        certified=upper - lower <= epsilon,
    )
