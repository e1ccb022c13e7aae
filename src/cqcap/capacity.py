"""Capacity with an optional expected-cost budget, on the chord of the capacity-cost curve.

The budgeted capacity C(S) is concave in S. A solve at a fixed multiplier
lambda gives a point below the curve and the weak-duality line
U(lambda) + lambda * S above it (Blahut's parametric method). The search
mixes a solved point on each side of the budget to cost exactly S and solves
next at their chord's slope, until the mixture's Holevo value and the
smallest dual line meet within epsilon. The unconstrained capacity is
C(inf), where the budget cannot bind and the multiplier is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CqChannel, InputDistribution, holevo_quantity
from .errors import BadParams, InfeasibleCost
from .solver import (
    IterationTrace,
    SolverConfig,
    TerminationReason,
    solve_fixed_lambda,
)

LAMBDA_TOL_REL = 1e-12
MAX_CHORD_SOLVES = 64
WARM_START_MIX = 1e-6


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with its optimizer, multiplier, and certificate.

    ``capacity_bits`` is the certified lower bound, the Holevo value of the
    budget-feasible ``probs``. ``multiplier`` is that of the smallest dual
    bound, ``inf`` at a budget equal to the cheapest letter cost.
    ``constraint_active`` is true when the multiplier-zero optimizer costs
    more than the budget. ``evaluations`` lists every (multiplier, expected
    cost) pair solved, in order, the cheapest-letter solve as ``(inf,
    cheapest cost)``; ``outer_iterations`` counts the solves after the first.
    ``trace`` is the last inner solve's, so at the cheapest budget it covers
    only the cheapest letters.
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


def _warm_start(probs: np.ndarray) -> np.ndarray:
    # restore strict positivity lost to underflow in a previous solve
    n = probs.size
    return (1.0 - WARM_START_MIX) * probs + WARM_START_MIX / n


def unconstrained_capacity(ch: CqChannel, epsilon: float = 1e-6,
                           max_iter: int = 1_000_000) -> CapacityResult:
    """Capacity without a cost budget: the budgeted capacity at an infinite budget."""
    return constrained_capacity(ch, math.inf, epsilon, max_iter)


def _capacity_result(ch, probs, lower, upper, multiplier, active, evaluations, termination,
                     trace) -> CapacityResult:
    """Certify the feasible ``probs``: its Holevo value ``lower`` below, ``upper`` above."""
    return CapacityResult(
        capacity_bits=lower,
        probs=InputDistribution(probs),
        multiplier=multiplier,
        expected_cost=float(ch.costs @ probs),
        constraint_active=active,
        gap_certificate_bits=(lower, upper),
        outer_iterations=len(evaluations) - 1,
        termination=termination,
        evaluations=tuple(evaluations),
        trace=trace,
    )


def constrained_capacity(ch: CqChannel, cost_limit: float, epsilon: float = 1e-6,
                         max_iter: int = 1_000_000) -> CapacityResult:
    """Capacity subject to expected cost <= cost_limit.

    The constraint is inactive when the multiplier-zero optimizer fits the
    budget or the budget reaches the costliest letter. Otherwise the chord
    search starts from the cheapest letters' own capacity and the
    multiplier-zero optimizer, and ends when its certificate closes within
    ``epsilon``, when the chord slope repeats a solved multiplier, or after
    ``MAX_CHORD_SOLVES`` chord solves. Inner solves run at ``epsilon / 2``,
    except that a budget that cannot bind takes one multiplier-zero solve at
    ``epsilon``, whose certificate is the whole answer.
    """
    if math.isnan(cost_limit):
        raise BadParams("budget must be a number or inf, got nan")
    min_cost, max_cost = float(ch.costs.min()), float(ch.costs.max())
    if cost_limit < min_cost:
        raise InfeasibleCost(
            f"budget {cost_limit!r} below the cheapest letter cost {min_cost!r}"
        )
    # a budget at or above the costliest letter binds nothing; capping it keeps it finite
    inactive = cost_limit >= max_cost
    cost_limit = min(cost_limit, max_cost)
    inner_epsilon = epsilon if inactive else epsilon / 2.0
    evaluations, duals = [], []

    def solve(multiplier, start=None):
        config = SolverConfig(multiplier=multiplier, epsilon=inner_epsilon,
                              max_iter=max_iter)
        res, trace = solve_fixed_lambda(ch, config, initial=start)
        evaluations.append((multiplier, res.expected_cost))
        duals.append((res.upper_bits + multiplier * cost_limit, multiplier))
        # a fixed-multiplier optimizer's Holevo value, without another Holevo call
        chi = res.value_bits + multiplier * res.expected_cost
        return res, trace, (res.expected_cost, chi, res.probs.probs)

    res, trace, above = solve(0.0)
    if res.expected_cost <= cost_limit or inactive:
        # at multiplier zero the solver's value is the Holevo value of its distribution
        return _capacity_result(ch, res.probs.probs, res.value_bits, res.upper_bits, 0.0,
                                False, evaluations, res.termination, trace)

    # only the cheapest letters fit a budget at their cost, so their own
    # capacity is the left end of the curve
    cheapest = np.flatnonzero(ch.costs == min_cost)
    res, trace = solve_fixed_lambda(
        CqChannel([ch.states[x] for x in cheapest], ch.costs[cheapest]),
        SolverConfig(epsilon=inner_epsilon, max_iter=max_iter))
    evaluations.append((math.inf, min_cost))
    lifted = np.zeros(ch.size)
    lifted[cheapest] = res.probs.probs
    if cost_limit == min_cost:
        return _capacity_result(ch, lifted, holevo_quantity(ch, lifted), res.upper_bits,
                                math.inf, True, evaluations, res.termination, trace)
    below = (min_cost, res.value_bits, lifted)

    while True:
        (cost_lo, chi_lo, p_lo), (cost_hi, chi_hi, p_hi) = below, above
        share = (cost_limit - cost_lo) / (cost_hi - cost_lo)
        mix = (1.0 - share) * p_lo + share * p_hi
        # concavity puts the mixture's Holevo value on or above the chord
        lower = holevo_quantity(ch, mix)
        upper, multiplier = min(duals)
        slope = max(0.0, (chi_hi - chi_lo) / (cost_hi - cost_lo))
        if (upper - lower <= epsilon or len(evaluations) - 2 >= MAX_CHORD_SOLVES
                or any(abs(slope - lam) <= LAMBDA_TOL_REL * max(1.0, slope)
                       for _, lam in duals)):
            return _capacity_result(ch, mix, lower, upper, multiplier, True, evaluations,
                                    res.termination, trace)
        # the slope lies between the two points' multipliers, so its optimizer's
        # cost lies between theirs; their even mixture has mass where either has
        res, trace, point = solve(slope, _warm_start(0.5 * (p_lo + p_hi)))
        if res.expected_cost <= cost_limit:
            below = point
        else:
            above = point
