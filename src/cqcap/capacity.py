"""Capacity with an optional expected-cost budget, via bisection on the multiplier.

The expected cost of the fixed-multiplier optimizer is non-increasing in the
multiplier, so the budget-matching multiplier is found by doubling then
bisecting. The reported capacity composes the inner value with the budget
term; its certificate pairs an explicitly feasible achievable value with the
smallest weak-duality upper bound over every multiplier solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CqChannel, InputDistribution, holevo_quantity
from .errors import BracketFailure, InfeasibleCost
from .solver import (
    FixedLambdaResult,
    IterationTrace,
    SolverConfig,
    TerminationReason,
    solve_fixed_lambda,
)

LAMBDA_TOL_REL = 1e-12
LAMBDA_MAX = 2.0**64
WARM_START_MIX = 1e-6


@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with its optimizer, multiplier, and certificate.

    ``evaluations`` lists every (multiplier, expected cost) pair the outer
    loop solved, in evaluation order; ``outer_iterations`` counts the solves
    beyond the initial unconstrained probe. ``trace`` is the final inner
    solve's iteration trace.
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


def _cost_tolerance(epsilon: float) -> float:
    return max(1e-8, epsilon)


def _warm_start(probs: np.ndarray) -> np.ndarray:
    # restore strict positivity lost to underflow in a previous solve
    n = probs.size
    return (1.0 - WARM_START_MIX) * probs + WARM_START_MIX / n


def unconstrained_capacity(ch: CqChannel, epsilon: float = 1e-6,
                           max_iter: int = 1_000_000) -> CapacityResult:
    """Capacity without a cost budget (multiplier fixed at zero)."""
    config = SolverConfig(multiplier=0.0, epsilon=epsilon, max_iter=max_iter)
    res, trace = solve_fixed_lambda(ch, config)
    # every distribution meets a budget at the costliest letter
    return _capacity_result(ch, res, trace, 0.0, float(ch.costs.max()),
                            [(0.0, res.expected_cost)], [res.upper_bits])


def _feasible_value(ch: CqChannel, res: FixedLambdaResult, cost_limit: float) -> float:
    """Holevo value of a distribution made exactly feasible; a true lower bound."""
    probs = res.probs.probs
    # no distribution costs more than the costliest letter; clip rounding above it
    cost = min(float(ch.costs @ probs), float(ch.costs.max()))
    if cost <= cost_limit:
        return holevo_quantity(ch, probs)
    cheapest = int(np.argmin(ch.costs))
    cheapest_cost = float(ch.costs[cheapest])
    share = (cost - cost_limit) / (cost - cheapest_cost)
    mixed = (1.0 - share) * probs
    mixed[cheapest] += share
    return holevo_quantity(ch, mixed / mixed.sum())


def _capacity_result(ch, res, trace, multiplier, cost_limit, evaluations,
                     bounds) -> CapacityResult:
    """Certify ``res``: its feasible value below, the smallest dual bound of every solve above."""
    lower = _feasible_value(ch, res, cost_limit)
    upper = min(bounds)
    return CapacityResult(
        capacity_bits=min(max(res.value_bits + multiplier * cost_limit, lower), upper),
        probs=res.probs,
        multiplier=multiplier,
        expected_cost=res.expected_cost,
        constraint_active=multiplier > 0.0,
        gap_certificate_bits=(lower, upper),
        outer_iterations=len(evaluations) - 1,
        termination=res.termination,
        evaluations=tuple(evaluations),
        trace=trace,
    )


def constrained_capacity(ch: CqChannel, cost_limit: float, epsilon: float = 1e-6,
                         max_iter: int = 1_000_000) -> CapacityResult:
    """Capacity subject to expected cost <= cost_limit.

    Solves at multiplier zero first; when that optimizer already fits the
    budget the constraint is inactive. Otherwise the multiplier is doubled
    until the cost drops below the budget, then bisected until the cost
    matches the budget within ``max(1e-8, epsilon)``. Inner solves run at
    ``epsilon / 2`` and warm-start from the previous multiplier's optimizer.
    If the multiplier interval collapses before the cost matches (the
    optimizer cost jumps across the budget), the feasible endpoint is
    returned. Every exit certifies the same way: the feasible value of the
    returned distribution from below, and the smallest weak-duality bound
    over all solved multipliers from above.
    """
    min_cost = float(ch.costs.min())
    if cost_limit < min_cost:
        raise InfeasibleCost(
            f"budget {cost_limit!r} below the cheapest letter cost {min_cost!r}"
        )
    # a budget above the costliest letter binds nothing; capping it keeps it finite
    cost_limit = min(cost_limit, float(ch.costs.max()))
    cost_tol = _cost_tolerance(epsilon)
    inner_eps = epsilon / 2.0
    evaluations, bounds = [], []

    def solve(multiplier, start=None):
        config = SolverConfig(multiplier=multiplier, epsilon=inner_eps,
                              max_iter=max_iter)
        res, trace = solve_fixed_lambda(ch, config, initial=start)
        evaluations.append((multiplier, res.expected_cost))
        bounds.append(res.upper_bits + multiplier * cost_limit)
        return res, trace

    res0, trace0 = solve(0.0)
    if res0.expected_cost <= cost_limit + cost_tol:
        return _capacity_result(ch, res0, trace0, 0.0, cost_limit, evaluations, bounds)

    # bracket: double the multiplier until the optimizer fits the budget
    lam_lo, lam_hi = 0.0, 1.0
    warm = res0.probs.probs
    while True:
        res_hi, trace_hi = solve(lam_hi, _warm_start(warm))
        warm = res_hi.probs.probs
        if abs(res_hi.expected_cost - cost_limit) <= cost_tol:
            return _capacity_result(ch, res_hi, trace_hi, lam_hi, cost_limit,
                                    evaluations, bounds)
        if res_hi.expected_cost < cost_limit:
            break
        lam_lo = lam_hi
        lam_hi *= 2.0
        if lam_hi > LAMBDA_MAX:
            raise BracketFailure(
                f"expected cost stayed above {cost_limit!r} up to multiplier {LAMBDA_MAX}"
            )

    # bisect: cost(lam_lo) > budget > cost(lam_hi)
    while lam_hi - lam_lo > LAMBDA_TOL_REL * max(1.0, lam_hi):
        mid = 0.5 * (lam_lo + lam_hi)
        res_mid, trace_mid = solve(mid, _warm_start(warm))
        warm = res_mid.probs.probs
        if abs(res_mid.expected_cost - cost_limit) <= cost_tol:
            return _capacity_result(ch, res_mid, trace_mid, mid, cost_limit,
                                    evaluations, bounds)
        if res_mid.expected_cost > cost_limit:
            lam_lo = mid
        else:
            lam_hi, res_hi, trace_hi = mid, res_mid, trace_mid

    # interval collapsed without matching the budget: the optimizer cost jumps
    # across it (non-unique inner maximizer); report the feasible endpoint
    return _capacity_result(ch, res_hi, trace_hi, lam_hi, cost_limit, evaluations, bounds)
