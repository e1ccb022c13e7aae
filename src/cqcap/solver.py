"""Fixed-multiplier alternating-maximization solver with certified bounds.

Each iteration multiplies the current distribution by exponentiated
per-letter divergences and renormalizes. The same iteration yields a
certified bound pair: the step value lower-bounds the optimum, the largest
penalized per-letter divergence upper-bounds it, and their gap is the
stopping criterion. All iteration arithmetic stays in the log domain
(natural log); bits appear only at the API boundary.

The divergences are taken against the mixture with its eigenvalues raised
to the relative cutoff, an operator tau' >= sigma_p of trace 1 + delta.
Since log is operator monotone, each is at most D(rho_x || sigma_p), so the
step value stays a lower bound. tau' / (1 + delta) is a state, and by the
min-max formula any state's max_x D(rho_x || tau) - penalty_x bounds the
optimum from above; that is the largest divergence plus log(1 + delta).
Every bound is finite, at any distribution, zero-mass letters included.

Every evaluation of a distribution is the channel's step kernel
``_spectral_terms``, which works in the channel's joint-support basis and
adds the charge for the states' weight outside it to the excess (see
``cqcap.channel``). The solve loop keeps each state as plain arrays, and
``make_iteration_state``, ``ba_step``, ``upper_bound`` and
``surrogate_objective`` wrap the same kernel; ``ba_step`` and
``upper_bound`` also share the loop's log-weight and bound helpers, so they
reproduce the loop's bounds and step values bit for bit. The one Holevo
value a solve reports is ``holevo_quantity`` at the returned distribution, a
values-only spectrum.

The solver steps further than the plain update T when that keeps the
ascent. From a state s with step value log Z(s) it proposes the
extrapolated update q ~ p exp(gamma (D - penalty)) (the accelerated step of
Matz and Duhamel; gamma = 1 is T) and keeps q when log Z(q) >= log Z(s).
Otherwise it takes T(s) and resets gamma to 1; each kept step multiplies
gamma by ``GAMMA_GROWTH``, up to ``GAMMA_MAX``. Both bounds are those of
the current state, valid at any distribution, so the certificate does not
depend on which update led there. A run that stops at s returns T(s),
whose penalized Holevo value is at least log Z(s), so the returned
distribution carries the lower bound. The proposal floors the log-weights
of letters with positive mass at ``LOG_WEIGHT_FLOOR`` below the largest:
a large gamma would otherwise underflow a letter the plain update keeps to
zero mass, which it could never regain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import (
    CqChannel,
    InputDistribution,
    _spectral_terms,
    as_probability_vector,
    holevo_quantity,
    kl_divergence_bits,
)
from .errors import EmptyTrace, SupportViolation
from .hermitian import LN2

STALL_TOL_BITS = 1e-14
STALL_WINDOW = 50
DIVERGENCE_FLOOR_BITS = 1e-13
GAMMA_GROWTH = 1.1
GAMMA_MAX = 64.0
LOG_WEIGHT_FLOOR = 700.0  # nats; exp(-700) is still a normal float


class TerminationReason(str, Enum):
    GAP_REACHED = "gap_reached"
    MAX_ITER = "max_iter"
    STALLED = "stalled"


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-multiplier run parameters.

    ``multiplier`` is the cost penalty in bits per cost unit; ``epsilon``
    is the target certified gap in bits.
    """

    multiplier: float = 0.0
    epsilon: float = 1e-6
    max_iter: int = 1_000_000

    def __post_init__(self):
        # a nan fails every comparison, so it fails this one too
        if not 0 <= self.multiplier < math.inf:
            raise ValueError(f"multiplier must be finite and nonnegative, got {self.multiplier!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationState:
    """One iterate: distribution, its mixture's spectrum, and cached divergences.

    ``divergences_nats`` are taken against the mixture with its eigenvalues
    raised to the cutoff; ``excess_nats`` is what the upper bound adds to the
    largest of them: log(1 + the trace the raising added), plus the charge
    for the states' weight outside the support basis.
    """

    probs: np.ndarray
    eigenvalues: np.ndarray  # of the mixture in the support basis, ascending, before raising
    divergences_nats: np.ndarray
    excess_nats: float


@dataclass
class IterationTrace:
    """Recorded per-step diagnostics; ``divergence_to_final_bits`` is filled post hoc."""

    objective_bits: list = field(default_factory=list)
    upper_bits: list = field(default_factory=list)
    expected_cost: list = field(default_factory=list)
    l1_step: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    divergence_to_final_bits: list | None = None

    @property
    def steps(self) -> list:
        """Step indices; every step is recorded, so these are 0, 1, ..., len - 1."""
        return list(range(len(self)))

    @property
    def lower_bits(self) -> list:
        """Certified lower bounds; each step value is one, so this aliases ``objective_bits``."""
        return self.objective_bits

    def record(self, objective, upper, cost, l1, iterate):
        self.objective_bits.append(objective)
        self.upper_bits.append(upper)
        self.expected_cost.append(cost)
        self.l1_step.append(l1)
        self.iterates.append(iterate)

    def __len__(self) -> int:
        return len(self.objective_bits)


@dataclass(frozen=True)
class FixedLambdaResult:
    """Outcome of a fixed-multiplier run.

    ``value_bits`` is the penalized Holevo value at the final distribution;
    ``[lower_bits, upper_bits]`` is the certified interval for the optimum,
    the best bounds of any step. ``rejected_steps`` counts the extrapolated
    steps that lost ascent and were replaced by the plain update; the run
    took ``iterations + rejected_steps + 1`` spectra of a mixture, the last
    a values-only one in ``holevo_quantity``.
    """

    probs: InputDistribution
    value_bits: float
    lower_bits: float
    upper_bits: float
    expected_cost: float
    iterations: int
    termination: TerminationReason
    rejected_steps: int


def make_iteration_state(ch: CqChannel, p) -> IterationState:
    """Bundle a distribution with its mixture's spectrum and per-letter divergences."""
    w = as_probability_vector(p, ch.size)
    return IterationState(w, *_spectral_terms(ch, w))


def surrogate_objective(ch: CqChannel, multiplier: float, p, p_prime) -> float:
    """Two-argument iteration objective f(p, p'), in bits.

    f(p, p') = sum_x p_x (log p'_x - log p_x + D_x(p')) - penalty(p), with
    D_x(p') the step's divergences at p'; requires supp(p) inside supp(p').
    Its maximum over p is the step value log Z(p'), attained at the plain
    update T(p'). Its diagonal equals the penalized Holevo value where no
    mixture eigenvalue is raised, and is at most that value otherwise, since
    raising keeps each divergence below D(rho_x || sigma_p), itself >= 0.
    """
    w = as_probability_vector(p, ch.size)
    ref = as_probability_vector(p_prime, ch.size)
    mask = w > 0
    if np.any(ref[mask] <= 0):
        raise SupportViolation("p puts mass on a letter where p_prime has none")
    div = _spectral_terms(ch, ref)[1]
    terms = w[mask] * (np.log(ref[mask]) - np.log(w[mask]) + div[mask])
    nats = float(terms.sum()) - multiplier * LN2 * float(ch.costs @ w)
    return nats / LN2


def _log_weights(log_p: np.ndarray, div: np.ndarray, penalty_nats: np.ndarray) -> np.ndarray:
    """The plain update's log-weights log p + D - penalty."""
    return log_p + div - penalty_nats


def _log_partition(log_weights: np.ndarray) -> float:
    """log Z, the log-sum-exp of the plain update's log-weights."""
    top = float(log_weights.max())
    return top + math.log(float(np.exp(log_weights - top).sum()))


def _upper_bits(div: np.ndarray, excess: float, penalty_nats: np.ndarray) -> float:
    """The upper bound max_x (D_x - penalty_x) + excess, in bits."""
    return (float((div - penalty_nats).max()) + excess) / LN2


def ba_step(ch: CqChannel, multiplier: float, state: IterationState):
    """One multiplicative update; returns the new state and the step value in bits.

    Letters with zero mass stay at zero. The step value is a certified lower
    bound on the penalized optimum at any distribution.
    """
    with np.errstate(divide="ignore"):
        log_weights = _log_weights(np.log(state.probs), state.divergences_nats,
                                   multiplier * LN2 * ch.costs)
    log_norm = _log_partition(log_weights)
    w = np.exp(log_weights - log_norm)
    return IterationState(w, *_spectral_terms(ch, w)), log_norm / LN2


def upper_bound(ch: CqChannel, multiplier: float, state: IterationState) -> float:
    """Certified upper bound max_x (divergence_x - penalty_x) + excess, in bits.

    Valid and finite at every iterate: the optimum of the penalized Holevo
    value never exceeds it.
    """
    return _upper_bits(state.divergences_nats, state.excess_nats, multiplier * LN2 * ch.costs)


def solve_fixed_lambda(ch: CqChannel, config: SolverConfig, initial=None):
    """Iterate from the uniform distribution until the certified gap closes.

    Returns ``(FixedLambdaResult, IterationTrace)``. Each step takes the
    extrapolated update when it keeps the ascent and the plain update
    otherwise (module docstring); the trace records the steps taken, and the
    returned distribution is the plain update of the last recorded state.
    Every step value is a lower bound and every step's upper bound is one
    too, so the certified gap is the smallest upper bound seen minus the
    largest step value seen. Termination: that gap <= epsilon, a stall
    (neither bound improved by ``STALL_TOL_BITS`` for ``STALL_WINDOW``
    consecutive steps, reported rather than silently accepted), or the
    iteration cap. A custom ``initial`` distribution must be strictly
    positive: a zero-mass letter can never regain mass, which would silently
    solve a sub-channel.
    """
    if initial is None:
        start = np.full(ch.size, 1.0 / ch.size)
    else:
        start = as_probability_vector(initial, ch.size)
        if float(start.min()) <= 0.0:
            raise ValueError("initial distribution must be strictly positive")
    penalty_nats = config.multiplier * LN2 * ch.costs

    def evaluate(w):
        # what the loop reads of a state: log w, the divergences, the excess,
        # the plain update's log-weights and log Z
        _, div, excess = _spectral_terms(ch, w)
        log_w = np.log(w)
        log_weights = _log_weights(log_w, div, penalty_nats)
        return log_w, div, excess, log_weights, _log_partition(log_weights)

    gamma = 1.0
    trace = IterationTrace()
    iterations = rejected = stall_count = 0
    lower, upper = -math.inf, math.inf
    p = start
    # zero-mass letters take log 0 = -inf and keep zero mass
    with np.errstate(divide="ignore"):
        log_p, div, excess, log_weights, log_z = evaluate(p)
        while True:
            bound_bits = _upper_bits(div, excess, penalty_nats)
            value_bits = log_z / LN2
            iterations += 1
            moved = (value_bits - lower >= STALL_TOL_BITS
                     or upper - bound_bits >= STALL_TOL_BITS)
            lower, upper = max(lower, value_bits), min(upper, bound_bits)
            stall_count = 0 if moved else stall_count + 1
            if upper - lower <= config.epsilon:
                reason = TerminationReason.GAP_REACHED
            elif stall_count >= STALL_WINDOW:
                reason = TerminationReason.STALLED
            elif iterations >= config.max_iter:
                reason = TerminationReason.MAX_ITER
            else:
                reason = None
            if reason is None:
                # the extrapolated update p * exp(gamma (D - penalty)), its
                # positive-mass letters floored so that none underflows to zero
                trial = log_p + gamma * (div - penalty_nats)
                top = float(trial.max())
                np.maximum(trial, top - LOG_WEIGHT_FLOOR, out=trial, where=p > 0.0)
                weights = np.exp(trial - top)
                new_p = weights / weights.sum()
                terms = evaluate(new_p)
                # at gamma = 1 the proposal is the plain update, which needs no test
                if terms[-1] >= log_z or gamma == 1.0:
                    gamma = min(GAMMA_MAX, GAMMA_GROWTH * gamma)
                else:
                    rejected += 1
                    gamma = 1.0
                    new_p = np.exp(log_weights - log_z)
                    terms = evaluate(new_p)
            else:
                new_p = np.exp(log_weights - log_z)
            trace.record(value_bits, bound_bits, float(ch.costs @ p),
                         float(np.abs(new_p - p).sum()), p)
            p = new_p
            if reason is not None:
                break
            log_p, div, excess, log_weights, log_z = terms

    probs = InputDistribution(p)
    expected_cost = float(ch.costs @ p)
    result = FixedLambdaResult(
        probs=probs,
        value_bits=holevo_quantity(ch, probs) - config.multiplier * expected_cost,
        lower_bits=lower,
        upper_bits=upper,
        expected_cost=expected_cost,
        iterations=iterations,
        termination=reason,
        rejected_steps=rejected,
    )
    return result, trace


@dataclass(frozen=True)
class RateDiagnostics:
    sublinear_ok: bool
    geometric_ratio_tail: float


def rate_diagnostics(trace: IterationTrace, p_final) -> RateDiagnostics:
    """Convergence-rate checks on a completed trace.

    Fills ``divergence_to_final_bits``. ``sublinear_ok`` verifies that the
    remaining gap to the final certified upper bound decays at least like
    log2(n)/t. ``geometric_ratio_tail`` is the largest consecutive ratio of
    divergences to the final distribution over the last quarter of recorded
    steps, reported as 1.0 once divergences fall below measurability
    (``DIVERGENCE_FLOOR_BITS``).
    """
    if len(trace) == 0:
        raise EmptyTrace("no recorded steps")
    final = as_probability_vector(p_final, trace.iterates[0].size)
    divergences = [kl_divergence_bits(final, iterate) for iterate in trace.iterates]
    trace.divergence_to_final_bits = divergences

    n = final.size
    final_upper = trace.upper_bits[-1]
    log_n = math.log2(n) if n > 1 else 0.0
    sublinear = True
    for step, objective in zip(trace.steps, trace.objective_bits):
        if step < 1:
            continue
        # 1e-12 absorbs float dust in the recorded bounds
        if final_upper - objective > log_n / step + 1e-12:
            sublinear = False
            break

    count = len(divergences)
    start = (3 * count) // 4
    ratios = [
        divergences[i + 1] / divergences[i]
        for i in range(start, count - 1)
        if divergences[i] >= DIVERGENCE_FLOOR_BITS
    ]
    tail = max(ratios) if ratios else 1.0
    return RateDiagnostics(sublinear_ok=sublinear, geometric_ratio_tail=tail)
