"""Alternating-maximization solver with certified bounds, at a fixed multiplier or a budget.

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
``cqcap.channel``). The loop forms each state's gain D - penalty once: the
upper bound is max(gain) + excess and the step value log Z = lse(log p +
gain). ``make_iteration_state``, ``ba_step``, ``upper_bound`` and
``surrogate_objective`` wrap the same kernel and penalty helper for callers
outside the loop, so they reproduce its bounds and step values bit for bit.
The exact-matrix versions of these quantities, which share none of the
kernel, are reference math in ``cqcap.reference``, off the solver path.

A solve reports one lower bound: the Holevo value of the returned
distribution, ``holevo_quantity``, penalized as chi(p) - mu c.p at a fixed
multiplier mu. The best step value is only the loop's stopping quantity,
``max(trace.objective_bits)``; the returned distribution's value is at least
it, up to rounding (see below).

One function, ``_update``, makes every distribution the solver steps to or
returns: p ~ p exp(gamma gain), normalized by its sum, the log-weights of
positive letters floored at ``LOG_WEIGHT_FLOOR`` below the largest, so none
underflows to zero mass, which it could never regain. gamma = 1 is the plain
update T (the floor moves at most exp(-700) of mass per letter), as in
``ba_step``. Only an infinite penalty (the infinite tilt below) zeroes a letter.

The solver steps further than T when that keeps the ascent: from a state s
it proposes gamma > 1 (the extrapolated step of Matz and Duhamel) and keeps
the proposal when its step value is at least log Z(s). Otherwise it takes
T(s) and resets gamma to 1; each kept step multiplies gamma by
``GAMMA_GROWTH``, up to ``GAMMA_MAX``. Both bounds are those of the current
state, valid at any distribution, so the certificate does not depend on
which update led there. A run that stops at s returns T(s), whose penalized
Holevo value is at least log Z(s), so it carries the lower bound.

Every run also proposes a Newton step, from its 4th step on
(``NEWTON_START``; the first three are first-order steps, whose rate
criterion 07 reads). At the optimum every letter of the support has the same
gain t and no letter a larger one, so the proposal solves the KKT system of
the active letters A (mass above ``NEWTON_ACTIVE_MASS``, or gain above log
Z): H_AA dp + t 1 = gain_A, 1.dp = 0, with H = -dD/dp from
``cqcap.channel._curvature``, which reuses the eigenvectors of the step's own
``eigh``, so a proposal costs one spectrum, that of its own evaluation. It
is skipped when the KKT matrix is singular, and when more letters are active
than the curvature's rank bound, except on a classical channel whose extra
letters all trail the level (below). H_xy = sum_ij conj(R_x)_ij (R_y)_ij
K_ij with R_x the state in the mixture's eigenbasis and K > 0 except where
both eigenvalues are raised, so H v = 0 exactly when sum_x v_x R_x vanishes
there: H has rank at most d^2, and where no eigenvalue is raised the trace
of sum_x v_x R_x = 0 gives 1.v = 0, so the KKT matrix over more than d^2
letters is singular. ``np.linalg.solve`` refuses a matrix it finds
singular below that bound.

The step is a primal active-set step (Nocedal and Wright, Numerical
Optimization, ch. 16). A letter blocks it when dp takes ``NEWTON_SPARE`` of
its mass or more while its gain lies within ``NEWTON_WINDOW`` (or the largest
gain's lead) below log Z, where it may still belong to the support, or when
dp crosses the boundary while its gain lies below that window. The blocking
letter with the most negative relative move leaves the system with a fixed
move, and the rest is solved again with that move on the right-hand side,
H_SS dp_S + t 1 = gain_S - H_SL dp_L, 1.dp_S = -1.dp_L, from sub-blocks of
the one KKT matrix, until no letter blocks. A letter below the window moves
``NEWTON_BOUNDARY`` of the way to the boundary, so one leaving letter no
longer damps every other move. A letter in the window that trails log Z by
more than the largest gain leads it loses ``NEWTON_SPARE`` of its mass, so
that it shrinks by halves rather than at the first-order rate; any other
letter in the window is spared: it keeps no move in the system and takes
the extrapolated factor gamma (gain - log Z), so that a letter with a small
optimal mass is not crushed to where no ascent step can bring it back. The
moves still solved for are damped to ``NEWTON_BOUNDARY`` of the way to the
boundary, and letters outside A take gain - t. A classical H = (W / lambda)
W^T has rank at most d, and each row of W sums to 1, so a null vector v of H
has 1.v = 0 and the KKT matrix over more than d letters is singular; there
the lowest-gain letters beyond d leave the system first, as above, when all
of them trail the level.

The proposal is kept only when its step value is strictly above log Z(s)
(and then gamma grows as for a kept extrapolation); otherwise it counts in
``rejected_steps`` and the step is the extrapolated or plain one above.
Whatever letters leave the system, the proposal is one more distribution
that both bounds hold at, and every letter still counts in the upper
bound's max, so neither the certificate, nor the ascent of the recorded step
values (criterion 05), nor the returned T(s) changes.

Where a run's tilt binds (0 < nu < inf, below), the optimum's KKT system
has the budget's row too: gain_A = D_A - nu c_A = t with c.p = S, the tilt
solved with p. The proposal solves the bordered system (Nocedal and Wright,
ch. 16) [H 1 c; 1^T 0 0; c^T 0 0] [dp; t; nu'] = [gain_A; 0; S - c.p] in
the shifted costs, nu' being the tilt's change, and the letters outside A
take gain - t - nu' c. ``_take_out``'s sub-blocks carry the row, with the
fixed moves on its right-hand side too. The row reaches the proposal
through the state's evaluation, which finds the tilt; nu = 0 and the
infinite tilt solve the plain system on their own gain. The proposal is
evaluated, and so tilted again, like any other, and kept only when its
step value log Z_nu + nu c.T_nu beats the current one. Its window and
activity tests compare the gains with that step value, which lies
nu c.T_nu above their own level log Z_nu: measured against the level
itself, a leaving letter whose gain the unsettled tilt lifted into the
window was spared and took more steps.

A run chooses its step rule before its loop: a fixed penalty vector, or a
tilt solved onto the budget at each step. A budget S on the expected cost
c.p (``SolverConfig.cost_limit``) is met inside the step, as in Blahut's and
Arimoto's constrained iterations: the p-step maximizes f(q, p) over the q
with c.q <= S, so it is the tilted update T_nu(p) ~ p exp(D - nu c), with
nu = 0 when T_0 fits and otherwise c.T_nu = S, found by ``_tilt`` from the
feasible side; the extrapolated step is tilted too. The step's lower bound is
f(T_nu, p) = log Z_nu + nu c.T_nu: f(q, p) is at most the Holevo value of q
at any p, and T_nu meets the budget whatever nu is, so the tilt's tolerance
(``TILT_TOL_REL`` of the budget) sets only how tight it is. The upper bound
is the step's dual line U(nu) + nu S, U(mu) = max_x (D_x - mu c_x) + excess:
U(mu) bounds chi(q) - mu c.q at every q, and mu (S - c.q) >= 0 for a
feasible q. Costs enter shifted so the cheapest is zero, which changes no
update and no bound. A fixed multiplier mu, or a budget at or above the
costliest cost (mu = 0), is the fixed penalty mu c. A budget within
``MIN_HEADROOM`` of the cost range above the cheapest, too little for the
floored update to thin the costlier letters, is the limit nu = inf: the
fixed penalty 0 on the cheapest letters and inf on the rest, whose mass is
zero from the first update on. Its bound adds the q log2(dim) + h(q) bits
(h, the binary entropy) that the mass q <= headroom / (next cost) that a
feasible p leaves them can carry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import (
    CqChannel,
    InputDistribution,
    _curvature,
    _spectral_terms,
    as_probability_vector,
    holevo_quantity,
    kl_divergence_bits,
)
from .errors import BadParams, EmptyTrace, InfeasibleCost, SupportViolation
from .hermitian import LN2

STALL_TOL_BITS = 1e-14
STALL_WINDOW = 50
DIVERGENCE_FLOOR_BITS = 1e-13
GAMMA_GROWTH = 1.1
GAMMA_MAX = 64.0
LOG_WEIGHT_FLOOR = 700.0  # nats; exp(-700) is still a normal float
TILT_TOL_REL = 1e-12  # a tilted update costs (1 - this) to 1 times the budget
TILT_MAX_EVALS = 64  # then the tilt settles for its bracket's feasible end
MIN_HEADROOM = math.exp(-LOG_WEIGHT_FLOOR / 2)
NEWTON_START = 4  # the first three steps are first-order ones (module docstring)
NEWTON_ACTIVE_MASS = 1e-10
NEWTON_BOUNDARY = 0.99  # the share of the way to the simplex's boundary a step may go
NEWTON_WINDOW = 3e-3  # nats below log Z within which a letter may still be in the support
NEWTON_SPARE = 0.5  # the share of its mass at which such a letter blocks a step


def _check_multiplier(multiplier: float) -> None:
    # a nan fails every comparison, so it fails this one too
    if not 0 <= multiplier < math.inf:
        raise BadParams(f"multiplier must be finite and nonnegative, got {multiplier!r}")


def _penalty_nats(ch: CqChannel, multiplier: float) -> np.ndarray:
    """The per-letter penalty multiplier * costs, in nats."""
    _check_multiplier(multiplier)
    # a Python float product overflows to inf without a warning, and it bounds
    # every entry of the array product below
    if not math.isfinite(multiplier * LN2 * float(ch.costs.max())):
        raise BadParams(f"multiplier {multiplier!r} makes a penalty that is not finite")
    return multiplier * LN2 * ch.costs


class TerminationReason(str, Enum):
    GAP_REACHED = "gap_reached"
    MAX_ITER = "max_iter"
    STALLED = "stalled"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: a fixed multiplier, or a budget to meet.

    ``multiplier`` is the cost penalty in bits per cost unit; ``epsilon``
    is the target certified gap in bits. A finite ``cost_limit`` tilts each
    step onto that budget instead (module docstring).
    It is the one check of the solve parameters: each bad one raises
    ``BadParams`` naming its value.
    """

    multiplier: float = 0.0
    epsilon: float = 1e-6
    max_iter: int = 1_000_000
    cost_limit: float = math.inf

    def __post_init__(self):
        _check_multiplier(self.multiplier)
        if math.isnan(self.cost_limit):
            raise BadParams("cost_limit must be a number or inf, got nan")
        if self.cost_limit < math.inf and self.multiplier != 0.0:
            raise BadParams(f"a budgeted run takes no fixed multiplier, got {self.multiplier!r}")
        if not self.epsilon > 0:
            raise BadParams(f"epsilon must be positive, got {self.epsilon!r}")
        if self.max_iter < 1:
            raise BadParams(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class IterationState:
    """One iterate: distribution, its mixture's spectrum, and cached divergences.

    ``divergences_nats`` are taken against the mixture with its eigenvalues
    raised to the cutoff; ``excess_nats`` is what the upper bound adds to the
    largest of them: log(1 + the trace the raising added), plus the charge
    for the states' weight outside the support basis.
    """

    probs: np.ndarray
    # of the mixture in the support basis, before raising: ascending, or in the
    # basis's order for a classical channel (see ``cqcap.channel._spectral_terms``)
    eigenvalues: np.ndarray
    divergences_nats: np.ndarray
    excess_nats: float


@dataclass
class IterationTrace:
    """Per step, what the solve loop computes, appended by the loop alone.

    ``objective_bits`` and ``upper_bits`` hold each step's value and upper
    bound in bits, ``iterates`` the distribution the step starts from.
    """

    objective_bits: list = field(default_factory=list)
    upper_bits: list = field(default_factory=list)
    iterates: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.objective_bits)


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a solve at a fixed multiplier or a budget, with its certificate.

    ``gap_certificate_bits`` is the certified interval for the optimum.
    Its lower end is ``capacity_bits``, the Holevo value of the returned
    ``probs`` (penalized at a fixed multiplier, module docstring); its upper
    end is the smallest upper bound of any step. ``certified`` says whether
    the interval is at most epsilon wide. ``multiplier`` is the mu of the best
    upper bound's dual line: the configured one, that step's tilt, or inf for
    the infinite tilt. A budgeted run's ``expected_cost`` is the cheapest
    cost plus the shifted cost the tilt meets. ``constraint_active`` says
    that the budget set the answer: a step had to be tilted and the returned
    distribution costs the budget, or the tilt is infinite.
    ``trace`` records the ``iterations`` steps over every letter of the
    channel. ``rejected_steps`` counts the proposals that lost ascent: Newton
    proposals and extrapolated steps, each replaced by the next rule;
    ``newton_steps`` counts the Newton steps taken. The run took
    ``iterations + rejected_steps + 1`` spectra of a mixture, the last a
    values-only one in ``holevo_quantity``.
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
    rejected_steps: int
    newton_steps: int
    certified: bool


def make_iteration_state(ch: CqChannel, p) -> IterationState:
    """Bundle a distribution with its mixture's spectrum and per-letter divergences."""
    w = as_probability_vector(p, ch.size)
    return IterationState(w, *_spectral_terms(ch, w)[:3])


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
    nats = float(terms.sum()) - float(_penalty_nats(ch, multiplier) @ w)
    return nats / LN2


def _log_partition(log_weights: np.ndarray) -> float:
    """log Z, the log-sum-exp of the plain update's log-weights log p + gain."""
    top = float(log_weights.max())
    return top + math.log(float(np.exp(log_weights - top).sum()))


def _update(log_p: np.ndarray, gain: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """p ~ p exp(gamma gain), positive letters' log-weights floored (module docstring)."""
    trial = log_p + gamma * gain
    trial -= trial.max()
    # zero-mass letters stay at log 0 = -inf
    np.maximum(trial, -LOG_WEIGHT_FLOOR, out=trial, where=trial > -math.inf)
    weights = np.exp(trial)
    return weights / weights.sum()


def ba_step(ch: CqChannel, multiplier: float, state: IterationState):
    """The loop's plain update T, bit for bit; returns the new state and the step value in bits.

    Zero-mass letters stay at zero, and positive ones stay positive. The step
    value is a certified lower bound on the penalized optimum at any
    distribution.
    """
    gain = state.divergences_nats - _penalty_nats(ch, multiplier)
    with np.errstate(divide="ignore"):
        log_p = np.log(state.probs)
    w = _update(log_p, gain)
    return IterationState(w, *_spectral_terms(ch, w)[:3]), _log_partition(log_p + gain) / LN2


def upper_bound(ch: CqChannel, multiplier: float, state: IterationState) -> float:
    """Certified upper bound max_x (divergence_x - penalty_x) + excess, in bits.

    Valid and finite at every iterate: the optimum of the penalized Holevo
    value never exceeds it.
    """
    gain = state.divergences_nats - _penalty_nats(ch, multiplier)
    return (float(gain.max()) + state.excess_nats) / LN2


def _newton_proposal(ch, p, log_p, gain, log_z, spectrum, gamma, tilt=None):
    """A Newton step on the KKT system gain_A = t of the active letters, or None.

    Solves H_AA dp + t 1 = gain_A, 1.dp = 0 with ``_curvature``'s H. Where
    the tilt binds, ``tilt`` holds the shifted costs c and the headroom
    S - c.p, and the system gains the budget's row and column:
    H_AA dp + t 1 + nu' c_A = gain_A, c_A.dp = S - c.p, nu' the tilt's
    change. The letters that block the step leave the system through
    ``_take_out``, which solves it again for the rest. The dp still solved
    for is damped to the boundary, and the letters outside A take
    gain - t - nu' c (module docstring).
    """
    evals, evecs = spectrum
    active = (p > NEWTON_ACTIVE_MASS) | (gain > log_z)
    letters = np.flatnonzero(active)
    j = letters.size
    lead = float(gain.max()) - log_z
    # the KKT matrix over more letters than the curvature's rank bound, d on
    # a classical channel and d^2 on a quantum one, is singular
    low = None
    if evecs is not None:
        if j > evals.size ** 2:
            return None
    elif j > evals.size:
        # a classical one's lowest letters leave the system first, if they
        # all trail the level
        low = np.argsort(gain[letters])[:j - evals.size]
        if not (gain[letters[low]] < log_z - lead).all():
            return None
    kkt = np.ones((j + 1, j + 1))
    kkt[:j, :j] = _curvature(ch, active, evals, evecs)
    kkt[j, j] = 0.0
    rhs = np.append(gain[letters], 0.0)
    if tilt is not None:
        # the budget's row and column border the system
        border = np.append(tilt[0][letters], 0.0)
        kkt = np.vstack((np.column_stack((kkt, border)), np.append(border, 0.0)))
        rhs = np.append(rhs, tilt[1])
    mass = p[letters]
    if low is not None:
        solution = np.zeros(rhs.size)
    else:
        try:
            solution = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            # a singular KKT matrix: no Newton step
            return None
    taken = None
    if low is not None or (solution[:j] <= -NEWTON_SPARE * mass).any():
        taken = _take_out(kkt, rhs, solution, mass, gain[letters], log_z, lead, low)
        if taken is None:
            return None
    delta, level = solution[:j], solution[j]
    falls = delta < 0.0
    share = min(1.0, NEWTON_BOUNDARY * float((mass[falls] / -delta[falls]).min())
                if falls.any() else 1.0)
    step = gain - level
    if tilt is not None:
        step -= solution[-1] * tilt[0]
    step[letters] = np.log1p(share * delta / mass)
    if taken is not None:
        fixed, spared = taken
        moved = fixed < 0.0
        step[letters[moved]] = np.log1p(fixed[moved] / mass[moved])
        step[letters[spared]] = gamma * (gain[letters[spared]] - log_z)
    return _update(log_p, step)


def _take_out(kkt, rhs, solution, mass, gain, log_z, lead, out=None):
    """Solve the KKT system again without the letters that block its step.

    A letter blocks when the step takes ``NEWTON_SPARE`` of its mass or more
    and its gain is undecided, or when the step crosses the boundary and its
    gain lies below the window. Starting from the letters ``out``, or else
    from the blocking letter with the most negative relative move, each
    pass takes letters out, fixes their moves and solves the rest again
    with those moves on the right-hand side (module docstring); the
    constraint rows after the letters' stay. Updates ``solution`` in place,
    zero at the letters taken out, and returns their moves and the spared
    letters, or None when a reduced system is singular.
    """
    j = mass.size
    undecided = gain >= log_z - max(NEWTON_WINDOW, lead)
    # the share of its mass a letter taken out loses: 0 for a spared one
    cut = np.where(undecided, np.where(gain < log_z - lead, NEWTON_SPARE, 0.0), NEWTON_BOUNDARY)
    bound = np.where(undecided, -NEWTON_SPARE, -1.0) * mass
    # the rows still solved for, the constraints' last
    kept = np.ones(rhs.size, dtype=bool)
    fixed = np.zeros(j)
    while True:
        if out is None:
            delta = solution[:j]
            blocking = np.flatnonzero(kept[:j] & (delta <= bound))
            if blocking.size == 0:
                break
            out = blocking[np.argmin(delta[blocking] / mass[blocking])]
        kept[out] = False
        fixed[out] = -cut[out] * mass[out]
        try:
            solution[kept] = np.linalg.solve(kkt[np.ix_(kept, kept)],
                                             rhs[kept] - kkt[kept, :j] @ fixed)
        except np.linalg.LinAlgError:
            return None
        out = None
    solution[:j][~kept[:j]] = 0.0
    return fixed, ~kept[:j] & (cut == 0.0)


def _tilt(log_p, div, gamma, powers, budget, nu):
    """The tilt nu that puts the update p ~ p exp(gamma (div - nu c)) on the budget.

    Returns nu, the update's log Z and its expected cost, from the stack
    ``powers`` of 1, c and c^2. Newton steps on the log of the cost, which
    falls with nu at gamma times its variance, start from the warm ``nu`` and
    stay inside the bracket of the tilts seen, or bisect it; after
    ``TILT_MAX_EVALS`` evaluations the bracket's feasible end is taken.
    """
    base = log_p + gamma * div
    top = float(base.max())
    base -= top
    scaled = gamma * powers[1]
    # lo, the largest tilt seen over the budget, is -inf until one is seen;
    # until then a step from a feasible tilt that leaves the bracket tries 0
    lo, hi, step = -math.inf, math.inf, math.inf
    log_target = math.log(budget * (1.0 - 0.5 * TILT_TOL_REL))
    for evals in itertools.count():
        # nu c >= 0 keeps every weight at most 1; shift up when they are so
        # small that weights MIN_HEADROOM below the largest turn subnormal
        z = base - nu * scaled
        total, first, second = (powers @ np.exp(z)).tolist()
        shift = 0.0 if total > 1e-100 else float(z.max())
        if shift:
            total, first, second = (powers @ np.exp(z - shift)).tolist()
        cost, log_z = first / total, top + shift + math.log(total)
        if cost <= budget:
            hi, fit = nu, (nu, log_z, cost)
            if nu == 0.0 or cost >= budget * (1.0 - TILT_TOL_REL):
                break
        else:
            lo = nu
        if evals >= TILT_MAX_EVALS and hi < math.inf:
            break
        var = second / total - cost * cost
        new = (nu + (math.log(cost) - log_target) * cost / (gamma * var)
               if evals < TILT_MAX_EVALS and var > 0.0 and cost > 0.0 else math.inf)
        new = max(new, 0.0)
        # bisect when Newton leaves the bracket or fails to halve its last step
        if not lo < new < hi or abs(new - nu) > 0.5 * step:
            new = ((0.0 if lo < 0.0 else 0.5 * (lo + hi)) if hi < math.inf
                   else 2.0 * lo + 1.0 / float(powers[1].max()))
        step, nu = abs(new - nu), new
    return fit


def solve_fixed_lambda(ch: CqChannel, config: SolverConfig, initial=None):
    """Iterate from the uniform distribution until the certified gap closes.

    Returns ``(CapacityResult, IterationTrace)``, the trace being the
    result's own ``trace``. The step rule is chosen before the loop (module
    docstring). Each step takes the Newton proposal, else the extrapolated
    update, when it keeps the ascent, and the plain update otherwise; the
    trace records the steps taken, and the returned distribution is the
    plain update of the last recorded state.
    Every step value is a lower bound and every step's upper bound is one
    too, so the loop's gap is the smallest upper bound seen minus the
    largest step value seen. Termination: that gap <= epsilon, a stall
    (neither bound improved by ``STALL_TOL_BITS`` for ``STALL_WINDOW``
    consecutive steps, reported rather than silently accepted), or the
    iteration cap. A loop gap that closes while the reported interval is
    wider than epsilon, which rounding alone can do, is a stall too, so
    ``gap_reached`` implies ``certified``. A custom ``initial`` distribution
    must be strictly positive: a zero-mass letter can never regain mass,
    which would silently solve a sub-channel.
    A budget below the cheapest letter cost raises ``InfeasibleCost``.
    """
    if initial is None:
        start = np.full(ch.size, 1.0 / ch.size)
    else:
        start = as_probability_vector(initial, ch.size)
        if float(start.min()) <= 0.0:
            raise ValueError("initial distribution must be strictly positive")
    penalty_nats = _penalty_nats(ch, config.multiplier)
    cheapest, costliest = float(ch.costs.min()), float(ch.costs.max())
    budgeted = config.cost_limit < costliest
    # the run's step rule: a fixed penalty, or a tilt solved onto the budget at each step
    solve_tilt, nu, widen, log_of = False, 0.0, 0.0, np.log
    if budgeted:
        # shifted costs: the cheapest letters cost zero, the budget is the headroom
        budget = config.cost_limit - cheapest
        if budget < 0.0:
            raise InfeasibleCost(f"budget {config.cost_limit!r} below the cheapest "
                                 f"letter cost {cheapest!r}")
        costs = ch.costs - cheapest
        powers = np.stack((np.ones(ch.size), costs, np.square(costs)))
        if budget > MIN_HEADROOM * (costliest - cheapest):
            solve_tilt = True
        else:
            # the infinite tilt (module docstring) penalizes the costlier letters
            # by inf, so they have zero mass after the first update; h peaks at q = 1/2
            costlier = costs > 0.0
            penalty_nats, nu = np.where(costlier, math.inf, 0.0), math.inf
            q = min(1.0, budget / float(costs[costlier].min()))
            h = min(q, 0.5)
            widen = (q * math.log2(ch.dim) - (h * math.log(h) + (1.0 - h) * math.log1p(-h)) / LN2
                     if q > 0.0 else 0.0)

            def log_of(w):
                return np.log(w, out=np.full(ch.size, -math.inf), where=w > 0.0)

    def evaluate(w, nu):
        # what the loop reads of a state: log w, div, the plain update's gain,
        # the step value (nats), the dual-line upper bound (bits), the tilt,
        # the spectrum and, where the tilt binds, the Newton system's budget row
        log_w = log_of(w)
        evals, div, excess, evecs = _spectral_terms(ch, w)
        tilt_row = None
        if solve_tilt:
            nu, log_z, cost = _tilt(log_w, div, 1.0, powers, budget, nu)
            gain = div - nu * powers[1]
            value, line = log_z + nu * cost, nu * budget / LN2
            if nu > 0.0:
                tilt_row = (powers[1], budget - float(powers[1] @ w))
        else:
            gain = div - penalty_nats
            value, line = _log_partition(log_w + gain), widen
        bound = (float(gain.max()) + excess) / LN2 + line
        return log_w, div, gain, value, bound, nu, (evals, evecs), tilt_row

    gamma = 1.0
    trace = IterationTrace()
    iterations = rejected = newton = stall_count = 0
    lower, upper, best_nu = -math.inf, math.inf, nu
    tilted = False
    p = start
    log_p, div, gain, log_z, bound_bits, nu, spectrum, tilt_row = evaluate(p, nu)
    while True:
        value_bits = log_z / LN2
        trace.objective_bits.append(value_bits)
        trace.upper_bits.append(bound_bits)
        trace.iterates.append(p)
        iterations += 1
        tilted = tilted or nu > 0.0
        moved = (value_bits - lower >= STALL_TOL_BITS
                 or upper - bound_bits >= STALL_TOL_BITS)
        if bound_bits < upper:
            best_nu = nu
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
        if reason is not None:
            break
        terms = None
        if iterations >= NEWTON_START:
            new_p = _newton_proposal(ch, p, log_p, gain, log_z, spectrum, gamma, tilt_row)
            if new_p is not None:
                terms = evaluate(new_p, nu)
                # a tie is no ascent, and the extrapolated step may do better
                if terms[3] > log_z:
                    newton += 1
                    gamma = min(GAMMA_MAX, GAMMA_GROWTH * gamma)
                else:
                    rejected += 1
                    terms = None
        if terms is None:
            step = gain
            # a solved tilt is solved again for the extrapolated proposal
            if solve_tilt and gamma != 1.0:
                step = div - _tilt(log_p, div, gamma, powers, budget, nu)[0] * powers[1]
            new_p = _update(log_p, step, gamma)
            terms = evaluate(new_p, nu)
            # at gamma = 1 the proposal is the plain update, which needs no test
            if terms[3] >= log_z or gamma == 1.0:
                gamma = min(GAMMA_MAX, GAMMA_GROWTH * gamma)
            else:
                rejected += 1
                gamma = 1.0
                new_p = _update(log_p, gain)
                terms = evaluate(new_p, nu)
        p = new_p
        log_p, div, gain, log_z, bound_bits, nu, spectrum, tilt_row = terms

    # the plain update of the last recorded state
    p = _update(log_p, gain)
    probs = InputDistribution(p)
    # the shifted cost the tilt meets, so a feasible distribution reports one
    expected_cost = cheapest + float(powers[1] @ p) if budgeted else float(ch.costs @ p)
    capacity_bits = holevo_quantity(ch, probs) - config.multiplier * expected_cost
    certified = upper - capacity_bits <= config.epsilon
    if not certified and reason is TerminationReason.GAP_REACHED:
        # the loop's gap closed by rounding alone; the reported interval did not
        reason = TerminationReason.STALLED
    result = CapacityResult(
        capacity_bits=capacity_bits,
        probs=probs,
        multiplier=config.multiplier + best_nu / LN2,
        expected_cost=expected_cost,
        constraint_active=tilted and (nu == math.inf
                                      or float(powers[1] @ p) >= budget * (1.0 - TILT_TOL_REL)),
        gap_certificate_bits=(capacity_bits, upper),
        termination=reason,
        trace=trace,
        iterations=iterations,
        rejected_steps=rejected,
        newton_steps=newton,
        certified=certified,
    )
    # the pair form stays while the benchmark's inner-solve counter unpacks it
    return result, trace


@dataclass(frozen=True)
class RateDiagnostics:
    sublinear_ok: bool
    geometric_ratio_tail: float
    divergence_to_final_bits: list


def rate_diagnostics(trace: IterationTrace, p_final) -> RateDiagnostics:
    """Convergence-rate checks on a completed trace.

    ``sublinear_ok`` verifies that the remaining gap to the final certified
    upper bound, the smallest recorded one (the extrapolated step's bounds
    are not monotone), decays at least like log2(n)/t.
    ``divergence_to_final_bits`` holds each iterate's divergence
    D(p_final || iterate) in bits, and ``geometric_ratio_tail`` the largest
    ratio of consecutive ones over the last quarter of recorded steps,
    reported as 1.0 once they fall below measurability
    (``DIVERGENCE_FLOOR_BITS``).
    """
    if len(trace) == 0:
        raise EmptyTrace("no recorded steps")
    final = as_probability_vector(p_final, trace.iterates[0].size)
    divergences = [kl_divergence_bits(final, iterate) for iterate in trace.iterates]

    best_upper = min(trace.upper_bits)
    log_n = math.log2(final.size)
    # 1e-12 absorbs float dust in the recorded bounds
    sublinear = all(best_upper - objective <= log_n / step + 1e-12
                    for step, objective in enumerate(trace.objective_bits[1:], start=1))

    count = len(divergences)
    start = (3 * count) // 4
    ratios = [
        divergences[i + 1] / divergences[i]
        for i in range(start, count - 1)
        if divergences[i] >= DIVERGENCE_FLOOR_BITS
    ]
    tail = max(ratios) if ratios else 1.0
    return RateDiagnostics(sublinear_ok=sublinear, geometric_ratio_tail=tail,
                           divergence_to_final_bits=divergences)
