"""Independent brute-force reference solvers for verification.

These deliberately avoid the iterative solver: the grid search evaluates the
Holevo quantity directly on simplex grid points, and the classical solver
works on transition matrices alone. Both exist to cross-check results, so
they must stay on separate code paths from :mod:`cqcap.solver`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import CqChannel, InputDistribution
from .errors import AlphabetTooLarge, BadParams, NoFeasibleGridPoint, NotStochastic
from .hermitian import LN2

MAX_GRID_ALPHABET = 4
# twice the largest grid the default resolutions or the tests build (3 letters
# at resolution 500); resolution 1000 fits 2 letters only
MAX_GRID_POINTS = 250_000
DEFAULT_GRID_RESOLUTION = {1: 2, 2: 1000, 3: 200, 4: 60}


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid with step 1/resolution; optionally penalize cost at a fixed multiplier.

    A resolution that is not an integer, or is below 2, raises ``BadParams``,
    and so does a penalty multiplier that is not finite and nonnegative;
    ``None`` means no penalty.
    """

    resolution: int
    penalty_multiplier: float | None = None

    def __post_init__(self):
        # bool subclasses int
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, (int, np.integer)):
            raise BadParams(f"grid resolution must be an integer, got {self.resolution!r}")
        if self.resolution < 2:
            raise BadParams(f"grid resolution must be at least 2, got {self.resolution!r}")
        # a nan fails every comparison, so it fails this one too
        if self.penalty_multiplier is not None and not 0 <= self.penalty_multiplier < math.inf:
            raise BadParams("penalty multiplier must be finite and nonnegative, "
                            f"got {self.penalty_multiplier!r}")


@dataclass(frozen=True)
class GridResult:
    """Best grid value with its argmax and a heuristic coverage slack.

    The true optimum exceeds ``value_bits`` by at most ``slack_bits``; the
    slack is a documented heuristic (objective scale divided by the grid
    resolution), not a proven bound.
    """

    value_bits: float
    argmax: InputDistribution
    slack_bits: float


def _simplex_grid(n: int, k: int) -> np.ndarray:
    """All length-n compositions of k, scaled to the simplex; shape (count, n)."""
    if n == 1:
        return np.ones((1, 1))
    combos = itertools.combinations(range(k + n - 1), n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(combos), dtype=np.int64
    ).reshape(-1, n - 1)
    bounds = np.hstack([
        np.full((bars.shape[0], 1), -1, dtype=np.int64),
        bars,
        np.full((bars.shape[0], 1), k + n - 1, dtype=np.int64),
    ])
    counts = np.diff(bounds, axis=1) - 1
    return counts / float(k)


def _batched_holevo_bits(ch: CqChannel, points: np.ndarray) -> np.ndarray:
    entropies = []
    # a thousand or so mixtures at a time, so that their memory does not grow with the grid
    for chunk in np.array_split(points, max(1, points.shape[0] // 1024)):
        eigs = np.linalg.eigvalsh(np.einsum("pn,nij->pij", chunk, ch.state_stack))
        eigs = np.clip(eigs, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(eigs > 1e-15, eigs * np.log(eigs), 0.0)
        entropies.append(-terms.sum(axis=1))
    chi_nats = np.concatenate(entropies) - points @ ch.letter_entropies_nats
    return np.maximum(chi_nats, 0.0) / LN2


def grid_capacity(ch: CqChannel, spec: GridSpec, cost_limit: float | None = None) -> GridResult:
    """Exhaustive simplex grid search for tiny alphabets (n <= 4).

    Evaluates the Holevo quantity (minus the cost penalty in fixed-multiplier
    mode) on every grid point, skipping points over ``cost_limit`` when given.
    When that leaves no point with mass on a costlier letter than the
    cheapest, the slack also covers the mass the budget lets them carry.
    A grid of more than ``MAX_GRID_POINTS`` points is refused before any is
    built.
    """
    n = ch.size
    if n > MAX_GRID_ALPHABET:
        raise AlphabetTooLarge(f"grid search supports n <= {MAX_GRID_ALPHABET}, got {n}")
    count = math.comb(spec.resolution + n - 1, n - 1)
    if count > MAX_GRID_POINTS:
        raise BadParams(f"a {n}-letter grid at resolution {spec.resolution} has {count} "
                        f"points, over the limit of {MAX_GRID_POINTS}")
    points = _simplex_grid(n, spec.resolution)
    if cost_limit is not None:
        feasible = points @ ch.costs <= cost_limit + 1e-12
        points = points[feasible]
        if points.shape[0] == 0:
            raise NoFeasibleGridPoint(f"no grid point has expected cost <= {cost_limit!r}")
    values = _batched_holevo_bits(ch, points)
    if spec.penalty_multiplier is not None:
        values = values - spec.penalty_multiplier * (points @ ch.costs)
    best = int(np.argmax(values))
    scale = math.log2(n) if n > 1 else 0.0
    scale += float(ch.letter_entropies_nats.max()) / LN2 + 1.0
    if spec.penalty_multiplier is not None:
        scale += abs(spec.penalty_multiplier) * float(ch.costs.max())
    slack = scale / spec.resolution
    cheapest = float(ch.costs.min())
    costlier = ch.costs > cheapest
    if cost_limit is not None and costlier.any() and not points[:, costlier].any():
        # the budget leaves the costlier letters less mass than one grid step,
        # but a feasible p may still put q = headroom / gap on them, which adds
        # at most q log2(dim) + h(q) bits to the cheapest letters' value
        q = min(1.0, (cost_limit - cheapest) / float(ch.costs[costlier].min() - cheapest))
        h = min(q, 0.5)
        if h > 0.0:
            slack += q * math.log2(ch.dim) - h * math.log2(h) - (1.0 - h) * math.log2(1.0 - h)
    return GridResult(
        value_bits=float(values[best]),
        argmax=InputDistribution(points[best]),
        slack_bits=slack,
    )


def classical_ba(transition, epsilon: float = 1e-8, max_iter: int = 1_000_000) -> float:
    """Capacity of a classical discrete memoryless channel, in bits.

    ``transition`` is row-stochastic with one row per input letter. Runs the
    classical multiplicative update until its certified bound pair is within
    ``epsilon`` bits and returns the certified lower value.
    """
    w = np.asarray(transition, dtype=float)
    if w.ndim != 2 or w.shape[0] < 1:
        raise NotStochastic(f"expected a 2-D transition matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or float(w.min()) < 0.0:
        raise NotStochastic("transition probabilities must be finite and nonnegative")
    row_sums = w.sum(axis=1)
    if float(np.abs(row_sums - 1.0).max()) > 1e-10:
        raise NotStochastic(f"row sums deviate from 1: {row_sums.tolist()}")

    n = w.shape[0]
    positive = w > 0
    row_neg_entropy = np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0).sum(axis=1)
    q = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        out = q @ w
        safe_log_out = np.where(out > 0, np.log(np.where(out > 0, out, 1.0)), 0.0)
        divergence = row_neg_entropy - w @ safe_log_out
        bound = float(divergence.max())
        mask = q > 0
        log_weights = np.full(n, -math.inf)
        log_weights[mask] = np.log(q[mask]) + divergence[mask]
        top = float(log_weights.max())
        log_norm = top + math.log(float(np.exp(log_weights - top).sum()))
        if (bound - log_norm) / LN2 <= epsilon:
            return log_norm / LN2
        q = np.exp(log_weights - log_norm)
    raise RuntimeError(f"no certified value within {epsilon} bits after {max_iter} iterations")


def diagonal_transition_matrix(ch: CqChannel) -> np.ndarray:
    """Transition matrix induced by a channel of commuting diagonal states."""
    stack = ch.state_stack
    off_diag = stack.copy()
    idx = np.arange(ch.dim)
    off_diag[:, idx, idx] = 0.0
    if float(np.abs(off_diag).max()) > 1e-12:
        raise ValueError("channel states are not diagonal")
    return np.real(stack[:, idx, idx])
