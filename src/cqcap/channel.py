"""Channel model: letters mapped to output states, with costs and file IO.

The channel file format is a JSON object

    {"dim": m, "states": [state, ...], "costs": [s_1, ..., s_n]}

where each state is an m x m row-major array of ``[re, im]`` pairs and
"costs" is optional (absent means all-zero, i.e. unconstrained).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParams, DimensionMismatch, LengthMismatch
from .hermitian import (
    EIGENVALUE_REL,
    LN2,
    DensityMatrix,
    _entropy_nats,
    _validate_stack,
)

SIMPLEX_TOL = 1e-12
CURVATURE_CLOSE = 1e-4  # relative eigenvalue distance below which K takes the mean derivative


class InputDistribution:
    """Probability vector over the channel's input letters."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError(f"expected a non-empty 1-D vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if float(p.min()) < 0.0:
            raise ValueError(f"negative probability {float(p.min())!r}")
        if abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"probabilities sum to {float(p.sum())!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        self._probs = p

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @classmethod
    def uniform(cls, n: int) -> "InputDistribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, letter: int) -> "InputDistribution":
        p = np.zeros(n)
        p[letter] = 1.0
        return cls(p)

    def __len__(self) -> int:
        return self._probs.size

    def __repr__(self) -> str:
        return f"InputDistribution({self._probs.tolist()})"


def as_probability_vector(p, n: int | None = None) -> np.ndarray:
    """Coerce an InputDistribution or array-like into a validated read-only vector."""
    arr = p.probs if isinstance(p, InputDistribution) else InputDistribution(p).probs
    if n is not None and arr.size != n:
        raise LengthMismatch(f"distribution length {arr.size} != alphabet size {n}")
    return arr


def kl_divergence_bits(p: np.ndarray, q: np.ndarray) -> float:
    """Classical relative entropy D(p||q) in bits; +inf on a support violation."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    val = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
    return max(0.0, val) / LN2


class CqChannel:
    """Finite input alphabet mapped to output states, with a per-letter cost.

    Construction also fixes the basis that every evaluation of a
    distribution works in: the eigenvectors of sum_x rho_x whose eigenvalues
    exceed ``EIGENVALUE_REL`` times the largest, an isometry V onto the
    joint support of the states, of dimension d. ``support_stack`` holds
    every V^H rho_x V, so an evaluation costs d^3 rather than m^3. Each
    state lies below the sum, so its weight l_x outside V is at most eta,
    the discarded eigenvalue mass (``_outside_mass``). That weight is of the
    order of the cutoff that validation already clamps (rounding, for states
    exactly inside a proper subspace). When d = m, eta is zero and the
    evaluation is the uncompressed one, bit for bit.
    """

    def __init__(self, states, costs=None):
        resolved = list(states)
        if not resolved:
            raise BadParams("a channel needs at least one state")
        raw = [k for k, s in enumerate(resolved) if not isinstance(s, DensityMatrix)]
        mats = [np.asarray(resolved[k], dtype=np.complex128) for k in raw]
        shapes = {a.shape for a in mats} | {
            s.matrix.shape for s in resolved if isinstance(s, DensityMatrix)}
        if len(shapes) > 1:
            raise DimensionMismatch("all states must share one dimension")
        n = len(resolved)
        if raw:
            stack, validated = _validate_stack(np.stack(mats))
            for k, rho in zip(raw, validated):
                resolved[k] = rho
        if len(raw) < n:
            stack = np.stack([s.matrix for s in resolved])
            stack.setflags(write=False)
        if costs is None:
            cost_vec = np.zeros(n)
        else:
            cost_vec = np.asarray(costs, dtype=float)
            if cost_vec.shape != (n,):
                raise LengthMismatch(f"costs length {cost_vec.shape} != alphabet size {n}")
            if not np.all(np.isfinite(cost_vec)) or float(cost_vec.min()) < 0.0:
                raise BadParams("costs must be finite and nonnegative")
            cost_vec = cost_vec.copy()
        cost_vec.setflags(write=False)
        self._states = tuple(resolved)
        self._costs = cost_vec
        self._state_stack = stack
        self._support_stack = stack
        self._outside_mass = 0.0
        w, v = np.linalg.eigh(stack.sum(axis=0))
        keep = w > EIGENVALUE_REL * w[-1]
        if not keep.all():
            iso = v[:, keep]
            support = iso.conj().T @ stack @ iso
            support = 0.5 * (support + support.conj().swapaxes(1, 2))
            support.setflags(write=False)
            self._support_stack = support
            self._outside_mass = float(np.maximum(w[~keep], 0.0).sum())

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return self._states

    @property
    def costs(self) -> np.ndarray:
        return self._costs

    @property
    def size(self) -> int:
        return len(self._states)

    @property
    def dim(self) -> int:
        return self._state_stack.shape[1]

    @property
    def state_stack(self) -> np.ndarray:
        """All state matrices as one (n, m, m) array."""
        return self._state_stack

    @property
    def support_stack(self) -> np.ndarray:
        """Every state in the joint-support basis, one (n, d, d) array.

        When the support is the whole space (d = m) this is ``state_stack``
        itself. The solver and :func:`holevo_quantity` work on it; the
        oracles and ``cqcap.reference`` read ``state_stack``.
        """
        return self._support_stack

    @cached_property
    def _packed_support(self) -> np.ndarray:
        """``support_stack`` read without a copy as one (n, 2 d^2) real array.

        Row x holds the entries of V^H rho_x V row-major, each as its real
        part followed by its imaginary part, so sums over x and real dot
        products with a packed d x d matrix are plain real GEMVs. For
        Hermitian rho and L, Tr(rho L) = sum_ij rho_ij conj(L_ij) is real, so
        it equals sum_ij (Re rho_ij Re L_ij + Im rho_ij Im L_ij): the real dot
        product of the two packed rows.
        """
        stack = self._support_stack
        return stack.reshape(stack.shape[0], -1).view(np.float64)

    @cached_property
    def _diagonal_rows(self) -> np.ndarray | None:
        """The diagonals of ``support_stack`` as one real (n, d) array, or None.

        None unless every off-diagonal entry of ``support_stack`` is exactly
        zero; then the channel is classical, row x is the distribution
        V^H rho_x V puts on the basis, and the step kernel needs no ``eigh``.
        Validation and the support basis symmetrize every state, so a diagonal
        entry's imaginary part is exactly zero and ``.real`` drops nothing.
        """
        stack = self._support_stack
        diagonal = stack.diagonal(axis1=1, axis2=2)
        # classical iff every nonzero entry lies on the diagonal; counting copies
        # nothing, and each CLI call builds a fresh channel that pays for it once
        if np.count_nonzero(stack) != np.count_nonzero(diagonal):
            return None
        rows = np.ascontiguousarray(diagonal.real)
        rows.setflags(write=False)
        return rows

    @cached_property
    def letter_entropies_nats(self) -> np.ndarray:
        ent = np.array([s.entropy_nats for s in self._states])
        ent.setflags(write=False)
        return ent

    @cached_property
    def gram(self) -> np.ndarray:
        """Pairwise trace inner products Tr(rho_i rho_j); real symmetric PSD."""
        g = np.einsum("xij,yji->xy", self.state_stack, self.state_stack).real
        g.setflags(write=False)
        return g

    def __repr__(self) -> str:
        return f"CqChannel(n={self.size}, dim={self.dim})"


def holevo_quantity(ch: CqChannel, p) -> float:
    """H(mixture) - sum_x p_x H(rho_x), in bits; always nonnegative."""
    w = as_probability_vector(p, ch.size)
    # a mixture of validated states needs no validation, only its spectrum,
    # and its nonzero spectrum lies in the joint support
    mixture_nats = _entropy_nats(np.linalg.eigvalsh(_support_mixture(ch, w)))
    return max(0.0, (mixture_nats - float(w @ ch.letter_entropies_nats)) / LN2)


def _support_mixture(ch: CqChannel, w: np.ndarray) -> np.ndarray:
    """The d x d mixture sum_x w_x V^H rho_x V, as one real GEMV on the packed stack."""
    d = ch.support_stack.shape[1]
    return (w @ ch._packed_support).view(np.complex128).reshape(d, d)


def _spectral_terms(ch: CqChannel, w: np.ndarray):
    """The solver step's kernel: the mixture's spectrum, the divergences and the excess.

    Returns the eigenvalues of the support-basis mixture sigma (before
    raising), the divergences against tau', sigma with its eigenvalues raised
    to the cutoff c (nats), the upper bound's excess (nats), and the
    eigenvectors of sigma (None for a classical channel), which
    ``_curvature`` reuses; the ``cqcap.solver`` docstring says why they
    certify.

    The excess also charges for the support basis. With delta the trace the
    raising added, T = V tau' V^H + c (1 - V V^H) is block diagonal, so
    Tr(rho_x log T) = Tr(V^H rho_x V log tau') + l_x log c exactly, and
    Tr T <= 1 + delta + (m - d) c. So the upper bound takes the compressed
    divergences and adds log(1 + delta + (m - d) c) - eta log c, which makes
    it at least the bound of the state T / Tr T. When the states lie inside
    V, T >= V sigma V^H and the compressed divergences are those against T,
    so the step value stays a lower bound.

    A classical channel, whose ``support_stack`` has only exact zeros off
    the diagonal, takes no ``eigh``: sigma is the diagonal w @ W of its
    (n, d) diagonal rows W, in the basis's order, tau' is diagonal too, and
    the cross terms Tr(rho_x log tau') are W @ log(raised). Any other
    channel takes the ``eigh`` of sigma, whose eigenvalues come ascending.
    The test has no tolerance on purpose: a state with off-diagonal mass,
    however small, is not its diagonal, so dropping that mass would change
    its divergence, and the upper bound would no longer be the bound of an
    explicit state. Both branches share every formula after the spectrum.
    """
    # w is a simplex vector the caller vouches for, so the mixture of validated
    # states is Hermitian with unit trace and needs only its spectrum
    rows, evecs = ch._diagonal_rows, None
    if rows is None:
        evals, evecs = np.linalg.eigh(_support_mixture(ch, w))
    else:
        evals = w @ rows
    floor = EIGENVALUE_REL * float(evals.max())
    raised = np.maximum(evals, floor)
    if rows is None:
        log_tau = (evecs * np.log(raised)) @ evecs.conj().T
        cross = ch._packed_support @ log_tau.reshape(-1).view(np.float64)
    else:
        cross = rows @ np.log(raised)
    div = np.maximum(-ch.letter_entropies_nats - cross, 0.0)
    added = float((raised - evals).sum()) + (ch.dim - evals.size) * floor
    excess = math.log1p(added) - ch._outside_mass * math.log(floor)
    return evals, div, excess, evecs


def _curvature(ch: CqChannel, active: np.ndarray, evals: np.ndarray, evecs) -> np.ndarray:
    """H_xy = -dD_x/dp_y over the letters ``active``, from one step's spectrum.

    ``evals`` and ``evecs`` are what ``_spectral_terms`` returned at p, so
    the curvature takes no spectrum of its own. The divergences are
    -S(rho_x) - Tr(rho_x f(sigma)) with f = log max(., c), and by the
    Daleckii-Krein formula df(sigma)[E] = U (K o U^H E U) U^H, with K the
    divided differences of f on the eigenvalues: 1/lambda_i on the diagonal,
    0 where both eigenvalues are raised. So with R_x = U^H rho_x U,
    H_xy = sum_ij conj(R_x)_ij (R_y)_ij K_ij, one real GEMM on the packed
    rows of R. A classical channel's R_x is the diagonal row W_x, and
    H = (W / lambda) W^T over the unraised entries. The cutoff c moves with
    p too; that term is left out. H is symmetric and positive semidefinite.
    """
    floor = EIGENVALUE_REL * float(evals.max())
    raised = np.maximum(evals, floor)
    derivative = np.where(evals >= floor, 1.0 / raised, 0.0)
    if evecs is None:
        rows = ch._diagonal_rows[active]
        return (rows * derivative) @ rows.T
    d = evals.size
    log_raised = np.log(raised)
    diff = evals[:, None] - evals
    # the quotient loses its digits as two eigenvalues meet, where the mean
    # of their derivatives is good to the square of their relative distance
    close = np.abs(diff) <= CURVATURE_CLOSE * np.maximum(raised[:, None], raised)
    kernel = 0.5 * (derivative[:, None] + derivative)
    np.divide(log_raised[:, None] - log_raised, diff, out=kernel, where=~close)
    # R_x = U^H rho_x U for every active letter, as two GEMMs
    rows = ch.support_stack[active]
    k = rows.shape[0]
    right = (rows.reshape(k * d, d) @ evecs).reshape(k, d, d).transpose(1, 0, 2)
    rotated = (evecs.conj().T @ right.reshape(d, k * d)).reshape(d, k, d).transpose(1, 0, 2)
    packed = np.ascontiguousarray(rotated).reshape(k, -1).view(np.float64)
    return (packed * np.repeat(kernel.reshape(-1), 2)) @ packed.T


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    min_gram_eigenvalue: float


def independence_check(ch: CqChannel) -> IndependenceReport:
    """Linear independence of the output states via the trace Gram matrix.

    The smallest Gram eigenvalue is reported alongside the flag; the
    geometric convergence rate improves monotonically with it.
    """
    smallest = float(np.linalg.eigvalsh(ch.gram)[0])
    threshold = 1e-10 * float(np.trace(ch.gram))
    return IndependenceReport(independent=smallest > threshold,
                              min_gram_eigenvalue=smallest)


def random_channel(n: int, m: int, seed, kind: str = "pure") -> CqChannel:
    """Deterministic random channel; kind in {pure, mixed, diagonal}."""
    if n < 1 or m < 1:
        raise BadParams(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n):
        if kind == "pure":
            vec = rng.normal(size=m) + 1j * rng.normal(size=m)
            vec /= np.linalg.norm(vec)
            mats.append(np.outer(vec, vec.conj()))
        elif kind == "mixed":
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            w = a @ a.conj().T
            mats.append(w / float(np.trace(w).real))
        elif kind == "diagonal":
            row = rng.random(m)
            mats.append(np.diag(row / row.sum()).astype(complex))
        else:
            raise BadParams(f"unknown ensemble kind {kind!r}")
    return CqChannel(mats)


def channel_to_jsonable(ch: CqChannel) -> dict:
    """Channel as a plain dict in the channel file schema."""
    st = ch.state_stack
    doc = {"dim": ch.dim, "states": np.stack([st.real, st.imag], axis=-1).tolist()}
    if np.any(ch.costs != 0.0):
        doc["costs"] = [float(c) for c in ch.costs]
    return doc


def channel_from_jsonable(doc) -> CqChannel:
    """Parse and validate the channel file schema; raises ValueError on bad shape."""
    if not isinstance(doc, dict):
        raise ValueError("channel document must be a JSON object")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    raw_states = doc.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ValueError("'states' must be a non-empty list")
    mats = []
    for idx, state in enumerate(raw_states):
        arr = np.asarray(state, dtype=float)
        if arr.shape != (dim, dim, 2):
            raise ValueError(
                f"state {idx} must be a {dim}x{dim} array of [re, im] pairs, "
                f"got shape {arr.shape}"
            )
        # the shape check vouches for the nesting; numpy would read a numeric
        # string or a boolean entry as a number
        entries = itertools.chain.from_iterable(itertools.chain.from_iterable(state))
        if not all(map(_is_json_number, set(map(type, entries)))):
            raise ValueError(f"state {idx} entries must be JSON numbers")
        mats.append(arr[..., 0] + 1j * arr[..., 1])
    costs = doc.get("costs")
    if costs is not None:
        if (not isinstance(costs, list) or len(costs) != len(mats)
                or not all(map(_is_json_number, set(map(type, costs))))):
            raise ValueError("'costs' must list one number per state")
        costs = [float(c) for c in costs]
    return CqChannel(mats, costs)


def _is_json_number(kind: type) -> bool:
    # bool subclasses int, and JSON's true and false are not numbers
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def load_channel(path) -> CqChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_jsonable(json.load(fh))


def save_channel(ch: CqChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_jsonable(ch), fh)
        fh.write("\n")
