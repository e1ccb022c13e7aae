"""Dense complex Hermitian matrix services: validation, spectra and entropies.

A validated state carries its spectral entropy in nats (``entropy_nats``),
which the solver reads. The exact-matrix divergences, the log on the support
and entropies in bits are reference math, in ``cqcap.reference``.

Validation takes eigenvalues only, and a state within a tenth of the
cutoff of rank one takes none: its spectrum is (t, 0, ..., 0), t its trace,
which is what its eigenvalues give once clamped (``_rank_one``). That test
runs on the raw input, before the Hermitian check, and a state that passes
it needs no such check: its residual bounds its asymmetry far inside
``HERMITIAN_TOL``. A state's eigenvalues at or below the cutoff are clamped
to zero in its spectrum, but its matrix is not rebuilt from the clamped
spectrum: it stays the symmetrized input, divided by its trace. Each
clamped eigenvalue is at most the cutoff in size, and dividing by the trace
moves the kept ones by as much as the clamped ones sum to, so the stored
matrix is within 2 m * cutoff in trace norm of the state whose spectrum and
entropy are reported (cutoff = ``EIGENVALUE_REL`` times the largest
eigenvalue, at most 1e-12). Symmetrizing already discards an asymmetry of
up to ``HERMITIAN_TOL`` times the entry scale, far more than this.
Divergences against an operator whose log is bounded by L in norm move by
at most 2 m * cutoff * L.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import BadTrace, NotHermitian, NotPSD

LN2 = math.log(2.0)


HERMITIAN_TOL = 1e-9    # max-norm asymmetry, relative to the entry scale
TRACE_TOL = 1e-9        # |Tr - 1|
EIGENVALUE_REL = 1e-12  # support cutoff, relative to the largest eigenvalue
_TINY = np.finfo(float).tiny


class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace operator and its spectrum.

    Instances are immutable and safe to share between threads; build them
    through :func:`validate_density`. The matrix and its clamped eigenvalues,
    in descending order, are fixed at construction. The matching orthonormal
    eigenvectors are computed once, on first use, so states that only need
    their entropy never pay for them. States compare and hash by identity:
    an elementwise comparison of the arrays has no single truth value.
    """

    def __init__(self, matrix: np.ndarray, eigenvalues: np.ndarray):
        self._matrix = matrix
        self._eigenvalues = eigenvalues

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal columns matching ``eigenvalues``; the kernel's come last."""
        v = np.linalg.eigh(self._matrix)[1][:, ::-1].copy()
        v.setflags(write=False)
        return v

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self._eigenvalues))

    @cached_property
    def entropy_nats(self) -> float:
        """Spectral entropy -sum(w log w) over the support, natural log."""
        return _entropy_nats(self._eigenvalues)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, rank={self.rank})"


def validate_density(raw) -> DensityMatrix:
    """Check and normalize a raw matrix into a :class:`DensityMatrix`.

    The input is symmetrized and its eigenvalues are computed. Eigenvalues in
    ``(-cutoff, cutoff]`` are clamped to zero and the rest renormalized, and
    the matrix is divided by its trace; the cutoff is ``EIGENVALUE_REL``
    times the largest eigenvalue. Larger negativity, asymmetry, or trace
    deviation raise instead of being repaired. A state within a tenth of the
    cutoff of rank one, measured on the input as given, skips the
    eigenvalues: its spectrum is exactly (1, 0, ..., 0), the one the rule
    gives it, and its matrix is divided by its trace. The input array is
    never written.
    """
    return _validate_stack(np.asarray(raw, dtype=np.complex128)[None])[1][0]


def _first_bad(flags: np.ndarray) -> int | None:
    return int(flags.argmax()) if flags.any() else None


def _validate_stack(a: np.ndarray) -> tuple[np.ndarray, list[DensityMatrix]]:
    """:func:`validate_density`'s rule on each matrix of an (n, m, m) complex stack.

    Returns the validated matrices as one read-only stack, and each as a state.
    Every check runs along the first axis at once, and an error names the
    index of the first faulty state; the checks raise in the order finite,
    Hermitian, trace, PSD. ``_rank_one`` runs first, on the raw stack. A
    state it passes is finite, its trace is within ``TRACE_TOL`` of 1 and
    its asymmetry far within ``HERMITIAN_TOL``, so only the others take the
    asymmetry check. A non-finite entry leaves its state's asymmetry
    non-finite, so entries are tested for finiteness only to name that
    state, and the entry scale is taken only for an asymmetry above
    ``HERMITIAN_TOL``. A state that passes takes the spectrum
    (t, 0, ..., 0), t its trace, and is repaired like any clamped state; the
    others share one batched ``eigvalsh``. ``a`` may be the caller's array:
    only the adjoint copy is written, and symmetrized in place.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape[1:]}")
    n, m = a.shape[:2]
    # inf - inf in the asymmetry, and squares or sums of huge entries, give
    # nan or inf quietly; each then fails a check below
    with np.errstate(over="ignore", invalid="ignore"):
        # the symmetrized trace, bit for bit: the diagonal's real parts
        trace = a.trace(axis1=1, axis2=2).real
        near = np.abs(trace - 1.0) <= TRACE_TOL
        pure = _rank_one(a, trace, near)
        # the Ellipsis takes every state without a copy
        mixed = ... if pure is None else ~pure
        adjoint = np.conj(a.swapaxes(1, 2), order="C")
        if pure is None:
            asymmetry = np.abs(a - adjoint).max(axis=(1, 2))
        else:
            asymmetry = np.zeros(n)
            if not pure.all():
                asymmetry[mixed] = np.abs(a[mixed] - adjoint[mixed]).max(axis=(1, 2))
        # the tolerance is at least HERMITIAN_TOL, so only a larger or a
        # non-finite asymmetry needs a second look
        if not (asymmetry <= HERMITIAN_TOL).all():
            if not np.isfinite(asymmetry).all():
                finite = np.isfinite(a).all(axis=(1, 2))
                if not finite.all():
                    raise ValueError(f"state {int(finite.argmin())}: "
                                     "matrix entries must be finite")
            # finite entries whose difference overflowed exceed every scale
            suspect = (asymmetry > HERMITIAN_TOL).nonzero()[0]
            largest = np.abs(a[suspect]).max(axis=(1, 2))
            excess = asymmetry[suspect]
            bad = (excess > HERMITIAN_TOL * np.maximum(1.0, largest)) | np.isinf(excess)
            if bad.any():
                k = int(suspect[bad.argmax()])
                raise NotHermitian(f"state {k}: asymmetry {asymmetry[k]:.3e} exceeds tolerance")
        # entries are finite here, so a trace is finite or infinite, not nan
        if (k := _first_bad(~near)) is not None:
            raise BadTrace(f"state {k}: trace {float(trace[k])!r} deviates from 1 "
                           "beyond tolerance")
        np.add(adjoint, a, out=adjoint)
        adjoint *= 0.5
    herm = adjoint
    w = np.zeros((n, m))
    w[:, 0] = trace
    if pure is None or not pure.all():
        w[mixed] = np.linalg.eigvalsh(herm[mixed])[:, ::-1]
    cutoff = EIGENVALUE_REL * np.maximum(w[:, 0], _TINY)
    # written to fail on nan: entries too large to symmetrize leave nan eigenvalues
    if (k := _first_bad(~(w[:, -1] >= -cutoff))) is not None:
        raise NotPSD(f"state {k}: eigenvalue {float(w[k, -1]):.3e} below -{cutoff[k]:.3e}")
    clamped = np.where(w <= cutoff[:, None], 0.0, w)
    repair = (clamped != w).any(axis=1) | (np.abs(clamped.sum(axis=1) - 1.0) > 1e-13)
    if pure is not None:
        repair |= pure
    if repair.any():
        # complex / real is (re + im * 0) * (1 / t) in numpy: the same values
        flat = herm.view(np.float64)
        if not repair.all():
            clamped[repair] /= clamped[repair].sum(axis=1, keepdims=True)
            flat[repair] *= (1.0 / trace[repair])[:, None, None]
        else:
            clamped /= clamped.sum(axis=1, keepdims=True)
            flat *= (1.0 / trace)[:, None, None]
    for arr in (herm, clamped):
        arr.setflags(write=False)
    return herm, [DensityMatrix(herm[k], clamped[k]) for k in range(n)]


def _rank_one(a: np.ndarray, trace: np.ndarray, near: np.ndarray) -> np.ndarray | None:
    """Which states of a raw stack with real traces ``trace`` are rank one; None if none.

    The stack is the raw input, not yet checked or symmetrized, and only
    the states flagged ``near``, whose trace is within ``TRACE_TOL`` of 1,
    are tried. With k the index of a state's largest real diagonal entry,
    v = a[:, k] / sqrt(Re a_kk) and R = a - v v^H, the state passes when
    ||R||_F <= delta = 0.1 * ``EIGENVALUE_REL`` * t. Its entries are then
    finite, or R would not be, and ||a - a^H||_F <= 2 delta, far inside
    ``HERMITIAN_TOL``: the residual implies the Hermitian check. Its
    symmetrized matrix rho = (a + a^H) / 2 is within delta of v v^H too, so
    by Weyl's inequality every eigenvalue of rho lies within delta of the
    spectrum (|v|^2, 0, ..., 0). So its m - 1 small eigenvalues lie within a
    tenth of the cutoff of zero, where the eigenvalue rule clamps every one
    of them and raises no ``NotPSD``, and its clamped spectrum renormalizes
    to exactly (1, 0, ..., 0). This path follows that clamp rule: if the
    rule changes, the bound must too. R is formed explicitly:
    ||a||^2 - 2 Re v^H a v + |v|^4 resolves it only to ~1e-8.

    A purity screen picks the states that get the residual. ||R||_F <= delta
    bounds | ||a||_F - |v|^2 | and, as |Re Tr R| <= sqrt(m) delta, |t - |v|^2|
    too, so |Tr a^H a - t^2| <= 2 (sqrt(m) + 1) delta t + (sqrt(m) + 1)^2
    delta^2. That is well inside the screen's sqrt(m) * ``EIGENVALUE_REL`` *
    t^2, with or without symmetry, so a mixed stack pays one reduction and
    no residual. The real diagonal sums to t, near 1, so the largest entry is
    at least t / m and its square root is safe. The caller holds
    ``np.errstate``: an entry whose square overflows leaves Tr a^H a
    infinite, off the screen.
    """
    m = a.shape[1]
    purity = _squared_norms(a)
    square = trace * trace
    pure = near & (np.abs(purity - square) <= math.sqrt(m) * EIGENVALUE_REL * square)
    if not pure.any():
        return None
    rho = a if pure.all() else a[pure]
    diag = rho.diagonal(axis1=1, axis2=2).real
    rows = np.arange(rho.shape[0])
    k = diag.argmax(axis=1)
    v = rho[rows, :, k] / np.sqrt(diag[rows, k])[:, None]
    resid = np.matmul(v[:, :, None], v.conj()[:, None, :])
    np.subtract(rho, resid, out=resid)
    delta = 0.1 * EIGENVALUE_REL * trace[pure]
    pure[pure] = _squared_norms(resid) <= delta * delta
    return pure


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Each matrix's squared Frobenius norm, as one batched real dot product."""
    flat = stack.reshape(stack.shape[0], 1, -1).view(np.float64)
    return (flat @ flat.swapaxes(1, 2)).reshape(-1)


def _entropy_nats(eigenvalues: np.ndarray) -> float:
    """-sum(w log w) over the positive eigenvalues, natural log."""
    w = eigenvalues[eigenvalues > 0.0]
    return max(0.0, float(-(w * np.log(w)).sum()))
