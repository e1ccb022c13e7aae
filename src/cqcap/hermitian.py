"""Dense complex Hermitian matrix services: validation, spectra and entropies.

A validated state carries its spectral entropy in nats (``entropy_nats``),
which the solver reads. The exact-matrix divergences, the log on the support
and entropies in bits are reference math, in ``cqcap.reference``.

Validation takes eigenvalues only. A state's eigenvalues at or below the
cutoff are clamped to zero in its spectrum, but its matrix is not rebuilt
from the clamped spectrum: it stays the symmetrized input, divided by its
trace. Each clamped eigenvalue is at most the cutoff in size, and dividing
by the trace moves the kept ones by as much as the clamped ones sum to, so
the stored matrix is within 2 m * cutoff in trace norm of the state whose
spectrum and entropy are reported (cutoff = ``EIGENVALUE_REL`` times the
largest eigenvalue, at most 1e-12). Symmetrizing already discards an
asymmetry of up to ``HERMITIAN_TOL`` times the entry scale, far more than
this. Divergences against an operator whose log is bounded by L in norm
move by at most 2 m * cutoff * L.
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
    deviation raise instead of being repaired.
    """
    return _validate_stack(np.asarray(raw, dtype=np.complex128)[None])[1][0]


def _first_bad(flags: np.ndarray) -> int | None:
    bad = np.flatnonzero(flags)
    return int(bad[0]) if bad.size else None


def _validate_stack(a: np.ndarray) -> tuple[np.ndarray, list[DensityMatrix]]:
    """:func:`validate_density`'s rule on each matrix of an (n, m, m) complex stack.

    Returns the validated matrices as one read-only stack, and each as a state.
    Every check runs along the first axis at once, and one batched
    ``eigvalsh`` serves all states; an error names the index of the first
    faulty state.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape[1:]}")
    if (k := _first_bad(~np.isfinite(a).all(axis=(1, 2)))) is not None:
        raise ValueError(f"state {k}: matrix entries must be finite")
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    adjoint = a.conj().swapaxes(1, 2)
    asymmetry = np.abs(a - adjoint).max(axis=(1, 2))
    if (k := _first_bad(asymmetry > HERMITIAN_TOL * scale)) is not None:
        raise NotHermitian(f"state {k}: asymmetry {asymmetry[k]:.3e} exceeds tolerance")
    herm = 0.5 * (a + adjoint)
    trace = np.trace(herm, axis1=1, axis2=2).real
    if (k := _first_bad(np.abs(trace - 1.0) > TRACE_TOL)) is not None:
        raise BadTrace(f"state {k}: trace {float(trace[k])!r} deviates from 1 beyond tolerance")
    w = np.linalg.eigvalsh(herm)[:, ::-1]
    cutoff = EIGENVALUE_REL * np.maximum(w[:, 0], np.finfo(float).tiny)
    if (k := _first_bad(w[:, -1] < -cutoff)) is not None:
        raise NotPSD(f"state {k}: eigenvalue {float(w[k, -1]):.3e} below -{cutoff[k]:.3e}")
    clamped = np.where(w <= cutoff[:, None], 0.0, w)
    repair = (clamped != w).any(axis=1) | (np.abs(clamped.sum(axis=1) - 1.0) > 1e-13)
    if repair.any():
        clamped[repair] /= clamped[repair].sum(axis=1, keepdims=True)
        herm[repair] /= trace[repair, None, None]
    for arr in (herm, clamped):
        arr.setflags(write=False)
    return herm, [DensityMatrix(herm[k], clamped[k]) for k in range(a.shape[0])]


def _entropy_nats(eigenvalues: np.ndarray) -> float:
    """-sum(w log w) over the positive eigenvalues, natural log."""
    w = eigenvalues[eigenvalues > 0.0]
    return max(0.0, float(-(w * np.log(w)).sum()))
