"""Dense complex Hermitian matrix services: validation, spectra, entropies, divergences.

Entropic quantities are exposed in bits; natural-log variants carry a
``_nats`` suffix and are what the iterative solver consumes internally.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadTrace, DimensionMismatch, NotHermitian, NotPSD

LN2 = math.log(2.0)


HERMITIAN_TOL = 1e-9    # max-norm asymmetry, relative to the entry scale
TRACE_TOL = 1e-9        # |Tr - 1|
EIGENVALUE_REL = 1e-12  # support cutoff, relative to the largest eigenvalue
SUPPORT_TOL = 1e-10     # mass tolerated outside another state's support


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues in descending order, and the rank.

    The matching orthonormal eigenvectors are computed from ``matrix`` on
    first use, so states that only need their entropy never pay for them.
    Spectra compare and hash by identity, as ``DensityMatrix`` does: an
    elementwise comparison of the arrays has no single truth value.
    """

    eigenvalues: np.ndarray
    rank: int
    matrix: np.ndarray = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        v = np.linalg.eigh(self.matrix)[1][:, ::-1].copy()
        v.setflags(write=False)
        return v


class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace operator with cached spectral data.

    Instances are immutable and safe to share between threads; build them
    through :func:`validate_density`. The eigenvalues are computed at
    construction; eigenvectors, the log and the kernel projector once, on
    first use.
    """

    def __init__(self, matrix: np.ndarray, spectrum: Spectrum):
        self._matrix = matrix
        self._spectrum = spectrum

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def spectrum(self) -> Spectrum:
        return self._spectrum

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def rank(self) -> int:
        return self._spectrum.rank

    @cached_property
    def entropy_nats(self) -> float:
        """Spectral entropy -sum(w log w) over the support, natural log."""
        return _entropy_nats(self._spectrum.eigenvalues)

    @cached_property
    def _log_support(self) -> np.ndarray:
        w = self._spectrum.eigenvalues[: self.rank]
        v = self._spectrum.eigenvectors[:, : self.rank]
        out = (v * np.log(w)) @ v.conj().T
        out = 0.5 * (out + out.conj().T)
        out.setflags(write=False)
        return out

    @cached_property
    def _kernel_projector(self) -> np.ndarray | None:
        if self.rank == self.dim:
            return None
        v = self._spectrum.eigenvectors[:, self.rank:]
        proj = v @ v.conj().T
        proj = 0.5 * (proj + proj.conj().T)
        proj.setflags(write=False)
        return proj

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, rank={self.rank})"


def validate_density(raw) -> DensityMatrix:
    """Check and normalize a raw matrix into a :class:`DensityMatrix`.

    The input is symmetrized and its eigenvalues are computed. Eigenvalues in
    ``(-cutoff, cutoff]`` are clamped to zero in the spectrum, which is then
    renormalized, and the matrix is divided by its trace; the cutoff is
    ``EIGENVALUE_REL`` times the largest eigenvalue. Larger negativity,
    asymmetry, or trace deviation raise instead of being repaired.
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

    rank = np.count_nonzero(clamped > 0.0, axis=1)
    for arr in (herm, clamped):
        arr.setflags(write=False)
    return herm, [DensityMatrix(herm[k], Spectrum(clamped[k], int(rank[k]), herm[k]))
                  for k in range(a.shape[0])]


def _entropy_nats(eigenvalues: np.ndarray) -> float:
    """-sum(w log w) over the positive eigenvalues, natural log."""
    w = eigenvalues[eigenvalues > 0.0]
    return max(0.0, float(-(w * np.log(w)).sum()))


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product; O(m^2)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return complex(np.sum(a * b.T))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy of a state, in bits; lies in [0, log2(dim)]."""
    return rho.entropy_nats / LN2


def log_on_support(rho: DensityMatrix) -> np.ndarray:
    """Matrix logarithm restricted to the support (natural log; kernel zeroed)."""
    return rho._log_support


def kernel_projector(rho: DensityMatrix) -> np.ndarray | None:
    """Orthogonal projector onto the kernel, or None for full-rank states."""
    return rho._kernel_projector


def relative_entropy_nats(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho (log rho - log sigma)] in nats; +inf if rho leaks outside supp(sigma)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimensions {rho.dim} and {sigma.dim} differ")
    proj = kernel_projector(sigma)
    if proj is not None:
        leakage = trace_product(rho.matrix, proj).real
        if leakage > SUPPORT_TOL:
            return math.inf
    cross = trace_product(rho.matrix, log_on_support(sigma)).real
    # mathematically >= 0 for unit-trace PSD inputs; clamp rounding dust
    return max(0.0, -rho.entropy_nats - cross)


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Relative entropy in bits, or +inf on a support violation."""
    value = relative_entropy_nats(rho, sigma)
    return value if math.isinf(value) else value / LN2
