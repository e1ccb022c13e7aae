"""Dense complex Hermitian matrix services: validation, spectra, entropies, divergences.

Entropic quantities are exposed in bits; natural-log variants carry a
``_nats`` suffix and are what the iterative solver consumes internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadTrace, DimensionMismatch, NotHermitian, NotPSD

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used when validating a density matrix."""

    hermitian: float = 1e-9        # max-norm asymmetry, relative to the entry scale
    trace: float = 1e-9            # |Tr - 1|
    eigenvalue_rel: float = 1e-12  # support cutoff, relative to the largest eigenvalue
    support: float = 1e-10         # mass tolerated outside another state's support


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in descending order with matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int


class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace operator with cached spectral data.

    Instances are immutable and safe to share between threads; build them
    through :func:`validate_density`. The eigendecomposition is computed once
    at construction and reused by every downstream operation.
    """

    def __init__(self, matrix: np.ndarray, spectrum: Spectrum, eig_cutoff: float,
                 tolerances: Tolerances):
        self._matrix = matrix
        self._spectrum = spectrum
        self._eig_cutoff = float(eig_cutoff)
        self._tolerances = tolerances

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

    @property
    def eig_cutoff(self) -> float:
        return self._eig_cutoff

    @property
    def tolerances(self) -> Tolerances:
        return self._tolerances

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


def validate_density(raw, tolerances: Tolerances = DEFAULT_TOLERANCES) -> DensityMatrix:
    """Check and normalize a raw matrix into a :class:`DensityMatrix`.

    The input is symmetrized, its spectrum is computed, and eigenvalues in
    ``(-cutoff, cutoff]`` are clamped to zero with the trace renormalized;
    the cutoff is relative to the largest eigenvalue. Larger negativity,
    asymmetry, or trace deviation raise instead of being repaired.
    """
    a = np.asarray(raw, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(a).max()))
    asymmetry = float(np.abs(a - a.conj().T).max())
    if asymmetry > tolerances.hermitian * scale:
        raise NotHermitian(f"asymmetry {asymmetry:.3e} exceeds tolerance")
    herm = 0.5 * (a + a.conj().T)
    trace = float(herm.trace().real)
    if abs(trace - 1.0) > tolerances.trace:
        raise BadTrace(f"trace {trace!r} deviates from 1 beyond tolerance")
    w, v = np.linalg.eigh(herm)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    cutoff = tolerances.eigenvalue_rel * max(float(w[0]), np.finfo(float).tiny)
    if float(w[-1]) < -cutoff:
        raise NotPSD(f"eigenvalue {float(w[-1]):.3e} below -{cutoff:.3e}")
    clamped = np.where(w <= cutoff, 0.0, w)
    if bool(np.any(clamped != w)) or abs(float(clamped.sum()) - 1.0) > 1e-13:
        clamped = clamped / float(clamped.sum())
        herm = (v * clamped) @ v.conj().T
        herm = 0.5 * (herm + herm.conj().T)
    else:
        herm = herm.copy()

    rank = int(np.count_nonzero(clamped > 0.0))
    for arr in (herm, clamped, v):
        arr.setflags(write=False)
    return DensityMatrix(herm, Spectrum(clamped, v, rank), cutoff, tolerances)


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
        if leakage > sigma.tolerances.support:
            return math.inf
    cross = trace_product(rho.matrix, log_on_support(sigma)).real
    # mathematically >= 0 for unit-trace PSD inputs; clamp rounding dust
    return max(0.0, -rho.entropy_nats - cross)


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Relative entropy in bits, or +inf on a support violation."""
    value = relative_entropy_nats(rho, sigma)
    return value if math.isinf(value) else value / LN2
