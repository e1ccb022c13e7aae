"""Exact-matrix reference math: the quantities the solver computes, done the plain way.

These functions work on validated states and on a channel's full m x m
``state_stack``: the explicit mixture, each state's own eigenvectors and the
divergence read off the first state's diagonal in the second's eigenbasis.
They share no code with the solver's step kernel (``cqcap.channel``'s
support basis, packed GEMVs and classical branch), so they can check it.
Nothing in the package imports this module; import it as ``cqcap.reference``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import CqChannel, as_probability_vector
from .errors import DimensionMismatch
from .hermitian import LN2, DensityMatrix, validate_density

SUPPORT_TOL = 1e-10     # mass tolerated outside another state's support


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
    r = rho.rank
    v = rho.eigenvectors[:, :r]
    out = (v * np.log(rho.eigenvalues[:r])) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def relative_entropy_nats(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr[rho (log rho - log sigma)] in nats; +inf if rho leaks outside supp(sigma)."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimensions {rho.dim} and {sigma.dim} differ")
    # rho's diagonal in sigma's eigenbasis, diag(V^H rho V): real for Hermitian rho
    v = sigma.eigenvectors
    weights = ((rho.matrix @ v) * v.conj()).sum(axis=0).real
    r = sigma.rank
    if float(weights[r:].sum()) > SUPPORT_TOL:
        return math.inf
    cross = float(weights[:r] @ np.log(sigma.eigenvalues[:r]))
    # mathematically >= 0 for unit-trace PSD inputs; clamp rounding dust
    return max(0.0, -rho.entropy_nats - cross)


def quantum_relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Relative entropy in bits, or +inf on a support violation."""
    value = relative_entropy_nats(rho, sigma)
    return value if math.isinf(value) else value / LN2


def output_state(ch: CqChannel, p) -> DensityMatrix:
    """Mixture sum_x p_x rho_x of the full ``state_stack``, as a validated state."""
    w = as_probability_vector(p, ch.size)
    return validate_density(np.einsum("x,xij->ij", w, ch.state_stack))
