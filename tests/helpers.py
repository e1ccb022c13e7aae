"""Shared builders and scalar oracles for the test suite."""

import math

import numpy as np

from cqcap import CqChannel, validate_density

# frozen scalar-oracle values (binary entropy evaluated directly below)
BIASED_QUBIT_ENTROPY = 0.4689955935892812          # H_b(0.1)
NONORTH_PAIR_CAPACITY = 0.6008760366928562         # H_b((1 - 1/sqrt(2)) / 2)
BSC_CAPACITY = 0.5310044064107188                  # 1 - H_b(0.1)
BUDGET_CAPACITY = 0.8812908992306927               # H_b(0.3)


def binary_entropy_bits(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return float(-q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q))


def ket_zero_projector() -> np.ndarray:
    return np.diag([1.0, 0.0]).astype(complex)


def ket_plus_projector() -> np.ndarray:
    return np.full((2, 2), 0.5, dtype=complex)


def nonorthogonal_pair_channel() -> CqChannel:
    return CqChannel([ket_zero_projector(), ket_plus_projector()])


def orthogonal_channel(n: int, costs=None) -> CqChannel:
    states = [np.diag(row).astype(complex) for row in np.eye(n)]
    return CqChannel(states, costs)


def random_density_matrix(rng, m: int):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    w = a @ a.conj().T
    return validate_density(w / float(np.trace(w).real))


def kernel_projector(rho) -> np.ndarray:
    """Orthogonal projector onto a validated state's kernel (zero for full rank)."""
    v = rho.eigenvectors[:, rho.rank:]
    return v @ v.conj().T


def random_simplex_point(rng, n: int, floor: float = 0.0) -> np.ndarray:
    p = rng.random(n) + floor
    return p / p.sum()


def random_unitary(rng, m: int) -> np.ndarray:
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# The benchmark's generators, copied line for line so that a test can rebuild
# one of its cases from the seed alone.

def coherent_ket(alpha: complex, dim: int = 32) -> np.ndarray:
    """Coherent state |alpha> truncated to ``dim`` Fock levels and renormalised."""
    k = np.arange(dim)
    log_mag = k * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(j + 1.0) for j in k])
    ket = np.exp(log_mag - log_mag.max()) * np.exp(1j * k * np.angle(alpha))
    return ket / np.linalg.norm(ket)


def fock_coherent_channel(seed: int, case: int) -> CqChannel:
    """Case ``case`` of the fock-coherent workload at ``seed``; n cycles through 4, 8, 12, 16."""
    rng = np.random.default_rng(seed)
    for i in range(case + 1):
        n = 4 * (1 + i % 4)
        alphas = rng.uniform(0.5, 3.0, n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
    kets = np.array([coherent_ket(a) for a in alphas])
    return CqChannel([np.outer(v, v.conj()) for v in kets], np.abs(alphas) ** 2)


def diag_sweep_transition(seed: int, case: int) -> np.ndarray:
    """The row-stochastic matrix of case ``case`` of the diag-sweep workload at ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(case + 1):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        rows = np.random.default_rng(int(rng.integers(1 << 31))).random((n, m))
    return rows / rows.sum(axis=1, keepdims=True)
