"""Shared builders and scalar oracles for the test suite."""

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
