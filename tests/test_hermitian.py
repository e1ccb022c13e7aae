import math

import numpy as np
import pytest

from cqcap import (
    log_on_support,
    quantum_relative_entropy,
    relative_entropy_nats,
    trace_product,
    validate_density,
    von_neumann_entropy,
)
from cqcap.errors import BadTrace, DimensionMismatch, NotHermitian, NotPSD
from helpers import (
    BIASED_QUBIT_ENTROPY,
    binary_entropy_bits,
    random_density_matrix,
    random_unitary,
)


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2)
        assert np.allclose(rho.spectrum.eigenvalues, [0.5, 0.5])
        assert rho.rank == 2

    def test_pure_state_rank_one(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        assert rho.rank == 1
        assert np.allclose(rho.spectrum.eigenvalues, [1.0, 0.0])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPSD):
            validate_density(np.diag([1.5, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_bad_trace_rejected(self):
        with pytest.raises(BadTrace):
            validate_density(np.diag([0.6, 0.5]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_density(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            validate_density(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_stack_of_matrices_rejected(self):
        with pytest.raises(ValueError, match="square matrix"):
            validate_density(np.stack([np.eye(2) / 2, np.eye(2) / 2]))

    def test_tiny_negativity_clamped_and_renormalized(self):
        rho = validate_density(np.diag([1.0 + 1e-15, -1e-15]))
        assert rho.rank == 1
        assert abs(float(rho.spectrum.eigenvalues.sum()) - 1.0) < 1e-15

    def test_spectrum_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density_matrix(rng, 4)
            spec = rho.spectrum
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.abs(rebuilt - rho.matrix).max() < 1e-9

    def test_matrices_are_read_only(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 3.0

    def test_equal_spectra_compare_and_hash_by_identity(self):
        a = validate_density(np.eye(2) / 2).spectrum
        b = validate_density(np.eye(2) / 2).spectrum
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestEntropy:
    def test_maximally_mixed_is_one_bit(self):
        assert von_neumann_entropy(validate_density(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(validate_density(np.diag([1.0, 0.0]))) == 0.0

    def test_biased_qubit_matches_binary_entropy(self):
        h = von_neumann_entropy(validate_density(np.diag([0.9, 0.1])))
        assert h == pytest.approx(BIASED_QUBIT_ENTROPY, abs=1e-12)
        assert h == pytest.approx(binary_entropy_bits(0.1), abs=1e-12)
        assert h == pytest.approx(0.468996, abs=1e-6)

    def test_entropy_bounds_on_random_states(self):
        rng = np.random.default_rng(7)
        for i in range(1000):
            m = 2 + i % 5
            h = von_neumann_entropy(random_density_matrix(rng, m))
            assert 0.0 <= h <= math.log2(m) + 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density_matrix(rng, 3)
            u = random_unitary(rng, 3)
            rotated = validate_density(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )


class TestRelativeEntropy:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_density_matrix(rng, 3)
            assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed_is_one_bit(self):
        pure = validate_density(np.diag([1.0, 0.0]))
        mixed = validate_density(np.eye(2) / 2)
        assert quantum_relative_entropy(pure, mixed) == pytest.approx(1.0)

    def test_support_violation_is_infinite(self):
        mixed = validate_density(np.eye(2) / 2)
        pure = validate_density(np.diag([1.0, 0.0]))
        assert quantum_relative_entropy(mixed, pure) == math.inf

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            quantum_relative_entropy(
                validate_density(np.eye(2) / 2), validate_density(np.eye(3) / 3)
            )

    def test_nonnegative_and_zero_only_for_equal_states(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = random_density_matrix(rng, 3)
            sigma = random_density_matrix(rng, 3)
            d = quantum_relative_entropy(rho, sigma)
            assert d >= 0.0
            if np.abs(rho.matrix - sigma.matrix).max() > 1e-9:
                assert d > 0.0

    def test_pinsker_style_lower_bound_in_nats(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            rho = random_density_matrix(rng, 3)
            sigma = random_density_matrix(rng, 3)
            diff = rho.matrix - sigma.matrix
            quadratic = 0.5 * trace_product(diff, diff).real
            assert relative_entropy_nats(rho, sigma) >= quadratic - 1e-12


class TestTraceProduct:
    def test_identity_identity(self):
        assert trace_product(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_state_times_identity_is_one(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(rng, 4)
        assert trace_product(rho.matrix, np.eye(4)).real == pytest.approx(1.0)

    def test_diagonal_example(self):
        out = trace_product(np.diag([0.9, 0.1]), np.diag([0.1, 0.9]))
        assert out == pytest.approx(0.18)

    def test_matches_full_product(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert trace_product(a, b) == pytest.approx(complex(np.trace(a @ b)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            trace_product(np.eye(2), np.eye(3))


class TestLogOnSupport:
    def test_log_of_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2)
        assert np.allclose(log_on_support(rho), -math.log(2) * np.eye(2))

    def test_kernel_is_zeroed(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        assert np.allclose(log_on_support(rho), np.zeros((2, 2)))

    def test_exp_round_trip_on_full_rank_states(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = random_density_matrix(rng, 4)
            logm = log_on_support(rho)
            w, v = np.linalg.eigh(logm)
            rebuilt = (v * np.exp(w)) @ v.conj().T
            assert np.abs(rebuilt - rho.matrix).max() < 1e-9
