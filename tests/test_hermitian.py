import math

import numpy as np
import pytest

from cqcap import validate_density
from cqcap.hermitian import EIGENVALUE_REL
from cqcap.reference import (
    log_on_support,
    quantum_relative_entropy,
    relative_entropy_nats,
    trace_product,
    von_neumann_entropy,
)
from cqcap.errors import BadTrace, DimensionMismatch, NotHermitian, NotPSD
from helpers import (
    BIASED_QUBIT_ENTROPY,
    binary_entropy_bits,
    coherent_ket,
    count_eigvalsh_calls,
    random_density_matrix,
    random_unitary,
)


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2)
        assert np.allclose(rho.eigenvalues, [0.5, 0.5])
        assert rho.rank == 2

    def test_pure_state_rank_one(self):
        rho = validate_density(np.diag([1.0, 0.0]))
        assert rho.rank == 1
        assert np.allclose(rho.eigenvalues, [1.0, 0.0])

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
        assert abs(float(rho.eigenvalues.sum()) - 1.0) < 1e-15

    def test_spectrum_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density_matrix(rng, 4)
            rebuilt = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
            assert np.abs(rebuilt - rho.matrix).max() < 1e-9

    def test_matrices_are_read_only(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 3.0

    def test_equal_spectra_compare_and_hash_by_identity(self):
        a = validate_density(np.eye(2) / 2)
        b = validate_density(np.eye(2) / 2)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a == a and a != b
        assert len({a, b, a}) == 2


def _eigenvalue_rule(raw):
    """The eigenvalue rule on one state, spelled out: matrix, spectrum and whether it repaired."""
    herm = 0.5 * (raw + raw.conj().T)
    trace = np.trace(herm).real
    w = np.linalg.eigvalsh(herm)[::-1]
    cutoff = EIGENVALUE_REL * max(w[0], np.finfo(float).tiny)
    assert w[-1] >= -cutoff
    clamped = np.where(w <= cutoff, 0.0, w)
    repair = bool((clamped != w).any()) or abs(clamped.sum() - 1.0) > 1e-13
    if repair:
        clamped /= clamped.sum()
        herm /= trace
    return herm, clamped, repair


def _pure_kets(rng):
    """Random complex, real and sparse kets, m = 2..40, then truncated coherent states."""
    for m in range(2, 41):
        ket = rng.normal(size=m) + 1j * rng.normal(size=m)
        yield ket
        yield ket.real.astype(complex)
        yield np.where(rng.random(m) < 0.5, 0.0, ket) if m > 2 else ket
    for _ in range(120):
        yield coherent_ket(rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi)))


class TestRankOnePath:
    """A state within a tenth of the cutoff of rank one skips the eigenvalues."""

    def test_pure_states_match_the_eigenvalue_rule(self, monkeypatch):
        rng = np.random.default_rng(83)
        calls = count_eigvalsh_calls(monkeypatch)
        repaired = 0
        for ket in _pure_kets(rng):
            if not ket.any():
                continue
            ket = ket / np.linalg.norm(ket)
            raw = np.outer(ket, ket.conj())
            before = len(calls)
            rho = validate_density(raw)
            assert len(calls) == before
            matrix, spectrum, repair = _eigenvalue_rule(raw)
            assert rho.eigenvalues[0] == 1.0 and not rho.eigenvalues[1:].any()
            assert rho.entropy_nats == 0.0 and rho.rank == 1
            if repair:
                repaired += 1
                assert np.array_equal(rho.matrix, matrix)
                assert np.array_equal(rho.eigenvalues, spectrum)
            else:
                # eigvalsh returned exact zeros and a top eigenvalue a few ulps from 1
                assert np.abs(rho.matrix - matrix).max() <= 1e-15
                assert np.abs(rho.eigenvalues - spectrum).max() <= 1e-15
        assert repaired > 200

    @pytest.mark.parametrize("residual, rank_one", [(5e-14, True), (1e-11, False)])
    def test_residual_bound(self, monkeypatch, residual, rank_one):
        # diag(1 - r, r) in a shuffled basis: the residual of rho - v v^H is r
        rng = np.random.default_rng(89)
        m = 6
        basis = np.eye(m)[rng.permutation(m)] * np.exp(1j * rng.uniform(0, 2 * math.pi, m))
        raw = basis @ np.diag([1.0 - residual, residual, 0, 0, 0, 0]) @ basis.conj().T
        calls = count_eigvalsh_calls(monkeypatch)
        rho = validate_density(raw)
        assert len(calls) == (0 if rank_one else 1)
        assert rho.rank == (1 if rank_one else 2)
        if rank_one:
            assert np.array_equal(rho.eigenvalues, np.eye(m)[0])

    def test_negativity_beside_a_pure_state_is_still_rejected(self):
        # Tr rho^2 passes the purity screen at m = 32; the residual does not
        rng = np.random.default_rng(97)
        u = random_unitary(rng, 32)
        v, w = u[:, 0], u[:, 1]
        raw = np.outer(v, v.conj()) - 2e-12 * np.outer(w, w.conj())
        with pytest.raises(NotPSD, match="below"):
            validate_density(raw)

    @pytest.mark.parametrize("entry", [1e200, 1e160j])
    def test_entries_whose_squares_overflow_fail_the_screen_quietly(self, entry):
        # warnings are errors here: the purity overflows to inf without one
        raw = np.array([[0.5, entry], [np.conj(entry), 0.5]])
        with pytest.raises(NotPSD, match="below"):
            validate_density(raw)

    @pytest.mark.parametrize("size, calls", [(1e-15, 0), (1e-12, 1)])
    def test_an_anti_hermitian_part_is_tried_on_the_raw_input(self, monkeypatch, size, calls):
        # the residual is taken before symmetrizing, so it sees the
        # anti-Hermitian part: 1e-15 stays inside the bound, 1e-12 does not
        raw = _pure_plus_anti_hermitian(size)
        shapes = count_eigvalsh_calls(monkeypatch)
        rho = validate_density(raw)
        monkeypatch.undo()
        assert len(shapes) == calls
        assert rho.rank == 1 and rho.eigenvalues[0] == 1.0
        symmetrized = 0.5 * (raw + raw.conj().T)
        assert np.abs(rho.matrix - symmetrized / np.trace(symmetrized).real).max() <= 1e-16

    def test_the_rank_one_path_admits_no_asymmetry_past_tolerance(self):
        # rank one but for an anti-Hermitian part of 1e-6, an asymmetry of
        # 2e-6, far past HERMITIAN_TOL: the residual fails it, and the
        # asymmetry check raises
        with pytest.raises(NotHermitian, match="asymmetry 2.000e-06"):
            validate_density(_pure_plus_anti_hermitian(1e-6))

    def test_the_input_array_is_left_unchanged(self):
        # validate_density works on a view of a complex128 input; a repaired
        # pure state and a clamped mixed one both write only their own copy
        rng = np.random.default_rng(101)
        inputs = [_pure_plus_anti_hermitian(1e-15), _pure_plus_anti_hermitian(1e-12),
                  np.diag([1.0 + 1e-15, -1e-15]).astype(complex),
                  random_density_matrix(rng, 5).matrix.copy()]
        for raw in inputs:
            kept = raw.copy()
            validate_density(raw)
            assert raw.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("entry", [1e308, 1.5e308 + 1.5e308j])
    def test_an_asymmetry_that_overflows_is_not_hermitian(self, entry):
        # the entries are finite, but their difference with the adjoint is
        # not; warnings are errors here, so none escapes
        raw = np.array([[0.5, entry], [-entry, 0.5]])
        with pytest.raises(NotHermitian, match="asymmetry inf"):
            validate_density(raw)

    @pytest.mark.parametrize("entry", [1.2e308, 1e308 + 1e308j])
    def test_hermitian_entries_too_large_to_symmetrize_are_not_psd(self, entry):
        # a + a^H overflows, its eigenvalues come back nan, and nan fails
        # the PSD check rather than passing it
        raw = np.array([[0.5, entry], [np.conj(entry), 0.5]])
        with pytest.raises(NotPSD, match="eigenvalue nan"):
            validate_density(raw)


def _pure_plus_anti_hermitian(size: float, m: int = 8) -> np.ndarray:
    """A random pure state plus an anti-Hermitian part whose largest entry is ``size``."""
    rng = np.random.default_rng(103)
    ket = rng.normal(size=m) + 1j * rng.normal(size=m)
    ket /= np.linalg.norm(ket)
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    anti = b - b.conj().T
    return np.outer(ket, ket.conj()) + size / np.abs(anti).max() * anti


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

    def test_rank_deficient_sigma_matches_the_compressed_blocks(self):
        # rho inside supp(sigma): the divergence is that of the r x r blocks
        # in an orthonormal basis of the support, taken here from their spectra
        rng = np.random.default_rng(37)
        for m, r in ((2, 1), (3, 2), (5, 2), (6, 4)):
            for _ in range(10):
                basis = random_unitary(rng, m)[:, :r]
                a = random_density_matrix(rng, r).matrix
                b = random_density_matrix(rng, r).matrix
                rho = validate_density(basis @ a @ basis.conj().T)
                sigma = validate_density(basis @ b @ basis.conj().T)
                assert sigma.rank == r
                wa = np.linalg.eigvalsh(a)
                wb, vb = np.linalg.eigh(b)
                log_b = (vb * np.log(wb)) @ vb.conj().T
                expected = float(wa @ np.log(wa)) - trace_product(a, log_b).real
                assert relative_entropy_nats(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_support_tolerance_boundary(self):
        # SUPPORT_TOL = 1e-10 of rho's weight may lie on sigma's kernel
        rng = np.random.default_rng(41)
        u = random_unitary(rng, 3)
        sigma = validate_density(u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T)
        for leak, finite in ((1e-11, True), (1e-9, False)):
            rho = validate_density(u @ np.diag([0.5 - leak, 0.5, leak]) @ u.conj().T)
            assert rho.rank == 3
            assert math.isfinite(relative_entropy_nats(rho, sigma)) is finite

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
