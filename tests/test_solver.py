import itertools
import math
import re

import numpy as np
import pytest

import cqcap.solver
from cqcap import (
    CqChannel,
    SolverConfig,
    TerminationReason,
    ba_step,
    classical_ba,
    diagonal_transition_matrix,
    holevo_quantity,
    kl_divergence_bits,
    make_iteration_state,
    random_channel,
    rate_diagnostics,
    solve_fixed_lambda,
    surrogate_objective,
    unconstrained_capacity,
    upper_bound,
)
from cqcap.errors import BadParams, EmptyTrace, InfeasibleCost, SupportViolation
from cqcap.hermitian import EIGENVALUE_REL, LN2
from cqcap.channel import _curvature, _spectral_terms
from cqcap.solver import NEWTON_START, TILT_TOL_REL, _tilt, _update
from cqcap.solver import NEWTON_BOUNDARY, NEWTON_WINDOW, _log_partition, _newton_proposal
from cqcap.solver import NEWTON_ACTIVE_MASS, NEWTON_SPARE
from cqcap.oracle import DEFAULT_GRID_RESOLUTION, GridSpec, grid_capacity
from cqcap.reference import output_state, relative_entropy_nats, trace_product
from helpers import (
    BSC_CAPACITY,
    NONORTH_PAIR_CAPACITY,
    diag_sweep_transition,
    fock_coherent_channel,
    kernel_projector,
    nonorthogonal_pair_channel,
    orthogonal_channel,
    random_simplex_point,
    random_unitary,
)


class TestSurrogateObjective:
    def test_diagonal_equals_penalized_holevo(self):
        rng = np.random.default_rng(3)
        ch = random_channel(3, 2, 8, "mixed")
        for _ in range(20):
            p = random_simplex_point(rng, 3)
            assert surrogate_objective(ch, 0.0, p, p) == pytest.approx(
                holevo_quantity(ch, p), abs=1e-9
            )

    def test_point_mass_diagonal_is_zero(self):
        ch = nonorthogonal_pair_channel()
        assert surrogate_objective(ch, 0.0, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_off_diagonal_never_beats_diagonal(self):
        rng = np.random.default_rng(5)
        ch = random_channel(3, 2, 12, "mixed")
        for _ in range(100):
            p = random_simplex_point(rng, 3)
            q = random_simplex_point(rng, 3)
            assert surrogate_objective(ch, 0.4, p, q) <= surrogate_objective(
                ch, 0.4, p, p
            ) + 1e-10

    def test_support_violation_rejected(self):
        ch = orthogonal_channel(2)
        with pytest.raises(SupportViolation):
            surrogate_objective(ch, 0.0, [0.5, 0.5], [1.0, 0.0])

    def test_maximum_over_p_is_the_step_value(self):
        # Arimoto's lemma: for fixed p', f(., p') peaks at the plain update
        # T(p') with value log Z(p')
        costs = [0.0, 1.0, 0.4, 2.0]
        channels = [CqChannel(random_channel(4, 3, 71, kind).states, costs)
                    for kind in ("pure", "mixed", "diagonal")]
        channels.append(CqChannel(padded(random_channel(4, 3, 72, "pure")).states, costs))
        rng = np.random.default_rng(73)
        for ch in channels:
            for lam in (0.0, 0.7):
                for p_prime in (np.full(4, 0.25), random_simplex_point(rng, 4),
                                [0.0, 0.5, 0.2, 0.3]):
                    updated, value = ba_step(ch, lam, make_iteration_state(ch, p_prime))
                    assert surrogate_objective(ch, lam, updated.probs, p_prime) == \
                        pytest.approx(value, abs=1e-12)


class TestBaStep:
    def test_single_letter_fixed_point(self):
        ch = CqChannel([np.eye(2) / 2], costs=[0.4])
        state = make_iteration_state(ch, [1.0])
        new_state, value = ba_step(ch, 0.7, state)
        assert np.allclose(new_state.probs, [1.0])
        assert value == pytest.approx(-0.7 * 0.4, abs=1e-12)

    def test_orthogonal_uniform_start(self):
        ch = orthogonal_channel(2)
        state = make_iteration_state(ch, [0.5, 0.5])
        new_state, value = ba_step(ch, 0.0, state)
        assert np.allclose(new_state.probs, [0.5, 0.5])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_optimizer_is_a_fixed_point(self):
        ch = random_channel(3, 2, 19, "mixed")
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-12, max_iter=100000))
        state = make_iteration_state(ch, res.probs)
        stepped, _ = ba_step(ch, 0.0, state)
        assert np.abs(stepped.probs - state.probs).max() < 1e-8

    def test_support_leak_steps_finitely(self):
        ch = orthogonal_channel(2)
        state = make_iteration_state(ch, [1e-30, 1.0 - 1e-30])
        stepped, value = ba_step(ch, 0.0, state)
        assert np.all(np.isfinite(stepped.probs))
        assert stepped.probs[0] > state.probs[0]
        assert value <= 1.0

    def test_zero_mass_letters_stay_frozen(self):
        ch = orthogonal_channel(2)
        state = make_iteration_state(ch, [1.0, 0.0])
        stepped, value = ba_step(ch, 0.0, state)
        assert np.array_equal(stepped.probs, [1.0, 0.0])
        assert value == pytest.approx(0.0, abs=1e-12)


class TestUpperBound:
    def test_tight_at_orthogonal_uniform(self):
        ch = orthogonal_channel(2)
        state = make_iteration_state(ch, [0.5, 0.5])
        assert upper_bound(ch, 0.0, state) == pytest.approx(1.0, abs=1e-12)

    def test_finite_at_point_mass_of_orthogonal_channel(self):
        ch = orthogonal_channel(2)
        state = make_iteration_state(ch, [1.0, 0.0])
        bound = upper_bound(ch, 0.0, state)
        cutoff = 1e-12
        assert math.isfinite(bound)
        assert bound >= 1.0
        assert bound == pytest.approx((-math.log(cutoff) + math.log1p(cutoff)) / math.log(2),
                                      abs=1e-12)

    def test_dominates_step_value_everywhere(self):
        rng = np.random.default_rng(23)
        for i in range(100):
            n = 2 + i % 3
            kind = ("pure", "mixed", "diagonal")[i % 3]
            ch = random_channel(n, 2, 1000 + i, kind)
            state = make_iteration_state(ch, random_simplex_point(rng, n, floor=0.05))
            for _ in range(50):
                bound = upper_bound(ch, 0.0, state)
                state, value = ba_step(ch, 0.0, state)
                assert bound >= value - 1e-10


class TestSolveFixedLambda:
    def test_orthogonal_pair_converges_in_one_step(self):
        res, _ = solve_fixed_lambda(orthogonal_channel(2), SolverConfig())
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.iterations == 1
        assert res.capacity_bits == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.probs.probs, [0.5, 0.5])

    def test_nonorthogonal_pair_value(self):
        res, _ = solve_fixed_lambda(nonorthogonal_pair_channel(), SolverConfig())
        assert res.capacity_bits == pytest.approx(NONORTH_PAIR_CAPACITY, abs=1e-6)

    def test_binary_symmetric_channel_embedding(self):
        ch = CqChannel([np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
        res, _ = solve_fixed_lambda(ch, SolverConfig())
        assert res.capacity_bits == pytest.approx(BSC_CAPACITY, abs=1e-6)

    def test_zero_mass_start_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_lambda(orthogonal_channel(2), SolverConfig(), initial=[1.0, 0.0])

    def test_max_iter_reported(self):
        ch = random_channel(3, 2, 31, "mixed")
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-12, max_iter=2))
        assert res.termination is TerminationReason.MAX_ITER
        assert res.iterations == 2

    def test_stall_reported_below_float_resolution(self):
        ch = random_channel(3, 2, 11, "mixed")
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-16, max_iter=100000))
        assert res.termination is TerminationReason.STALLED

    def test_gap_reached_implies_certified(self):
        # below float resolution the loop's bounds can cross by rounding
        # while the reported interval stays wider than epsilon: such a run
        # reports a stall, not a closed gap
        crossed = 0
        for seed, eps, budget in itertools.product(range(12), (1e-15, 1e-16), (math.inf, 0.8)):
            ch = CqChannel(random_channel(2 + seed % 3, 2, seed, "mixed").states,
                           [0.3, 1.0, 0.4, 2.0][:2 + seed % 3])
            res, trace = solve_fixed_lambda(
                ch, SolverConfig(epsilon=eps, max_iter=2000, cost_limit=budget))
            if res.termination is TerminationReason.GAP_REACHED:
                assert res.certified
            loop_gap = min(trace.upper_bits) - max(trace.objective_bits)
            crossed += loop_gap <= eps and not res.certified
        assert crossed > 0

    def test_still_falling_upper_bound_is_no_stall(self):
        # the 54th channel drawn as the diag-sweep benchmark draws them at seed
        # 2024: its step value settles while its upper bound still falls, and
        # the best bounds seen close the gap
        rng = np.random.default_rng(2024)
        for _ in range(54):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            rows = np.random.default_rng(int(rng.integers(1 << 31))).random((n, m))
        rows /= rows.sum(axis=1, keepdims=True)
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        assert (n, m) == (3, 7)
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.gap_certificate_bits[1] - max(trace.objective_bits) <= 1e-8
        assert res.gap_certificate_bits[1] == min(trace.upper_bits)

    def test_monotone_ascent_and_certificates(self):
        for i in range(20):
            ch = random_channel(2 + i % 3, 2, 400 + i, "mixed")
            res, trace = solve_fixed_lambda(ch, SolverConfig())
            values = trace.objective_bits
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
            assert all(
                lo <= hi + 1e-10 for lo, hi in zip(trace.objective_bits, trace.upper_bits)
            )
            assert res.gap_certificate_bits[1] - max(trace.objective_bits) <= 1e-6
            assert (max(trace.objective_bits) - 1e-12 <= res.capacity_bits
                    <= res.gap_certificate_bits[1] + 1e-12)

    def test_sandwich_against_grid_oracle(self):
        for lam in (0.0, 0.5):
            for i in range(5):
                ch = random_channel(3, 2, 600 + i, "mixed")
                ch = CqChannel(ch.states, [0.0, 0.7, 1.3])
                oracle = grid_capacity(ch, GridSpec(200, penalty_multiplier=lam))
                _, trace = solve_fixed_lambda(ch, SolverConfig(multiplier=lam))
                for value, bound in zip(trace.objective_bits, trace.upper_bits):
                    assert value <= oracle.value_bits + oracle.slack_bits
                    assert oracle.value_bits <= bound + 1e-10

    def test_iterates_stay_strictly_positive(self):
        ch = random_channel(4, 2, 77, "mixed")
        _, trace = solve_fixed_lambda(ch, SolverConfig())
        for iterate in trace.iterates:
            assert float(iterate.min()) > 0.0
        # a large multiplier drives the costly letters' weights far below the
        # rest; the floored update keeps them, and the returned distribution
        # can start another solve
        ch = CqChannel(random_channel(4, 2, 0, "mixed").states, [0, 1, 2, 3])
        for lam in (200.0, 1000.0):
            config = SolverConfig(multiplier=lam)
            res, trace = solve_fixed_lambda(ch, config)
            for iterate in trace.iterates:
                assert float(iterate.min()) > 0.0
            assert float(res.probs.probs.min()) > 0.0
            restarted, _ = solve_fixed_lambda(ch, config, initial=res.probs)
            assert restarted.termination is TerminationReason.GAP_REACHED

    def test_telescoping_bound(self):
        for i in range(10):
            n = 2 + i % 3
            ch = random_channel(n, 2, 900 + i, "mixed")
            res, trace = solve_fixed_lambda(ch, SolverConfig())
            total = sum(res.capacity_bits - f for f in trace.objective_bits)
            start = np.full(n, 1.0 / n)
            budget = kl_divergence_bits(res.probs.probs, start)
            assert total <= budget + 1e-9 * len(trace)
            assert budget <= math.log2(n) + 1e-12

    def test_any_distribution_bound_mid_run(self):
        # the gap of any distribution to the step value is controlled by the update ratio
        rng = np.random.default_rng(41)
        ch = random_channel(3, 2, 55, "mixed")
        lam = 0.25
        ch = CqChannel(ch.states, [0.2, 1.0, 0.4])
        _, trace = solve_fixed_lambda(ch, SolverConfig(multiplier=lam))
        for i in range(min(10, len(trace) - 1)):
            current = trace.iterates[i]
            after = ba_step(ch, lam, make_iteration_state(ch, current))[0].probs
            value = trace.objective_bits[i]
            for _ in range(5):
                q = random_simplex_point(rng, 3)
                lhs = holevo_quantity(ch, q) - lam * float(ch.costs @ q) - value
                rhs = float(np.sum(q * np.log2(after / current)))
                assert lhs <= rhs + 1e-9

    def test_final_step_movement_is_small(self):
        for i in range(10):
            ch = random_channel(2 + i % 3, 2, 1300 + i, "mixed")
            res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=2e-7))
            assert res.termination is TerminationReason.GAP_REACHED
            assert np.abs(res.probs.probs - trace.iterates[-1]).sum() < 1e-6

    def test_boundary_optimum_certifies_in_few_steps(self):
        # its optimum has a letter of mass ~3e-5; the plain update alone
        # needs 72,427 steps to close the gap
        ch = random_channel(8, 2, 356456227, "diagonal")
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.iterations <= 20_000

    def test_rejected_steps_count_the_extra_eigh_calls(self, monkeypatch):
        # budgeted, so that the count covers tilted Newton proposals; this
        # channel still rejects one of them
        ch = CqChannel(random_channel(4, 3, 17, "mixed").states, [0.3, 1.0, 0.4, 2.0])
        shapes, values_only, einsums = [], [], []
        eigh, eigvalsh, einsum = np.linalg.eigh, np.linalg.eigvalsh, np.einsum

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            values_only.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def counting_einsum(*args, **kwargs):
            einsums.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(np, "einsum", counting_einsum)
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8, cost_limit=0.5))
        monkeypatch.undo()
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.constraint_active and res.newton_steps > 0
        assert res.rejected_steps > 0
        assert len(trace) == res.iterations
        assert len(shapes) == res.iterations + res.rejected_steps
        # the final value is holevo_quantity's one values-only spectrum
        assert len(values_only) == 1
        # the mixture and the cross terms are GEMVs on the packed stack
        assert einsums == []

    def test_costs_zero_make_multiplier_irrelevant(self):
        ch = random_channel(3, 2, 61, "mixed")
        base, _ = solve_fixed_lambda(ch, SolverConfig(multiplier=0.0))
        penalized, _ = solve_fixed_lambda(ch, SolverConfig(multiplier=3.7))
        assert base.capacity_bits == pytest.approx(penalized.capacity_bits, abs=2e-6)


class TestOneDivergencePath:
    """The solver's own states agree with the validated public functions."""

    @staticmethod
    def cases():
        rank_deficient = CqChannel([np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.3, 0.7]),
                                    np.diag([1.0, 0.0, 0.0])])
        yield random_channel(3, 3, 5, "pure"), [0.2, 0.3, 0.5]
        yield random_channel(3, 2, 6, "mixed"), [0.6, 0.3, 0.1]
        yield random_channel(4, 3, 7, "diagonal"), [0.1, 0.2, 0.3, 0.4]
        yield rank_deficient, [0.3, 0.3, 0.4]
        yield rank_deficient, [0.5, 0.0, 0.5]
        yield orthogonal_channel(2), [1.0, 0.0]

    def test_divergences_match_public_relative_entropy(self):
        for ch, p in self.cases():
            state = make_iteration_state(ch, p)
            mixture = output_state(ch, p)
            for x in range(ch.size):
                public = relative_entropy_nats(ch.states[x], mixture)
                trusted = state.divergences_nats[x]
                if math.isinf(public):
                    leakage = trace_product(ch.states[x].matrix, kernel_projector(mixture)).real
                    assert math.isfinite(trusted)
                    assert trusted >= -math.log(1e-12) * leakage - ch.letter_entropies_nats[x]
                else:
                    assert trusted == pytest.approx(public, abs=1e-12)

    def test_leaking_letter_divergence_is_log_cutoff(self):
        state = make_iteration_state(orthogonal_channel(2), [1.0, 0.0])
        assert state.divergences_nats[0] == pytest.approx(0.0, abs=1e-12)
        assert state.divergences_nats[1] == pytest.approx(-math.log(1e-12), abs=1e-12)

    def test_solve_loop_matches_the_public_wrappers_bit_for_bit(self):
        # the loop evaluates each state on plain arrays; recomputing every
        # recorded iterate through the wrappers must give the same bits
        costs = [0.0, 1.0, 0.4, 2.0]
        channels = [CqChannel(random_channel(4, 3, 29, kind).states, costs)
                    for kind in ("pure", "mixed", "diagonal")]
        channels.append(CqChannel(padded(random_channel(4, 3, 30, "pure")).states, costs))
        for ch in channels:
            for lam in (0.0, 0.7):
                res, trace = solve_fixed_lambda(ch, SolverConfig(multiplier=lam, epsilon=1e-9))
                for i, iterate in enumerate(trace.iterates):
                    state = make_iteration_state(ch, iterate)
                    assert trace.upper_bits[i] == upper_bound(ch, lam, state)
                    assert trace.objective_bits[i] == ba_step(ch, lam, state)[1]
                # the first step and the returned distribution are plain updates
                first = ba_step(ch, lam, make_iteration_state(ch, trace.iterates[0]))[0]
                assert np.array_equal(trace.iterates[1], first.probs)
                last = ba_step(ch, lam, make_iteration_state(ch, trace.iterates[-1]))[0]
                assert np.array_equal(res.probs.probs, last.probs)

    def test_value_matches_public_holevo(self):
        for lam, costs in ((0.0, [0.0, 0.0, 0.0]), (0.6, [0.0, 1.0, 0.3])):
            for kind in ("pure", "mixed", "diagonal"):
                ch = CqChannel(random_channel(3, 3, 13, kind).states, costs)
                res, _ = solve_fixed_lambda(ch, SolverConfig(multiplier=lam))
                expected = holevo_quantity(ch, res.probs) - lam * res.expected_cost
                assert res.capacity_bits == pytest.approx(expected, abs=1e-12)


def padded(ch: CqChannel) -> CqChannel:
    """The same states embedded in one more dimension, so every one is rank-deficient."""
    m = ch.dim
    states = []
    for rho in ch.states:
        big = np.zeros((m + 1, m + 1), dtype=complex)
        big[:m, :m] = rho.matrix
        states.append(big)
    return CqChannel(states)


def coherent_ket(alpha: complex, dim: int) -> np.ndarray:
    k = np.arange(dim)
    log_mag = k * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(j + 1.0) for j in k])
    ket = np.exp(log_mag - log_mag.max()) * np.exp(1j * k * np.angle(alpha))
    return ket / np.linalg.norm(ket)


def gram_form_bounds_bits(kets: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """chi(p) and max_x D(psi_x || sigma_p) of pure states from their n x n Gram matrix.

    The nonzero spectrum of sigma_p is that of sqrt(P) G sqrt(P) = Q diag(lam) Q^H,
    with eigenvectors u_k = sum_x sqrt(p_x) q_xk psi_x / sqrt(lam_k).
    """
    root = np.sqrt(probs)
    gram = kets.conj() @ kets.T
    lam, q = np.linalg.eigh(root[:, None] * gram * root[None, :])
    keep = lam > lam.max() * 1e-15
    lam, q = lam[keep], q[:, keep]
    overlaps = np.abs(gram @ (root[:, None] * q)) ** 2 / lam
    chi = -float((lam * np.log(lam)).sum())
    divergence = -(overlaps * np.log(lam)).sum(axis=1)
    return chi / math.log(2), float(divergence.max()) / math.log(2)


class TestRaisedSpectrum:
    """Bounds stay finite and certified where the mixture loses rank."""

    @staticmethod
    def boundary_points(n: int):
        yield np.eye(n)[0]
        yield np.r_[1.0 - 1e-40, 1e-40, np.zeros(n - 2)]
        yield np.r_[0.0, np.full(n - 1, 1.0 / (n - 1))]
        yield np.r_[np.full(n - 1, (1.0 - 1e-40) / (n - 1)), 1e-40]

    def test_boundary_distributions_keep_certified_bounds(self):
        for i in range(10):
            n, m = 2 + i % 3, 2 + i % 2
            for ch in (random_channel(n, m, 2000 + i, "pure"),
                       padded(random_channel(n, m, 2100 + i, "pure"))):
                grid = grid_capacity(ch, GridSpec(DEFAULT_GRID_RESOLUTION[n]))
                for p in self.boundary_points(n):
                    state = make_iteration_state(ch, p)
                    bound = upper_bound(ch, 0.0, state)
                    _, value = ba_step(ch, 0.0, state)
                    assert math.isfinite(bound)
                    assert bound >= grid.value_bits
                    assert value <= grid.value_bits + grid.slack_bits

    def test_nearly_dependent_coherent_states_certify(self):
        # 12 coherent states in 32 Fock levels: the mixture's smallest
        # eigenvalues fall under the cutoff while their letters keep mass
        rng = np.random.default_rng(2)
        alphas = rng.uniform(0.5, 3.0, 12) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 12))
        kets = np.array([coherent_ket(a, 32) for a in alphas])
        result = unconstrained_capacity(CqChannel([np.outer(v, v.conj()) for v in kets]),
                                        epsilon=1e-6)
        lower, upper = result.gap_certificate_bits
        chi, bound = gram_form_bounds_bits(kets, result.probs.probs)
        assert upper - lower <= 1e-6
        assert lower <= bound + 1e-9
        assert chi <= upper + 1e-9
        assert chi - 1e-9 <= result.capacity_bits <= bound + 1e-9

    def test_holevo_value_matches_solver_and_gram_form(self):
        rng = np.random.default_rng(2)
        alphas = rng.uniform(0.5, 3.0, 12) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 12))
        kets = np.array([coherent_ket(a, 32) for a in alphas])
        ch = CqChannel([np.outer(v, v.conj()) for v in kets])
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-6))
        chi, _ = gram_form_bounds_bits(kets, res.probs.probs)
        assert holevo_quantity(ch, res.probs) == pytest.approx(res.capacity_bits, abs=1e-12)
        assert holevo_quantity(ch, res.probs) == pytest.approx(chi, abs=1e-10)


def full_space_step(ch: CqChannel, multiplier: float, p: np.ndarray):
    """The uncompressed step: the solver's formula on the full (n, m, m) ``state_stack``.

    The mixture and the cross terms take the solver's real GEMVs on the stack
    packed as (n, 2 m^2) reals. Returns the divergences (nats), the upper
    bound and the step value (bits).
    """
    m = ch.dim
    packed = ch.state_stack.reshape(ch.size, m * m).view(np.float64)
    evals, evecs = np.linalg.eigh((p @ packed).view(np.complex128).reshape(m, m))
    raised = np.maximum(evals, EIGENVALUE_REL * evals.max())
    log_tau = (evecs * np.log(raised)) @ evecs.conj().T
    cross = packed @ log_tau.reshape(-1).view(np.float64)
    div = np.maximum(-ch.letter_entropies_nats - cross, 0.0)
    penalty = multiplier * LN2 * ch.costs
    upper = ((div - penalty).max() + math.log1p((raised - evals).sum())) / LN2
    with np.errstate(divide="ignore"):
        log_weights = np.log(p) + div - penalty
    top = log_weights.max()
    return div, upper, (top + math.log(np.exp(log_weights - top).sum())) / LN2


def full_space_holevo_bits(ch: CqChannel, p: np.ndarray) -> float:
    w = np.linalg.eigvalsh(np.einsum("x,xij->ij", p, ch.state_stack))
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum() - p @ ch.letter_entropies_nats) / LN2


def coherent_channel(alphas: np.ndarray, dim: int = 32) -> CqChannel:
    kets = [coherent_ket(a, dim) for a in alphas]
    return CqChannel([np.outer(v, v.conj()) for v in kets], np.abs(alphas) ** 2)


class TestSupportBasis:
    """The solver's joint-support basis reproduces the uncompressed step."""

    @staticmethod
    def cases():
        """(channel, joint-support dimension d) pairs."""
        rng = np.random.default_rng(41)
        alphas = rng.uniform(0.5, 3.0, 16) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 16))
        costs3 = [0.0, 1.0, 0.4]
        yield CqChannel(random_channel(3, 3, 31, "pure").states, costs3), 3
        yield CqChannel(random_channel(3, 4, 32, "mixed").states, costs3), 4
        yield CqChannel(padded(random_channel(3, 3, 33, "pure")).states, costs3), 3
        yield CqChannel(padded(random_channel(3, 2, 34, "mixed")).states, costs3), 2
        yield coherent_channel(alphas), 16
        # 12 distinct states and 4 repeats: d = 12 < n = 16 < m = 32
        yield coherent_channel(np.r_[alphas[:12], alphas[:4]]), 12

    @staticmethod
    def points(rng, n: int):
        yield np.full(n, 1.0 / n)
        yield rng.dirichlet(np.full(n, 0.5))
        yield np.r_[0.0, np.full(n - 1, 1.0 / (n - 1))]
        yield np.eye(n)[n - 1]

    def test_support_dimension(self):
        for ch, d in self.cases():
            assert ch.support_stack.shape == (ch.size, d, d)
            assert (ch.support_stack is ch.state_stack) == (d == ch.dim)
            # the step's real GEMVs read the stack itself, not a copy
            assert ch._packed_support.shape == (ch.size, 2 * d * d)
            assert np.shares_memory(ch._packed_support, ch.support_stack)

    def test_step_matches_full_space_step(self):
        rng = np.random.default_rng(43)
        for ch, d in self.cases():
            for multiplier in (0.0, 0.7):
                for p in self.points(rng, ch.size):
                    state = make_iteration_state(ch, p)
                    assert state.eigenvalues.shape == (d,)
                    div, upper, value = full_space_step(ch, multiplier, p)
                    assert np.abs(state.divergences_nats - div).max() <= 1e-10
                    assert abs(upper_bound(ch, multiplier, state) - upper) <= 1e-10
                    assert abs(ba_step(ch, multiplier, state)[1] - value) <= 1e-10

    def test_full_support_step_is_bit_identical(self):
        # a classical channel steps on its diagonal rows without an eigh, so it
        # rounds differently from the matrix step and is held to 1e-12 instead
        rng = np.random.default_rng(47)
        for kind in ("pure", "mixed", "diagonal"):
            ch = CqChannel(random_channel(4, 3, 48, kind).states, [0.0, 1.0, 0.4, 2.0])
            assert ch.support_stack is ch.state_stack
            for p in self.points(rng, 4):
                state = make_iteration_state(ch, p)
                div, upper, value = full_space_step(ch, 0.7, p)
                if kind == "diagonal":
                    assert np.abs(state.divergences_nats - div).max() <= 1e-12
                    assert abs(upper_bound(ch, 0.7, state) - upper) <= 1e-12
                    assert abs(ba_step(ch, 0.7, state)[1] - value) <= 1e-12
                else:
                    assert np.array_equal(state.divergences_nats, div)
                    assert upper_bound(ch, 0.7, state) == upper
                    assert ba_step(ch, 0.7, state)[1] == value

    def test_holevo_matches_full_space_mixture(self):
        rng = np.random.default_rng(53)
        for ch, _ in self.cases():
            for p in self.points(rng, ch.size):
                assert abs(holevo_quantity(ch, p) - full_space_holevo_bits(ch, p)) <= 1e-12

    @staticmethod
    def nearly_dependent_alphas():
        # 16 coherent states whose sum has one eigenvalue, ~3e-12, under the
        # cutoff: d = 15 < n, and the discarded direction carries real weight
        rng = np.random.default_rng(144)
        return rng.uniform(0.5, 3.0, 16) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 16))

    def test_upper_bound_charges_the_discarded_mass(self):
        ch = coherent_channel(self.nearly_dependent_alphas())
        w, v = np.linalg.eigh(ch.state_stack.sum(axis=0))
        keep = w > EIGENVALUE_REL * w[-1]
        eta = np.maximum(w[~keep], 0.0).sum()
        outside = np.eye(ch.dim) - v[:, keep] @ v[:, keep].conj().T
        assert ch.support_stack.shape[1] == 15 and eta > 1e-12
        assert np.einsum("xij,ji->x", ch.state_stack, outside).real.max() <= eta + 1e-15
        rng = np.random.default_rng(61)
        for p in (np.full(16, 1.0 / 16), rng.dirichlet(np.ones(16))):
            state = make_iteration_state(ch, p)
            floor = EIGENVALUE_REL * state.eigenvalues.max()
            added = (np.maximum(state.eigenvalues, floor) - state.eigenvalues).sum()
            charged = math.log1p(added + (ch.dim - 15) * floor) - eta * math.log(floor)
            assert state.excess_nats == pytest.approx(charged, rel=0.0, abs=1e-15)

    def test_nearly_dependent_states_keep_both_bounds(self):
        alphas = self.nearly_dependent_alphas()
        ch = coherent_channel(alphas)
        assert ch.support_stack.shape[1] == 15
        for p in self.points(np.random.default_rng(59), 16):
            # a letter's divergence can move where the mixture's smallest kept
            # eigenvalues do, but the step value weighs it by the letter's mass
            _, _, value = full_space_step(ch, 0.0, p)
            assert abs(ba_step(ch, 0.0, make_iteration_state(ch, p))[1] - value) <= 1e-10
        kets = np.array([coherent_ket(a, 32) for a in alphas])
        result = unconstrained_capacity(CqChannel(ch.states), epsilon=1e-6)
        lower, upper = result.gap_certificate_bits
        chi, bound = gram_form_bounds_bits(kets, result.probs.probs)
        assert upper - lower <= 1e-6
        assert lower <= bound + 1e-9
        assert chi <= upper + 1e-9


def classical_cross_check_channels():
    """The 50 diagonal channels of acceptance criterion 02, in its order."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        yield random_channel(n, m, int(rng.integers(1 << 31)), "diagonal")


class TestClassicalBranch:
    """A channel whose support stack is exactly diagonal steps on its diagonal rows."""

    def test_diagonal_rows_match_the_matrix_step(self):
        # criterion 02's rows have no zero entry; the last two channels' do, so
        # at their point masses the mixture has zeros and the floor binds
        channels = list(classical_cross_check_channels())
        channels.append(orthogonal_channel(3))
        channels.append(CqChannel([np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.3, 0.7]),
                                   np.diag([1.0, 0.0, 0.0])]))
        rng = np.random.default_rng(67)
        for base in channels:
            n = base.size
            ch = CqChannel(base.states, np.arange(n) / n)
            assert ch._diagonal_rows is not None
            for multiplier in (0.0, 0.7):
                for p in TestSupportBasis.points(rng, n):
                    state = make_iteration_state(ch, p)
                    div, upper, value = full_space_step(ch, multiplier, p)
                    assert np.abs(state.divergences_nats - div).max() <= 1e-10
                    assert abs(upper_bound(ch, multiplier, state) - upper) <= 1e-10
                    assert abs(ba_step(ch, multiplier, state)[1] - value) <= 1e-10

    def test_rotated_channels_match_the_classical_oracle_through_eigh(self):
        # conjugated by a fixed unitary, a classical channel keeps its capacity
        # but leaves the diagonal branch, so this pins the matrix step to the oracle
        epsilon = 1e-8
        channels = list(itertools.islice(classical_cross_check_channels(), 10))
        # the fifth is the boundary channel random_channel(8, 2, 356456227, "diagonal")
        boundary = random_channel(8, 2, 356456227, "diagonal")
        assert np.array_equal(channels[4].state_stack, boundary.state_stack)
        for ch in channels:
            u = random_unitary(np.random.default_rng(71), ch.dim)
            rotated = CqChannel([u @ rho.matrix @ u.conj().T for rho in ch.states])
            assert rotated._diagonal_rows is None
            result = unconstrained_capacity(rotated, epsilon=epsilon)
            reference = classical_ba(diagonal_transition_matrix(ch), epsilon=epsilon)
            assert abs(result.capacity_bits - reference) <= 2 * epsilon + 1e-12

    def test_classical_channels_step_without_eigh(self, monkeypatch):
        classical = CqChannel(random_channel(4, 3, 5, "diagonal").states, [0.0, 1.0, 0.4, 2.0])
        # a zero output column compresses to d = 2, still exactly diagonal
        compressed = padded(random_channel(3, 2, 6, "diagonal"))
        assert compressed.support_stack.shape == (3, 2, 2)
        mats = [rho.matrix.copy() for rho in classical.states]
        mats[0][0, 1] = mats[0][1, 0] = 1e-30
        perturbed = CqChannel(mats, classical.costs)
        assert perturbed.support_stack[0, 0, 1] == 1e-30
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for ch in (classical, compressed):
            res, _ = solve_fixed_lambda(ch, SolverConfig(multiplier=0.3, epsilon=1e-8))
            assert res.termination is TerminationReason.GAP_REACHED
        assert shapes == []
        res, _ = solve_fixed_lambda(perturbed, SolverConfig(multiplier=0.3, epsilon=1e-8))
        monkeypatch.undo()
        assert res.termination is TerminationReason.GAP_REACHED
        assert shapes == [(3, 3)] * (res.iterations + res.rejected_steps)


class TestBudgetedLoop:
    """A finite cost_limit tilts every step onto the budget."""

    @pytest.mark.parametrize("seed", range(12))
    def test_tilt_meets_the_budget_from_any_warm_start(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        log_p = np.log(rng.dirichlet(np.ones(n)))
        div = 5.0 * rng.random(n)
        costs = rng.random(n)
        costs[rng.integers(n)] = 0.0
        powers = np.stack((np.ones(n), costs, costs ** 2))
        free = float(costs @ _update(log_p, div))
        for budget in (free * 10.0 ** -rng.uniform(0.1, 9.0), 2.0 * free):
            for warm in (0.0, 1e-3, 1.0, 1e3):
                nu, log_z, cost = _tilt(log_p, div, powers, budget, warm)
                # a numpy scalar would leak into the bounds and the JSON report
                assert type(nu) is float
                w = _update(log_p, div - nu * costs)
                assert w.min() > 0.0
                assert float(costs @ w) <= budget * (1.0 + 1e-14)
                if nu == 0.0:
                    assert free <= budget * (1.0 + 1e-14)
                else:
                    assert budget * (1.0 - TILT_TOL_REL) <= cost <= budget
                top = log_p + div - nu * costs
                assert log_z == pytest.approx(math.log(np.exp(top).sum()), abs=1e-12)

    def test_tilt_far_below_the_top_reevaluates_shifted(self):
        # the cheapest letter sits 300 nats below the top, so the budget puts
        # every weight near exp(-300) < 1e-100, where the tilt shifts them up
        log_p = np.log(np.full(3, 1.0 / 3.0))
        div = np.array([0.0, 300.0, 300.0])
        costs = np.array([0.0, 1.0, 2.0])
        powers = np.stack((np.ones(3), costs, costs ** 2))
        budget = 0.5
        nu, log_z, cost = _tilt(log_p, div, powers, budget, 0.0)
        assert type(nu) is float
        assert budget * (1.0 - TILT_TOL_REL) <= cost <= budget
        w = _update(log_p, div - nu * costs)
        assert w.min() > 0.0 and float(costs @ w) <= budget * (1.0 + 1e-14)
        top = log_p + div - nu * costs
        assert log_z == pytest.approx(top.max() + math.log(np.exp(top - top.max()).sum()),
                                      abs=1e-12)

    def test_tilt_out_of_evaluations_stays_feasible(self, monkeypatch):
        # a tilt that runs out of evaluations takes its bracket's feasible end,
        # which loosens the step value but never the certificate
        monkeypatch.setattr(cqcap.solver, "TILT_MAX_EVALS", 2)
        for seed, costs, budget in [(1, [0.2, 0.7, 1.0], 0.5), (5, [0.3, 1.0, 0.4], 0.35),
                                    (23, [0.1, 1.0, 0.4], 0.2)]:
            ch = CqChannel(random_channel(3, 2, seed, "mixed").states, costs)
            res, _ = solve_fixed_lambda(ch, SolverConfig(cost_limit=budget, max_iter=20000))
            assert res.expected_cost <= budget
            grid = grid_capacity(ch, GridSpec(DEFAULT_GRID_RESOLUTION[3]), cost_limit=budget)
            assert (max(res.trace.objective_bits) - grid.slack_bits <= grid.value_bits
                    <= res.gap_certificate_bits[1] + grid.slack_bits)

    @pytest.mark.parametrize("kind", ["pure", "mixed", "diagonal"])
    def test_bound_is_the_dual_line_at_the_best_steps_multiplier(self, kind):
        # each step's bound is U(mu) + mu S at its own tilt, so the certified
        # one is the public upper_bound at the reported multiplier plus mu S
        ch = CqChannel(random_channel(4, 3, 11, kind).states, [0.3, 1.0, 0.4, 2.0])
        for budget in (0.35, 0.5, 0.8):
            res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8, cost_limit=budget))
            assert 0.0 < res.multiplier < math.inf
            k = int(np.argmin(trace.upper_bits))
            state = make_iteration_state(ch, trace.iterates[k])
            line = upper_bound(ch, res.multiplier, state) + res.multiplier * budget
            assert abs(res.gap_certificate_bits[1] - line) <= 1e-10

    def test_budgeted_solve_certifies_a_feasible_distribution(self):
        ch = CqChannel(random_channel(4, 3, 5, "mixed").states, [0.3, 1.0, 0.4, 2.0])
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8, cost_limit=0.5))
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.gap_certificate_bits[1] - max(trace.objective_bits) <= 1e-8
        assert res.expected_cost <= 0.5 and res.constraint_active
        # the returned distribution's Holevo value carries the lower bound
        assert res.capacity_bits >= max(trace.objective_bits) - 1e-12
        assert len(trace) == res.iterations

    def test_the_tilt_is_solved_once_per_evaluated_distribution(self, monkeypatch):
        # the extrapolated step takes the current tilt's gain, so only a
        # state's evaluation solves the tilt: once per spectrum of the loop
        calls = []
        tilt = cqcap.solver._tilt

        def counting(*args):
            calls.append(args)
            return tilt(*args)

        monkeypatch.setattr(cqcap.solver, "_tilt", counting)
        ch = CqChannel(random_channel(4, 3, 5, "mixed").states, [0.3, 1.0, 0.4, 2.0])
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8, cost_limit=0.5))
        assert res.certified and 0.0 < res.multiplier < math.inf
        assert len(calls) == res.iterations + res.rejected_steps

    def test_rejects_a_budget_it_cannot_resolve(self):
        with pytest.raises(ValueError, match="cost_limit"):
            SolverConfig(cost_limit=math.nan)
        with pytest.raises(ValueError, match="no fixed multiplier"):
            SolverConfig(multiplier=1.0, cost_limit=0.5)
        ch = CqChannel(random_channel(3, 2, 1, "mixed").states, [0.2, 0.7, 1.0])
        for budget in (0.2 - 1e-12, -math.inf):
            with pytest.raises(InfeasibleCost, match="below the cheapest"):
                solve_fixed_lambda(ch, SolverConfig(cost_limit=budget))

    @pytest.mark.parametrize("costs, budget", [
        ([0.2, 0.7, 1.0], 0.2),
        ([0.0, 0.0, 1.0], 0.0),
        ([0.0, 1.0, 2.0], 1e-300 * 2.0),
    ], ids=["at-cheapest", "at-tied-cheapest", "headroom-1e-300"])
    def test_infinite_tilt_certifies_on_the_full_channel(self, costs, budget):
        # too little headroom for any finite tilt: the costlier letters get
        # zero mass from the first update on, and the cheapest letters certify
        ch = CqChannel(random_channel(3, 2, 1, "mixed").states, costs)
        eps = 1e-8
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=eps, cost_limit=budget))
        costlier = ch.costs > ch.costs.min()
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.gap_certificate_bits[1] - max(trace.objective_bits) <= eps
        assert np.all(res.probs.probs[costlier] == 0.0)
        assert res.expected_cost <= budget
        assert res.multiplier == math.inf and res.constraint_active
        assert len(trace) == res.iterations
        assert all(iterate.size == ch.size for iterate in trace.iterates)
        assert all(np.all(iterate[costlier] == 0.0) for iterate in trace.iterates[1:])


class TestRateDiagnostics:
    def test_converged_run_is_sublinear(self):
        ch = random_channel(3, 2, 71, "mixed")
        res, trace = solve_fixed_lambda(ch, SolverConfig())
        diag = rate_diagnostics(trace, res.probs)
        assert diag.sublinear_ok
        assert len(diag.divergence_to_final_bits) == len(trace)

    def test_gap_is_taken_to_the_smallest_upper_bound(self):
        # the extrapolated step's bounds are not monotone: here the last one
        # sits above the smallest, and the gap to it at step 2 exceeds log2(2)/2
        from cqcap.solver import IterationTrace

        trace = IterationTrace(objective_bits=[0.0, 0.5, 0.9], upper_bits=[2.0, 1.0, 1.6],
                               iterates=[np.array([0.5, 0.5]), np.array([0.6, 0.4]),
                                         np.array([0.7, 0.3])])
        assert rate_diagnostics(trace, [0.7, 0.3]).sublinear_ok

    def test_independent_channel_contracts_geometrically(self):
        ch = random_channel(3, 2, 73, "mixed")
        res, trace = solve_fixed_lambda(ch, SolverConfig())
        diag = rate_diagnostics(trace, res.probs)
        assert diag.geometric_ratio_tail < 1.0

    def test_single_letter_reports_converged(self):
        ch = CqChannel([np.eye(2) / 2])
        res, trace = solve_fixed_lambda(ch, SolverConfig())
        diag = rate_diagnostics(trace, res.probs)
        assert diag.geometric_ratio_tail == 1.0

    def test_empty_trace_rejected(self):
        from cqcap.solver import IterationTrace

        with pytest.raises(EmptyTrace):
            rate_diagnostics(IterationTrace(), [1.0])


class TestSolverConfig:
    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, -1.0])
    def test_rejects_a_multiplier_that_is_not_finite_and_nonnegative(self, multiplier):
        with pytest.raises(ValueError, match="multiplier"):
            SolverConfig(multiplier=multiplier)
        # the public step functions take the same check
        ch = random_channel(3, 2, 11, "mixed")
        state = make_iteration_state(ch, [0.2, 0.3, 0.5])
        for call in (lambda: ba_step(ch, multiplier, state),
                     lambda: upper_bound(ch, multiplier, state),
                     lambda: surrogate_objective(ch, multiplier, state.probs, state.probs)):
            with pytest.raises(ValueError, match="multiplier must be finite and nonnegative"):
                call()
        # a finite multiplier whose penalty overflows is rejected the same way
        ch = CqChannel(random_channel(3, 2, 1, "mixed").states, [0, 1e10, 2e10])
        state = make_iteration_state(ch, [0.2, 0.3, 0.5])
        for call in (lambda: ba_step(ch, 1e300, state),
                     lambda: upper_bound(ch, 1e300, state),
                     lambda: surrogate_objective(ch, 1e300, state.probs, state.probs),
                     lambda: solve_fixed_lambda(ch, SolverConfig(multiplier=1e300))):
            with pytest.raises(ValueError, match="multiplier 1e\\+300 makes a penalty"):
                call()

    @pytest.mark.parametrize("fields, message", [
        ({"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
        ({"epsilon": -1e-6}, "epsilon must be positive, got -1e-06"),
        ({"epsilon": math.nan}, "epsilon must be positive, got nan"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"max_iter": math.nan}, "max_iter must be an integer, got nan"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"cost_limit": math.nan}, "cost_limit must be a number or inf, got nan"),
        ({"multiplier": -1.0}, "multiplier must be finite and nonnegative, got -1.0"),
        ({"multiplier": 1.0, "cost_limit": 0.5},
         "a budgeted run takes no fixed multiplier, got 1.0"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"max_iter": False}, "max_iter must be an integer, got False"),
    ], ids=["eps-zero", "eps-negative", "eps-nan", "max-iter-zero", "max-iter-nan",
            "max-iter-fraction", "budget-nan", "multiplier-negative", "multiplier-with-budget",
            "max-iter-true", "max-iter-false"])
    def test_a_bad_parameter_is_bad_params_naming_its_value(self, fields, message):
        with pytest.raises(BadParams, match=re.escape(message)) as raised:
            SolverConfig(**fields)
        assert isinstance(raised.value, ValueError)

    def test_an_overflowing_penalty_is_bad_params(self):
        ch = CqChannel(random_channel(3, 2, 1, "mixed").states, [0, 1e10, 2e10])
        with pytest.raises(BadParams, match="multiplier 1e\\+300 makes a penalty"):
            solve_fixed_lambda(ch, SolverConfig(multiplier=1e300))


def _padded_channel(seed):
    """Mixed qubit states placed in a 4-dimensional space: support dimension 2 < m."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = np.zeros((4, 4), dtype=complex)
        rho[:2, :2] = a @ a.conj().T / float(np.trace(a @ a.conj().T).real)
        states.append(rho)
    return CqChannel(states)


class TestCurvature:
    """``_curvature`` is minus the Jacobian of the step kernel's divergences."""

    CHANNELS = {
        "pure": lambda: random_channel(3, 4, 71, "pure"),
        "mixed": lambda: random_channel(4, 3, 72, "mixed"),
        "padded": lambda: _padded_channel(73),
        "classical": lambda: random_channel(4, 3, 74, "diagonal"),
    }

    @pytest.mark.parametrize("kind", sorted(CHANNELS))
    def test_matches_central_differences_and_is_symmetric_psd(self, kind):
        ch = self.CHANNELS[kind]()
        p = random_simplex_point(np.random.default_rng(75), ch.size, floor=0.2)
        evals, _, _, evecs = _spectral_terms(ch, p)
        if kind == "padded":
            assert evals.size == 2 < ch.dim
        assert (evecs is None) == (kind == "classical")
        curvature = _curvature(ch, np.ones(ch.size, dtype=bool), evals, evecs)
        h = 1e-6
        columns = []
        for y in range(ch.size):
            step = np.zeros(ch.size)
            step[y] = h
            plus, minus = _spectral_terms(ch, p + step)[1], _spectral_terms(ch, p - step)[1]
            columns.append(-(plus - minus) / (2 * h))
        scale = float(np.abs(curvature).max())
        np.testing.assert_allclose(curvature, np.column_stack(columns), rtol=0, atol=1e-6 * scale)
        np.testing.assert_allclose(curvature, curvature.T, rtol=0, atol=1e-12 * scale)
        assert float(np.linalg.eigvalsh(curvature).min()) >= -1e-12 * scale

    def test_restricts_to_the_active_letters(self):
        ch = self.CHANNELS["mixed"]()
        evals, _, _, evecs = _spectral_terms(ch, np.full(ch.size, 1.0 / ch.size))
        full = _curvature(ch, np.ones(ch.size, dtype=bool), evals, evecs)
        active = np.array([True, False, True, True])
        np.testing.assert_allclose(_curvature(ch, active, evals, evecs),
                                   full[np.ix_(active, active)], rtol=1e-13, atol=0)


def _whole_kkt(ch, evals, evecs, costs=None):
    """The KKT matrix over every letter, bordered by ``costs`` when given."""
    n = ch.size
    kkt = np.zeros((n + 1, n + 1) if costs is None else (n + 2, n + 2))
    kkt[:n, :n] = _curvature(ch, np.ones(n, dtype=bool), evals, evecs)
    kkt[n, :n] = kkt[:n, n] = 1.0
    if costs is not None:
        kkt[n + 1, :n] = kkt[:n, n + 1] = costs
    return kkt


class TestNewtonPolish:
    """The second-order proposal, and the witnesses it mends."""

    @pytest.mark.parametrize("seed, case", [(10, 75), (7, 143), (2, 50)])
    def test_fock_coherent_witnesses_certify(self, seed, case):
        # case 75 stalled without the polish; 143 and 50 stalled under a
        # polish that crushed a letter still in the optimum's support
        res, _ = solve_fixed_lambda(fock_coherent_channel(seed, case), SolverConfig(epsilon=1e-6))
        assert res.termination is TerminationReason.GAP_REACHED
        assert res.certified
        assert res.newton_steps > 0

    @pytest.mark.parametrize("rotated", [False, True])
    def test_diag_sweep_witness_certifies_on_both_branches(self, rotated):
        rows = diag_sweep_transition(6, 47)
        u = random_unitary(np.random.default_rng(47), rows.shape[1]) if rotated else np.eye(rows.shape[1])
        ch = CqChannel([u @ np.diag(row).astype(complex) @ u.conj().T for row in rows])
        assert (ch._diagonal_rows is None) == rotated
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        assert res.termination is TerminationReason.GAP_REACHED
        reference = classical_ba(rows, epsilon=1e-8)
        assert res.capacity_bits == pytest.approx(reference, abs=3e-8)

    def test_every_newton_proposal_costs_one_spectrum(self, monkeypatch):
        # five pure letters in four dimensions: one Newton proposal loses ascent
        ch = random_channel(5, 4, 13, "pure")
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        monkeypatch.undo()
        assert res.newton_steps > 0 and res.rejected_steps > 0
        # the curvature reuses each step's eigenvectors
        assert len(calls) == res.iterations + res.rejected_steps

    def test_first_order_steps_come_first(self, monkeypatch):
        ch = fock_coherent_channel(2024, 3)
        proposed = []
        propose = cqcap.solver._newton_proposal

        def recording(ch, p, *args):
            proposed.append(p)
            return propose(ch, p, *args)

        monkeypatch.setattr(cqcap.solver, "_newton_proposal", recording)
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-6))
        assert res.newton_steps > 0
        assert proposed[0] is trace.iterates[NEWTON_START - 1]

    def test_ascent_holds_through_newton_steps(self):
        res, trace = solve_fixed_lambda(fock_coherent_channel(2024, 3), SolverConfig(epsilon=1e-6))
        assert res.newton_steps > 0
        values = trace.objective_bits
        assert all(b > a for a, b in zip(values[NEWTON_START - 1:], values[NEWTON_START:]))
        assert res.capacity_bits >= max(values) - 1e-12

    @pytest.mark.parametrize("budget, binding", [(0.5, True), (1.5, False)])
    def test_budgeted_runs_take_newton_steps(self, budget, binding):
        # the unconstrained optimum costs 0.99: a budget of 0.5 binds the
        # tilt, and one of 1.5 leaves it at zero
        ch = CqChannel(random_channel(3, 2, 5, "mixed").states, [0.0, 1.0, 2.0])
        res, _ = solve_fixed_lambda(ch, SolverConfig(cost_limit=budget, epsilon=1e-8))
        assert res.termination is TerminationReason.GAP_REACHED and res.certified
        assert res.newton_steps > 0
        assert res.expected_cost <= budget
        assert res.constraint_active == binding
        assert (0.0 < res.multiplier < math.inf) == binding
        grid = grid_capacity(ch, GridSpec(DEFAULT_GRID_RESOLUTION[3]), cost_limit=budget)
        assert (res.capacity_bits - grid.slack_bits <= grid.value_bits
                <= res.gap_certificate_bits[1] + grid.slack_bits)

    def test_a_binding_tilt_borders_the_kkt_system_with_the_budget(self):
        # every letter is active and none blocks, so the proposal is the
        # whole Newton step of the bordered system, solved here by hand on
        # the divergences with the tilt nu' itself as the last unknown
        rows = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        ch = CqChannel([np.diag(row).astype(complex) for row in rows], [0.0, 1.0, 0.5])
        p, budget = np.array([0.4, 0.3, 0.3]), 0.4
        costs = ch.costs - ch.costs.min()
        powers = np.stack((np.ones(3), costs, costs ** 2))
        log_p = np.log(p)
        evals, div, _, evecs = _spectral_terms(ch, p)
        nu, log_z, cost = _tilt(log_p, div, powers, budget, 0.0)
        assert nu > 0.0 and float(costs @ p) > budget
        value = log_z + nu * cost
        kkt = np.zeros((5, 5))
        kkt[:3, :3] = _curvature(ch, np.ones(3, dtype=bool), evals, evecs)
        kkt[3, :3] = kkt[:3, 3] = 1.0
        kkt[4, :3] = kkt[:3, 4] = costs
        solution = np.linalg.solve(kkt, np.concatenate((div, [0.0, budget - costs @ p])))
        delta, new_nu = solution[:3], solution[4]
        assert (delta > -0.5 * p).all()
        proposal = _newton_proposal(ch, p, log_p, div - nu * costs, value, (evals, evecs), 1.0,
                                    (costs, budget - float(costs @ p)))
        assert proposal == pytest.approx(p + delta, rel=1e-12)
        assert float(costs @ proposal) == pytest.approx(budget, rel=1e-12)
        # tilted again, the proposal's tilt is near nu' and its step value higher
        next_nu, next_log_z, next_cost = _tilt(np.log(proposal), _spectral_terms(ch, proposal)[1],
                                               powers, budget, nu)
        assert abs(next_nu - new_nu) < 0.1 * abs(nu - new_nu)
        assert next_log_z + next_nu * next_cost > value

    def test_more_active_letters_than_the_curvatures_rank_skip_newton(self, monkeypatch):
        # a qubit's curvature has rank at most d^2 = 4: four mixed letters
        # take Newton steps, and five are proposed none while all are active
        four, _ = solve_fixed_lambda(random_channel(4, 2, 5, "mixed"), SolverConfig(epsilon=1e-8))
        assert four.certified and four.newton_steps > 0
        proposals = []
        propose = cqcap.solver._newton_proposal

        def recording(ch, p, log_p, gain, log_z, *args):
            proposal = propose(ch, p, log_p, gain, log_z, *args)
            active = int(np.count_nonzero((p > NEWTON_ACTIVE_MASS) | (gain > log_z)))
            proposals.append((active, proposal is None))
            return proposal

        monkeypatch.setattr(cqcap.solver, "_newton_proposal", recording)
        five, _ = solve_fixed_lambda(random_channel(5, 2, 5, "mixed"), SolverConfig(epsilon=1e-8))
        assert five.certified
        assert proposals[0] == (5, True)
        assert all(skipped for active, skipped in proposals if active > 4)

    def test_a_letter_that_crosses_the_boundary_leaves_the_system(self):
        # the third letter's gain lies far below log Z, and the Newton move of
        # the full system takes it past zero mass
        rows = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.4, 0.3, 0.3]])
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        p = np.array([0.35, 0.35, 0.3])
        evals, gain, _, evecs = _spectral_terms(ch, p)
        log_p = np.log(p)
        log_z = _log_partition(log_p + gain)
        kkt = np.ones((4, 4))
        kkt[:3, :3] = _curvature(ch, np.ones(3, dtype=bool), evals, evecs)
        kkt[3, 3] = 0.0
        delta = np.linalg.solve(kkt, np.append(gain, 0.0))[:3]
        assert gain[2] < log_z - NEWTON_WINDOW and delta[2] < -p[2]
        # its move is fixed, and the other two letters solve again with that
        # move on the right-hand side and take their step undamped
        leaving = -NEWTON_BOUNDARY * p[2]
        rows_left = [0, 1, 3]
        rest = np.linalg.solve(kkt[np.ix_(rows_left, rows_left)],
                               np.append(gain[:2], 0.0) - kkt[rows_left, 2] * leaving)[:2]
        assert (rest > 0.0).all()
        proposal = _newton_proposal(ch, p, log_p, gain, log_z, (evals, evecs), 1.0)
        assert proposal == pytest.approx(p + np.append(rest, leaving), rel=1e-10)
        # the full step damped to the boundary by the leaving letter gains less
        throttled = p + NEWTON_BOUNDARY * p[2] / -delta[2] * delta

        def value(w):
            return ba_step(ch, 0.0, make_iteration_state(ch, w))[1]

        assert value(proposal) > value(throttled) > value(p)

    def test_a_leaving_letter_keeps_the_budgets_row_in_the_system_solved_again(self):
        # the tilt binds, the third letter's gain lies far below the step
        # value, and its move in the whole bordered system crosses zero mass
        rows = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.4, 0.3, 0.3]])
        ch = CqChannel([np.diag(row).astype(complex) for row in rows], [0.0, 1.0, 0.5])
        p, budget = np.array([0.2, 0.3, 0.5]), 0.3
        costs = ch.costs - ch.costs.min()
        log_p = np.log(p)
        evals, div, _, evecs = _spectral_terms(ch, p)
        nu, log_z, cost = _tilt(log_p, div, np.stack((np.ones(3), costs, costs ** 2)), budget, 0.0)
        value, gain = log_z + nu * cost, div - nu * costs
        kkt = _whole_kkt(ch, evals, evecs, costs)
        rhs = np.concatenate((gain, [0.0, budget - costs @ p]))
        delta = np.linalg.solve(kkt, rhs)[:3]
        lead = float(gain.max()) - value
        assert nu > 0.0 and gain[2] < value - max(NEWTON_WINDOW, lead) and delta[2] < -p[2]
        # its move is fixed, and the other two letters solve the bordered
        # system again with that move on the right-hand side, the budget's
        # row included; none of them falls far enough to be damped
        leaving = -NEWTON_BOUNDARY * p[2]
        kept = [0, 1, 3, 4]
        rest = np.linalg.solve(kkt[np.ix_(kept, kept)], rhs[kept] - kkt[kept, 2] * leaving)[:2]
        assert (rest > -NEWTON_SPARE * p[:2]).all()
        proposal = _newton_proposal(ch, p, log_p, gain, value, (evals, evecs), 1.0,
                                    (costs, budget - float(costs @ p)))
        assert proposal == pytest.approx(p + np.append(rest, leaving), rel=1e-12)
        assert float(costs @ proposal) == pytest.approx(budget, rel=1e-12)

    def test_a_window_letter_that_trails_by_more_than_the_lead_loses_half_its_mass(self):
        # the second letter's gain lies in the window, further below log Z
        # than the largest gain lies above it, and the whole system's move
        # takes half its mass or more
        rows = np.array([[0.46, 0.36, 0.18], [0.34, 0.56, 0.10], [0.31, 0.57, 0.12]])
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        p = np.array([0.49, 0.32, 0.19])
        evals, gain, _, evecs = _spectral_terms(ch, p)
        log_p = np.log(p)
        log_z = _log_partition(log_p + gain)
        lead = float(gain.max()) - log_z
        kkt = _whole_kkt(ch, evals, evecs)
        delta = np.linalg.solve(kkt, np.append(gain, 0.0))[:3]
        assert log_z - NEWTON_WINDOW <= gain[1] < log_z - lead
        assert delta[1] <= -NEWTON_SPARE * p[1]
        # it loses exactly NEWTON_SPARE of its mass, and the other two solve
        # again with that move on the right-hand side
        leaving = -NEWTON_SPARE * p[1]
        kept = [0, 2, 3]
        rest = np.linalg.solve(kkt[np.ix_(kept, kept)],
                               np.append(gain[[0, 2]], 0.0) - kkt[kept, 1] * leaving)[:2]
        assert (rest > -NEWTON_SPARE * p[[0, 2]]).all()
        proposal = _newton_proposal(ch, p, log_p, gain, log_z, (evals, evecs), 1.0)
        assert proposal == pytest.approx(np.insert(p[[0, 2]] + rest, 1, p[1] + leaving),
                                         rel=1e-10)
        assert proposal[1] == pytest.approx((1.0 - NEWTON_SPARE) * p[1], rel=1e-10)

    def test_a_window_letter_within_the_lead_is_spared(self):
        # the second letter's gain lies below log Z by less than the largest
        # gain lies above it, and the whole system's move takes half its mass
        # or more
        rows = np.array([[0.15, 0.34, 0.51], [0.4, 0.1, 0.5], [0.51, 0.17, 0.32]])
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        p, gamma = np.array([0.35, 0.323, 0.327]), 2.0
        evals, gain, _, evecs = _spectral_terms(ch, p)
        log_p = np.log(p)
        log_z = _log_partition(log_p + gain)
        lead = float(gain.max()) - log_z
        kkt = _whole_kkt(ch, evals, evecs)
        delta = np.linalg.solve(kkt, np.append(gain, 0.0))[:3]
        assert log_z - lead <= gain[1] < log_z
        assert delta[1] <= -NEWTON_SPARE * p[1]
        # it keeps no move in the system, which the other two solve without
        # it, and takes the extrapolated factor gamma (gain - log Z)
        kept = [0, 2, 3]
        rest = np.linalg.solve(kkt[np.ix_(kept, kept)], np.append(gain[[0, 2]], 0.0))[:2]
        assert (rest > -NEWTON_SPARE * p[[0, 2]]).all()
        weights = np.insert(p[[0, 2]] + rest, 1, p[1] * math.exp(gamma * (gain[1] - log_z)))
        proposal = _newton_proposal(ch, p, log_p, gain, log_z, (evals, evecs), gamma)
        assert proposal == pytest.approx(weights / weights.sum(), rel=1e-10)

    def test_each_proposal_solves_once_however_many_letters_leave(self, monkeypatch):
        # an 8-letter classical channel whose proposals take several letters
        # out of their systems in turn
        rows = diag_sweep_transition(2024, 78)
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        solve, propose, update = np.linalg.solve, cqcap.solver._newton_proposal, _update
        solves, steps, proposals = [], [], []
        # a letter taken out below the window, or in it, keeps a fixed share of its mass
        fixed = np.log1p(-np.array([NEWTON_BOUNDARY, NEWTON_SPARE]))

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        def recording_update(log_p, step, *args):
            steps.append(step)
            return update(log_p, step, *args)

        def recording(*args):
            solves.clear()
            steps.clear()
            proposal = propose(*args)
            taken = 0 if proposal is None else int(np.isclose(
                steps[-1][:, None], fixed, rtol=1e-12, atol=0.0).any(axis=1).sum())
            proposals.append((len(solves), taken))
            return proposal

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(cqcap.solver, "_update", recording_update)
        monkeypatch.setattr(cqcap.solver, "_newton_proposal", recording)
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        monkeypatch.undo()
        assert res.certified and res.newton_steps > 0
        assert max(taken for _, taken in proposals) >= 2
        assert max(count for count, _ in proposals) == 1

    def test_letters_leave_in_turn_from_one_inverse(self, monkeypatch):
        # the second letter's move in the whole system crosses zero mass, and
        # once it is fixed, so does the first letter's; both gains lie below
        # the window
        rows = np.array([[0.13, 0.55, 0.26, 0.06], [0.18, 0.45, 0.33, 0.04],
                         [0.22, 0.09, 0.49, 0.2], [0.29, 0.56, 0.04, 0.11]])
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        p = np.array([0.12, 0.23, 0.34, 0.31])
        evals, gain, _, evecs = _spectral_terms(ch, p)
        log_p = np.log(p)
        log_z = _log_partition(log_p + gain)
        lead = float(gain.max()) - log_z
        assert (gain[:2] < log_z - max(NEWTON_WINDOW, lead)).all()
        kkt = _whole_kkt(ch, evals, evecs)
        rhs = np.append(gain, 0.0)
        delta = np.linalg.solve(kkt, rhs)[:4]
        assert delta[1] <= -p[1] and delta[1] / p[1] < delta[0] / p[0]
        kept = [0, 2, 3, 4]
        again = np.linalg.solve(kkt[np.ix_(kept, kept)],
                                rhs[kept] + kkt[kept, 1] * NEWTON_BOUNDARY * p[1])
        assert again[0] <= -p[0]
        # both leave with their fixed moves, and the other two solve the
        # system without them; none of those falls far enough to be damped
        leaving = -NEWTON_BOUNDARY * p[:2]
        kept = [2, 3, 4]
        rest = np.linalg.solve(kkt[np.ix_(kept, kept)],
                               rhs[kept] - kkt[np.ix_(kept, [0, 1])] @ leaving)[:2]
        assert (rest > -NEWTON_SPARE * p[2:]).all()
        solves = []
        solve = np.linalg.solve

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        proposal = _newton_proposal(ch, p, log_p, gain, log_z, (evals, evecs), 1.0)
        monkeypatch.undo()
        assert len(solves) == 1
        assert proposal == pytest.approx(p + np.concatenate((leaving, rest)), rel=1e-10)

    def test_a_singular_reduced_system_is_no_proposal(self, monkeypatch):
        # an indefinite hand-built H, which no channel's curvature is: the
        # whole KKT matrix is regular, but H's first two rows and columns
        # make the system without the third letter singular, and that letter
        # crosses zero mass below the window
        ch = CqChannel([np.diag(row).astype(complex) for row in np.eye(3)])
        curvature = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        monkeypatch.setattr(cqcap.solver, "_curvature", lambda *args: curvature)
        p, gain = np.array([0.25, 0.25, 0.5]), np.array([1.0, 0.0, -1.0])
        log_p = np.log(p)
        log_z = _log_partition(log_p + gain)
        assert gain[2] < log_z - max(NEWTON_WINDOW, float(gain.max()) - log_z)
        kkt = np.ones((4, 4))
        kkt[:3, :3] = curvature
        kkt[3, 3] = 0.0
        assert np.linalg.solve(kkt, np.append(gain, 0.0))[2] <= -p[2]
        assert np.linalg.matrix_rank(kkt[np.ix_([0, 1, 3], [0, 1, 3])]) == 2
        evals = _spectral_terms(ch, p)[0]
        assert _newton_proposal(ch, p, log_p, gain, log_z, (evals, None), 1.0) is None

    def test_fock_coherent_case_87_certifies_in_a_dozen_steps(self):
        # three letters leave its support in turn; while each one damped the
        # whole step to the boundary, the run took 21 iterations
        res, _ = solve_fixed_lambda(fock_coherent_channel(2024, 87), SolverConfig(epsilon=1e-6))
        assert res.certified
        assert res.iterations <= 12

    @pytest.mark.parametrize("seed, case", [(8, 45), (3, 62)])
    def test_linearly_converging_witnesses_certify_in_few_spectra(self, seed, case):
        # 3,258 and 2,695 spectra while leaving letters damped every Newton step
        res, _ = solve_fixed_lambda(fock_coherent_channel(seed, case), SolverConfig(epsilon=1e-6))
        assert res.certified
        assert res.iterations + res.rejected_steps + 1 < 1000

    @pytest.mark.parametrize("seed, case, spectra", [(10, 75, 54), (1, 107, 146)])
    def test_trailing_letters_in_the_window_shrink_by_halves(self, seed, case, spectra):
        # a letter in the window that trails log Z by more than the largest
        # gain leads it lost mass only at the extrapolated rate, and the runs
        # took 1,365 and 690 spectra; ``spectra`` is twice what they took
        # while leaving letters damped the whole step
        res, _ = solve_fixed_lambda(fock_coherent_channel(seed, case), SolverConfig(epsilon=1e-6))
        assert res.certified
        assert res.iterations + res.rejected_steps + 1 <= spectra

    @pytest.mark.parametrize("seed, case", [(2024, 4), (10, 68)])
    def test_classical_optima_with_more_active_letters_than_outputs_take_newton_steps(
            self, seed, case):
        # with every letter in the system the classical KKT matrix is
        # singular; with first-order steps alone these took 12,702 and 10,135
        rows = diag_sweep_transition(seed, case)
        ch = CqChannel([np.diag(row).astype(complex) for row in rows])
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        assert res.certified and res.newton_steps > 0
        assert res.iterations + res.rejected_steps + 1 < 1000
        assert res.capacity_bits == pytest.approx(classical_ba(rows, epsilon=1e-8), abs=3e-8)
