import math

import numpy as np
import pytest

import cqcap.oracle
from cqcap import (
    CqChannel,
    GridSpec,
    SolverConfig,
    classical_ba,
    constrained_capacity,
    diagonal_transition_matrix,
    grid_capacity,
    holevo_quantity,
    random_channel,
    solve_fixed_lambda,
)
from cqcap.errors import AlphabetTooLarge, BadParams, NoFeasibleGridPoint, NotStochastic
from helpers import (
    BSC_CAPACITY,
    NONORTH_PAIR_CAPACITY,
    nonorthogonal_pair_channel,
    orthogonal_channel,
)


class TestGridCapacity:
    def test_orthogonal_pair(self):
        result = grid_capacity(orthogonal_channel(2), GridSpec(100))
        assert result.value_bits == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(result.argmax.probs, [0.5, 0.5])

    def test_nonorthogonal_pair(self):
        result = grid_capacity(nonorthogonal_pair_channel(), GridSpec(1000))
        assert result.value_bits == pytest.approx(NONORTH_PAIR_CAPACITY, abs=1e-4)

    def test_coarsest_grid_is_exhaustive(self):
        ch = nonorthogonal_pair_channel()
        result = grid_capacity(ch, GridSpec(2))
        candidates = [
            holevo_quantity(ch, p) for p in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.0])
        ]
        assert result.value_bits == pytest.approx(max(candidates), abs=1e-12)

    def test_alphabet_too_large(self):
        with pytest.raises(AlphabetTooLarge):
            grid_capacity(random_channel(5, 2, 1, "pure"), GridSpec(10))

    def test_cost_limit_filters_points(self):
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        result = grid_capacity(ch, GridSpec(100), cost_limit=0.3)
        assert float(result.argmax.probs[1]) <= 0.3 + 1e-12
        with pytest.raises(NoFeasibleGridPoint):
            grid_capacity(CqChannel(ch.states, [2.0, 3.0]), GridSpec(100), cost_limit=1.0)

    def test_slack_covers_a_budget_below_one_grid_step(self):
        # a budget 1e-3 of the cost range above the cheapest cost: every grid
        # point with mass on a costlier letter costs too much, yet a feasible
        # distribution may put up to 1.6e-3 of mass there
        ch = CqChannel(random_channel(3, 2, 1, "pure").states, [0.2, 0.7, 1.0])
        budget = 0.2008
        result = grid_capacity(ch, GridSpec(200), cost_limit=budget)
        certified = constrained_capacity(ch, budget, epsilon=1e-8)
        lower, upper = certified.gap_certificate_bits
        assert lower - result.slack_bits <= result.value_bits <= upper + result.slack_bits
        # a budget that only the cheapest letter fits, or under which a costlier
        # letter keeps a grid point, keeps the slack
        free = grid_capacity(ch, GridSpec(200)).slack_bits
        for budget in (0.2, 0.2025, 0.5):
            assert grid_capacity(ch, GridSpec(200), cost_limit=budget).slack_bits == free

    def test_penalty_mode(self):
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        lam = 0.8
        result = grid_capacity(ch, GridSpec(500, penalty_multiplier=lam))
        grid = np.linspace(0.0, 1.0, 501)
        direct = max(
            holevo_quantity(ch, [1 - q, q]) - lam * q for q in grid
        )
        assert result.value_bits == pytest.approx(direct, abs=1e-12)


class TestClassicalBa:
    def test_identity_channel(self):
        assert classical_ba(np.eye(2)) == pytest.approx(1.0, abs=1e-8)

    def test_binary_symmetric_channel(self):
        w = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert classical_ba(w) == pytest.approx(BSC_CAPACITY, abs=1e-8)

    def test_useless_channel(self):
        w = np.array([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
        assert classical_ba(w) == pytest.approx(0.0, abs=1e-8)

    def test_not_stochastic_rejected(self):
        with pytest.raises(NotStochastic):
            classical_ba(np.array([[0.9, 0.2], [0.1, 0.9]]))
        with pytest.raises(NotStochastic):
            classical_ba(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_one_dimensional_array_rejected(self):
        with pytest.raises(NotStochastic, match="2-D transition matrix"):
            classical_ba(np.array([0.5, 0.5]))

    def test_no_certified_value_within_max_iter_raises(self):
        w = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(RuntimeError, match="after 1 iterations"):
            classical_ba(w, epsilon=1e-12, max_iter=1)


class TestCrossChecks:
    def test_diagonal_channels_match_classical_solver(self):
        for i in range(5):
            ch = random_channel(3 + i % 2, 2 + i % 3, 50 + i, "diagonal")
            res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
            classical = classical_ba(diagonal_transition_matrix(ch), epsilon=1e-8)
            assert res.capacity_bits == pytest.approx(classical, abs=1e-6)

    def test_transition_extraction_requires_diagonal(self):
        with pytest.raises(ValueError):
            diagonal_transition_matrix(nonorthogonal_pair_channel())

    def test_grid_sandwiched_by_solver_certificate(self):
        for i in range(10):
            ch = random_channel(2 + i % 2, 2, 70 + i, "mixed")
            res, _ = solve_fixed_lambda(ch, SolverConfig())
            oracle = grid_capacity(ch, GridSpec(500))
            assert oracle.value_bits <= res.gap_certificate_bits[1] + 1e-10
            assert max(res.trace.objective_bits) <= oracle.value_bits + oracle.slack_bits


class TestGridSpec:
    @pytest.mark.parametrize("resolution", [1, 0, -5])
    def test_resolution_below_two_is_bad_params(self, resolution):
        with pytest.raises(BadParams, match=f"at least 2, got {resolution}") as raised:
            GridSpec(resolution)
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("resolution", [2.5, math.nan, True, False])
    def test_a_resolution_that_is_not_an_integer_is_bad_params(self, resolution):
        # grid_capacity would otherwise fail inside math.comb with a TypeError
        with pytest.raises(BadParams, match=f"must be an integer, got {resolution}"):
            GridSpec(resolution)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, -math.inf, -1.0])
    def test_a_penalty_multiplier_that_is_not_finite_and_nonnegative_is_bad_params(
            self, multiplier):
        # grid_capacity would otherwise return nan, or a value that rewards cost
        with pytest.raises(BadParams, match=f"finite and nonnegative, got {multiplier}"):
            GridSpec(20, penalty_multiplier=multiplier)

    def test_no_penalty_and_a_zero_penalty_are_accepted(self):
        assert GridSpec(20).penalty_multiplier is None
        assert GridSpec(20, penalty_multiplier=0.0).penalty_multiplier == 0.0


class TestGridLimit:
    def test_oversized_grid_refused_before_it_is_built(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cqcap.oracle, "_simplex_grid", unexpected)
        with pytest.raises(BadParams):
            grid_capacity(random_channel(4, 2, 5, "mixed"), GridSpec(1000))
        with pytest.raises(BadParams):
            grid_capacity(random_channel(3, 2, 5, "mixed"), GridSpec(1000))

    def test_values_agree_across_chunk_boundaries(self):
        ch = random_channel(3, 3, 12, "mixed")
        points = cqcap.oracle._simplex_grid(3, 100)
        values = cqcap.oracle._batched_holevo_bits(ch, points)
        assert values.shape == (points.shape[0],)
        for i in range(0, points.shape[0], 257):
            assert values[i] == pytest.approx(holevo_quantity(ch, points[i]), abs=1e-10)
