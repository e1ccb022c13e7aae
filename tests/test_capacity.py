import math

import numpy as np
import pytest

import cqcap.capacity
from cqcap import (
    CqChannel,
    GridSpec,
    constrained_capacity,
    grid_capacity,
    holevo_quantity,
    random_channel,
    unconstrained_capacity,
)
from cqcap.errors import BadParams, InfeasibleCost
from cqcap.oracle import DEFAULT_GRID_RESOLUTION
from helpers import (
    BUDGET_CAPACITY,
    NONORTH_PAIR_CAPACITY,
    binary_entropy_bits,
    nonorthogonal_pair_channel,
    orthogonal_channel,
)


class TestUnconstrainedCapacity:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_orthogonal_states_give_log_n(self, n):
        result = unconstrained_capacity(orthogonal_channel(n))
        assert result.capacity_bits == pytest.approx(math.log2(n), abs=1e-6)
        assert not result.constraint_active
        assert result.multiplier == 0.0

    def test_identical_states_give_zero(self):
        rho = np.eye(2) / 2
        result = unconstrained_capacity(CqChannel([rho, rho, rho]))
        assert result.capacity_bits == pytest.approx(0.0, abs=1e-6)

    def test_nonorthogonal_pair(self):
        result = unconstrained_capacity(nonorthogonal_pair_channel())
        assert result.capacity_bits == pytest.approx(NONORTH_PAIR_CAPACITY, abs=1e-6)

    def test_capacity_inside_certificate(self):
        result = unconstrained_capacity(random_channel(3, 3, 17, "mixed"))
        lower, upper = result.gap_certificate_bits
        assert lower <= result.capacity_bits <= upper
        assert upper - lower <= 1e-6

    def test_multiplier_zero_exits_reuse_the_solver_value(self, monkeypatch):
        # the solver's value at multiplier zero is the Holevo value of its
        # distribution, so no exit at multiplier zero computes it again
        calls = []
        holevo = cqcap.capacity.holevo_quantity
        monkeypatch.setattr(cqcap.capacity, "holevo_quantity",
                            lambda *args: calls.append(args) or holevo(*args))
        for kind in ("pure", "mixed", "diagonal"):
            ch = CqChannel(random_channel(4, 3, 23, kind).states, [0.0, 1.0, 0.4, 2.0])
            for result in (unconstrained_capacity(ch), constrained_capacity(ch, 2.0),
                           constrained_capacity(ch, math.inf)):
                assert calls == []
                assert not result.constraint_active
                assert abs(result.capacity_bits - holevo(ch, result.probs)) <= 1e-12


class TestConstrainedCapacity:
    def test_budgeted_orthogonal_pair(self):
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        result = constrained_capacity(ch, 0.3)
        assert result.constraint_active
        assert result.capacity_bits == pytest.approx(BUDGET_CAPACITY, abs=1e-5)
        assert result.expected_cost == pytest.approx(0.3, abs=1e-6)
        assert result.probs.probs[1] == pytest.approx(0.3, abs=1e-5)
        assert result.multiplier > 0.0

    def test_vacuous_uniform_costs(self):
        ch = CqChannel(orthogonal_channel(2).states, costs=[1.0, 1.0])
        result = constrained_capacity(ch, 1.0)
        assert not result.constraint_active
        assert result.capacity_bits == pytest.approx(1.0, abs=1e-6)

    def test_budget_above_threshold_is_inactive(self):
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        for budget in (0.5, 0.6):
            result = constrained_capacity(ch, budget)
            assert not result.constraint_active
            assert result.capacity_bits == pytest.approx(1.0, abs=2e-6)
            assert result.expected_cost <= budget + 1e-6

    def test_infeasible_budget_rejected(self):
        ch = orthogonal_channel(2, costs=[0.5, 1.0])
        with pytest.raises(InfeasibleCost):
            constrained_capacity(ch, 0.2)

    def test_matches_scalar_oracle_on_other_budgets(self):
        # orthogonal pure states reduce to maximizing binary entropy at the budget
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        for budget in (0.1, 0.2, 0.45):
            result = constrained_capacity(ch, budget)
            assert result.capacity_bits == pytest.approx(
                binary_entropy_bits(budget), abs=1e-5
            )

    def test_expected_cost_monotone_in_multiplier(self):
        ch = CqChannel(random_channel(3, 2, 23, "mixed").states, costs=[0.1, 1.0, 0.4])
        result = constrained_capacity(ch, 0.3)
        ordered = sorted(result.evaluations)
        for (_, cost_a), (_, cost_b) in zip(ordered, ordered[1:]):
            assert cost_b <= cost_a + 2e-6

    def test_capacity_monotone_in_budget(self):
        rng = np.random.default_rng(5)
        for i in range(5):
            ch = random_channel(3, 2, 800 + i, "mixed")
            ch = CqChannel(ch.states, rng.random(3))
            budgets = np.sort(ch.costs.min() + rng.random(2) * (ch.costs.max() - ch.costs.min()))
            low = constrained_capacity(ch, float(budgets[0]))
            high = constrained_capacity(ch, float(budgets[1]))
            assert low.capacity_bits <= high.capacity_bits + 2e-6

    def test_consistent_with_unconstrained_when_loose(self):
        ch = CqChannel(random_channel(3, 2, 29, "mixed").states, costs=[0.2, 0.8, 0.5])
        loose = constrained_capacity(ch, 10.0)
        free = unconstrained_capacity(ch)
        assert loose.capacity_bits == pytest.approx(free.capacity_bits, abs=2e-6)
        assert not loose.constraint_active

    def test_strong_duality_value(self):
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        result = constrained_capacity(ch, 0.3)
        primal = holevo_quantity(ch, result.probs) - result.multiplier * (
            result.expected_cost - 0.3
        )
        assert result.capacity_bits == pytest.approx(primal, abs=2e-6)

    def test_capacity_inside_certificate(self):
        ch = CqChannel(random_channel(3, 2, 31, "mixed").states, costs=[0.0, 1.0, 0.3])
        result = constrained_capacity(ch, 0.25)
        lower, upper = result.gap_certificate_bits
        assert lower - 1e-12 <= result.capacity_bits <= upper + 1e-12

    def test_duplicated_states_with_jumping_cost(self):
        # set-valued optimizer: the cost jumps across the budget, so the
        # result mixes the cheapest letter with the multiplier-zero optimizer
        rho = np.eye(2) / 2
        ch = CqChannel([rho, rho], costs=[0.0, 1.0])
        result = constrained_capacity(ch, 0.3, epsilon=1e-3, max_iter=5000)
        lower, upper = result.gap_certificate_bits
        assert result.constraint_active
        assert result.expected_cost <= 0.3 + 1e-3
        assert abs(result.capacity_bits) < 1e-2
        assert lower - 1e-12 <= result.capacity_bits <= upper + 1e-12


class TestCertificateRule:
    """Budgeted upper bounds are the smallest dual bound, so lambda = 0 caps them."""

    EPSILON = 1e-3

    def check(self, ch, budget, max_iter=1_000_000):
        result = constrained_capacity(ch, budget, epsilon=self.EPSILON, max_iter=max_iter)
        free = unconstrained_capacity(ch, self.EPSILON, max_iter=max_iter)
        lower, upper = result.gap_certificate_bits
        assert upper <= free.gap_certificate_bits[1] + self.EPSILON
        assert lower - 1e-12 <= result.capacity_bits <= upper + 1e-12
        return result

    def test_jumping_cost_upper_capped_by_unconstrained(self):
        rho = np.eye(2) / 2
        result = self.check(CqChannel([rho, rho], costs=[0.0, 1.0]), 0.3, max_iter=5000)
        assert result.constraint_active

    def test_uniform_costs_keep_a_tight_lower_bound(self):
        # the expected cost of a uniform-cost channel can round above that cost
        ch = CqChannel(random_channel(3, 2, 36, "mixed").states, costs=[0.1] * 3)
        for result in (unconstrained_capacity(ch), constrained_capacity(ch, 0.1)):
            lower, upper = result.gap_certificate_bits
            assert upper - lower <= 1e-6

    def test_active_budget_upper_capped_by_unconstrained(self):
        ch = CqChannel(random_channel(3, 2, 31, "mixed").states, costs=[0.0, 1.0, 0.3])
        result = self.check(ch, 0.1)
        assert result.constraint_active


class TestChordSearch:
    """The budgeted search closes its certificate at a budget-feasible mixture."""

    def test_nan_budget_rejected_before_any_solve(self, monkeypatch):
        calls = []
        solve = cqcap.capacity.solve_fixed_lambda

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cqcap.capacity, "solve_fixed_lambda", counted)
        with pytest.raises(BadParams):
            constrained_capacity(orthogonal_channel(2, costs=[0.0, 1.0]), math.nan)
        assert calls == []

    def test_cheapest_budget_with_tied_cheapest_letters(self):
        # only the two zero-cost letters fit, and together they carry one bit
        ch = orthogonal_channel(3, costs=[0.0, 0.0, 1.0])
        eps = 1e-6
        result = constrained_capacity(ch, 0.0, epsilon=eps)
        lower, upper = result.gap_certificate_bits
        assert upper - lower <= eps
        assert result.capacity_bits == pytest.approx(1.0, abs=eps)
        assert lower >= 1.0 - eps
        assert result.expected_cost == 0.0
        assert result.multiplier == math.inf

    def test_budget_just_above_tied_cheapest_letters(self):
        ch = orthogonal_channel(3, costs=[0.0, 0.0, 1.0])
        eps, budget = 1e-6, 1e-9
        # the third letter takes the whole budget; the other two share the rest
        exact = binary_entropy_bits(budget) + 1.0 - budget
        result = constrained_capacity(ch, budget, epsilon=eps)
        lower, upper = result.gap_certificate_bits
        assert lower - 1e-12 <= exact <= upper + 1e-12
        assert upper - lower <= eps
        assert result.expected_cost <= budget + 1e-12

    @pytest.mark.parametrize("seed, n, fraction", [(1, 3, 0.1), (5, 4, 0.3)])
    def test_certificate_closes_within_budget(self, seed, n, fraction):
        ch = CqChannel(random_channel(n, 2, seed, "mixed").states,
                       np.random.default_rng([seed, 1]).random(n))
        lo, hi = float(ch.costs.min()), float(ch.costs.max())
        budget = lo + fraction * (hi - lo)
        result = constrained_capacity(ch, budget, epsilon=1e-4)
        lower, upper = result.gap_certificate_bits
        assert result.constraint_active
        assert upper - lower <= 1e-4
        assert result.expected_cost <= budget + 1e-12

    def test_set_valued_optimizer_needs_no_chord_solve(self):
        rho = np.eye(2) / 2
        ch = CqChannel([rho, rho], costs=[0.0, 1.0])
        result = constrained_capacity(ch, 0.3, epsilon=1e-3, max_iter=5000)
        assert len(result.evaluations) <= 3
        assert result.expected_cost == pytest.approx(0.3, abs=1e-12)

    def test_grid_oracle_inside_certificate(self):
        rng = np.random.default_rng(44)
        for i in range(8):
            n = 2 + i % 2
            ch = CqChannel(random_channel(n, 2, 900 + i, "mixed").states, rng.random(n))
            lo, hi = float(ch.costs.min()), float(ch.costs.max())
            for fraction in (0.2, 0.5, 0.8):
                budget = lo + fraction * (hi - lo)
                result = constrained_capacity(ch, budget, epsilon=1e-5)
                lower, upper = result.gap_certificate_bits
                grid = grid_capacity(ch, GridSpec(DEFAULT_GRID_RESOLUTION[n]),
                                     cost_limit=budget)
                assert lower - grid.slack_bits <= grid.value_bits <= upper + grid.slack_bits


class TestPureStateBudgets:
    def test_tiny_letter_mass_keeps_certifying(self):
        # a positive multiplier drives letters' mass to ~1e-52; their direction
        # then falls under the mixture's eigenvalue cutoff on every later solve
        base = random_channel(4, 3, 3029, "pure")
        ch = CqChannel(list(base.states) + [base.states[0]],
                       costs=[0.878, 0.523, 0.916, 0.047, 0.030])
        budget = 0.030 + 0.0179
        result = constrained_capacity(ch, budget, epsilon=1e-6)
        lower, upper = result.gap_certificate_bits
        assert upper - lower <= 1e-6
        assert result.expected_cost <= budget + 1e-12
