import dataclasses
import math

import numpy as np
import pytest

import cqcap.capacity
import cqcap.solver
from cqcap import (
    CapacityResult,
    CqChannel,
    GridSpec,
    SolverConfig,
    constrained_capacity,
    grid_capacity,
    holevo_quantity,
    random_channel,
    solve_fixed_lambda,
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
        # distribution, so a capacity takes the one Holevo value of its solve
        calls = []
        holevo = cqcap.solver.holevo_quantity
        monkeypatch.setattr(cqcap.solver, "holevo_quantity",
                            lambda *args: calls.append(args) or holevo(*args))
        for kind in ("pure", "mixed", "diagonal"):
            ch = CqChannel(random_channel(4, 3, 23, kind).states, [0.0, 1.0, 0.4, 2.0])
            for solve in (unconstrained_capacity, lambda ch: constrained_capacity(ch, 2.0),
                          lambda ch: constrained_capacity(ch, math.inf)):
                calls.clear()
                result = solve(ch)
                assert len(calls) == 1
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
        # the unconstrained optimizer costs 0.247, so the budget binds
        ch = CqChannel(random_channel(3, 2, 23, "mixed").states, costs=[0.1, 1.0, 0.4])
        result = constrained_capacity(ch, 0.2)
        mu = result.multiplier
        assert result.constraint_active and 0.0 < mu < math.inf
        costs = [solve_fixed_lambda(ch, SolverConfig(multiplier=lam))[0].expected_cost
                 for lam in (0.0, mu / 2, mu, 2 * mu)]
        for cost_a, cost_b in zip(costs, costs[1:]):
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
    """The budgeted solve closes its certificate at a budget-feasible distribution."""

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

    @pytest.mark.parametrize("kwargs", [{"epsilon": 0.0}, {"epsilon": math.nan},
                                        {"max_iter": 0}],
                             ids=["eps-zero", "eps-nan", "max-iter-zero"])
    def test_bad_solve_parameters_rejected_before_any_solve(self, monkeypatch, kwargs):
        calls = []
        monkeypatch.setattr(cqcap.capacity, "solve_fixed_lambda",
                            lambda *args, **kw: calls.append(1))
        ch = orthogonal_channel(2, costs=[0.0, 1.0])
        for budget in (0.5, math.inf):
            with pytest.raises(BadParams) as raised:
                constrained_capacity(ch, budget, **kwargs)
            # also a ValueError, so a caller that catches one still does
            assert isinstance(raised.value, ValueError)
        with pytest.raises(BadParams):
            unconstrained_capacity(ch, **kwargs)
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

    def test_set_valued_optimizer_needs_no_chord_solve(self, monkeypatch):
        calls = []
        solve = cqcap.capacity.solve_fixed_lambda
        monkeypatch.setattr(cqcap.capacity, "solve_fixed_lambda",
                            lambda *args, **kw: calls.append(1) or solve(*args, **kw))
        rho = np.eye(2) / 2
        ch = CqChannel([rho, rho], costs=[0.0, 1.0])
        result = constrained_capacity(ch, 0.3, epsilon=1e-3, max_iter=5000)
        assert len(calls) == 1
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


class TestUnconstrainedIsInfiniteBudget:
    @staticmethod
    def channels():
        for kind in ("pure", "mixed", "diagonal"):
            yield CqChannel(random_channel(4, 3, 61, kind).states, [0.3, 1.0, 0.4, 2.0])

    def test_budgets_that_cannot_bind_match_field_by_field(self):
        for ch in self.channels():
            free = unconstrained_capacity(ch)
            for budget in (float(ch.costs.max()), 10.0, math.inf):
                loose = constrained_capacity(ch, budget)
                assert loose.capacity_bits == free.capacity_bits
                assert loose.gap_certificate_bits == free.gap_certificate_bits
                assert np.array_equal(loose.probs.probs, free.probs.probs)
                assert loose.multiplier == free.multiplier
                assert loose.expected_cost == free.expected_cost
                assert loose.termination is free.termination
                assert len(loose.trace) == len(free.trace)

    def test_each_budget_takes_one_solve_at_epsilon(self, monkeypatch):
        # the budget is met inside the solver's step, so no budget above the
        # cheapest cost needs a second solve or a tighter inner epsilon
        seen = []
        solve = cqcap.capacity.solve_fixed_lambda
        monkeypatch.setattr(cqcap.capacity, "solve_fixed_lambda",
                            lambda ch, config, **kw: seen.append(config.epsilon)
                            or solve(ch, config, **kw))
        eps = 1e-5
        for ch in self.channels():
            for budget in (float(ch.costs.max()), 10.0, math.inf, 0.5, 0.3 + 1e-9):
                seen.clear()
                result = constrained_capacity(ch, budget, epsilon=eps)
                assert seen == [eps]
                assert result.certified
            assert result.constraint_active
            seen.clear()
            unconstrained_capacity(ch, epsilon=eps)
            assert seen == [eps]


class TestOneResult:
    """``constrained_capacity`` returns the solver's own result, unchanged."""

    @pytest.mark.parametrize("budget, multiplier", [
        (0.5, "finite"),
        (math.inf, "zero"),
        (0.3, "inf"),
    ], ids=["binding", "infinite-budget", "infinite-tilt"])
    def test_matches_the_solve_field_by_field(self, budget, multiplier):
        for ch in TestUnconstrainedIsInfiniteBudget.channels():
            result = constrained_capacity(ch, budget)
            solved = solve_fixed_lambda(ch, SolverConfig(cost_limit=budget))[0]
            for f in dataclasses.fields(CapacityResult):
                mine, theirs = getattr(result, f.name), getattr(solved, f.name)
                if f.name == "probs":
                    assert np.array_equal(mine.probs, theirs.probs)
                elif f.name == "trace":
                    assert mine.objective_bits == theirs.objective_bits
                    assert mine.upper_bits == theirs.upper_bits
                    assert len(mine.iterates) == len(theirs.iterates)
                    assert all(map(np.array_equal, mine.iterates, theirs.iterates))
                else:
                    assert mine == theirs, f.name
            lower, upper = result.gap_certificate_bits
            assert lower == result.capacity_bits
            assert result.certified == (upper - result.capacity_bits <= 1e-6)
            assert result.constraint_active == (multiplier != "zero")
            assert {"finite": 0.0 < result.multiplier < math.inf,
                    "zero": result.multiplier == 0.0,
                    "inf": result.multiplier == math.inf}[multiplier]


def _edge_channel(costs):
    return CqChannel(random_channel(3, 2, 1, "mixed").states, costs)


class TestBudgetEdgeCases:
    """Budgets at and just above the cheapest cost, tied and zero costs, a wide cost span."""

    @pytest.mark.parametrize("costs, budget", [
        ([0.2, 0.7, 1.0], 0.2 + 1e-9 * 0.8),
        ([0.2, 0.7, 1.0], 0.2 + 1e-6 * 0.8),
        ([0.2, 0.7, 1.0], 0.2 + 1e-3 * 0.8),
        ([0.5, 0.5, 1.0], 0.7),
        ([0.5, 1.0, 1.0], 0.6),
        ([0.0, 1.0, 0.6], 0.3),
        ([0.2, 0.7, 1.0], 0.2),
        ([0.0, 0.0, 1.0], 0.0),
        # the tilt times the costs must not overflow
        ([0.0, 1e10, 2e10], 1e-9 * 2e10),
    ], ids=["headroom-1e-9", "headroom-1e-6", "headroom-1e-3", "tied-cheapest",
            "tied-costliest", "zero-cost", "at-cheapest", "at-tied-cheapest", "span-1e10"])
    def test_certifies_in_one_solve(self, monkeypatch, costs, budget):
        calls = []
        solve = cqcap.capacity.solve_fixed_lambda
        monkeypatch.setattr(cqcap.capacity, "solve_fixed_lambda",
                            lambda *args, **kw: calls.append(1) or solve(*args, **kw))
        ch = _edge_channel(costs)
        eps = 1e-6
        result = constrained_capacity(ch, budget, epsilon=eps)
        lower, upper = result.gap_certificate_bits
        assert result.certified and upper - lower <= eps
        assert result.expected_cost <= budget + 1e-12
        grid = grid_capacity(ch, GridSpec(DEFAULT_GRID_RESOLUTION[3]), cost_limit=budget)
        assert lower - grid.slack_bits <= grid.value_bits <= upper + grid.slack_bits
        assert len(calls) == 1

    def test_headroom_below_the_floored_update_certifies(self):
        # the costlier letters could carry at most 1e-300 of mass, which the
        # solver's floored update cannot resolve; the cheapest letter's own
        # capacity, widened by what that mass can add, certifies instead
        ch = _edge_channel([0.0, 1.0, 2.0])
        alone = constrained_capacity(ch, 0.0)
        result = constrained_capacity(ch, 1e-300)
        assert result.certified
        assert result.capacity_bits == alone.capacity_bits
        assert alone.gap_certificate_bits[1] < result.gap_certificate_bits[1] < 1e-290

    @pytest.mark.parametrize("cheapest", [0.1, 0.3, 0.7, 1 / 3])
    def test_cost_at_a_tied_cheapest_budget_stays_within_it(self, cheapest):
        # the reported cost is the cheapest cost plus the shifted cost the tilt
        # meets, so weights that sum to 1 +- an ulp cannot round it over S
        for seed in range(40):
            states = random_channel(4, 2, seed, "mixed").states
            ch = CqChannel(states, [cheapest, cheapest, cheapest, 1.0])
            assert constrained_capacity(ch, cheapest).expected_cost <= cheapest
