"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from cqcap import (
    CqChannel,
    GridSpec,
    SolverConfig,
    TerminationReason,
    ba_step,
    classical_ba,
    constrained_capacity,
    diagonal_transition_matrix,
    grid_capacity,
    independence_check,
    make_iteration_state,
    quantum_relative_entropy,
    random_channel,
    rate_diagnostics,
    relative_entropy_nats,
    solve_fixed_lambda,
    trace_product,
    unconstrained_capacity,
)
from cqcap.channel import kl_divergence_bits, output_state
from helpers import (
    BUDGET_CAPACITY,
    NONORTH_PAIR_CAPACITY,
    nonorthogonal_pair_channel,
    orthogonal_channel,
    random_density_matrix,
    random_simplex_point,
)


def check(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def traced_runs():
    """100 random channels solved at the default gap, with traces."""
    runs = []
    kinds = ("pure", "mixed", "diagonal")
    for i in range(100):
        n = 2 + i % 3
        m = 2 + (i // 3) % 3
        ch = random_channel(n, m, 10_000 + i, kinds[i % 3])
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-6))
        runs.append((ch, res, trace))
    return runs


@pytest.fixture(scope="module")
def independent_runs():
    """25 random channels passing the independence check, solved with traces."""
    runs = []
    seed = 0
    while len(runs) < 25:
        n = 2 + len(runs) % 3
        ch = random_channel(n, 2 if n <= 4 else 3, 20_000 + seed, "mixed")
        seed += 1
        if not independence_check(ch).independent:
            continue
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-6))
        runs.append((ch, res, trace))
    return runs


def test_criterion_01_orthogonal_embeddings():
    worst = 0.0
    slowest = 0.0
    for n in (2, 4, 8):
        started = time.perf_counter()
        result = unconstrained_capacity(orthogonal_channel(n), epsilon=1e-6)
        elapsed = time.perf_counter() - started
        worst = max(worst, abs(result.capacity_bits - math.log2(n)))
        slowest = max(slowest, elapsed)
    check(1, "orthogonal pure states reach log2(n) within 1e-6 in under 1 s",
          worst <= 1e-6 and slowest < 1.0,
          f"max error {worst:.2e}, max time {slowest:.3f}s")


def test_criterion_02_classical_cross_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        ch = random_channel(n, m, int(rng.integers(1 << 31)), "diagonal")
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        reference = classical_ba(diagonal_transition_matrix(ch), epsilon=1e-8)
        worst = max(worst, abs(res.value_bits - reference))
    check(2, "50 diagonal channels match the classical reference within 1e-6",
          worst <= 1e-6, f"max mismatch {worst:.2e}")


def test_criterion_03_nonorthogonal_pure_pair():
    ch = nonorthogonal_pair_channel()
    result = unconstrained_capacity(ch, epsilon=1e-6)
    grid = grid_capacity(ch, GridSpec(1000))
    err_closed = abs(result.capacity_bits - NONORTH_PAIR_CAPACITY)
    err_grid = abs(result.capacity_bits - grid.value_bits)
    check(3, "pure qubit pair capacity hits 0.600876 within 1e-5 (grid and closed form)",
          err_closed <= 1e-5 and err_grid <= 1e-5,
          f"closed-form error {err_closed:.2e}, grid error {err_grid:.2e}")


def test_criterion_04_grid_oracle_containment():
    violations = 0
    for i in range(25):
        n = 2 + i % 2
        m = 2 + i % 2
        ch = random_channel(n, m, 30_000 + i, "mixed")
        res, _ = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-6))
        grid = grid_capacity(ch, GridSpec(1000 if n == 2 else 200))
        inside = (res.lower_bits - grid.slack_bits
                  <= grid.value_bits
                  <= res.upper_bits + grid.slack_bits)
        violations += 0 if inside else 1
    check(4, "solver certificates contain the grid value within its slack on 25 channels",
          violations == 0, f"{violations} violations")


def test_criterion_05_monotone_ascent(traced_runs):
    violations = 0
    for _, _, trace in traced_runs:
        values = trace.objective_bits
        if any(b < a - 1e-10 for a, b in zip(values, values[1:])):
            violations += 1
    check(5, "every recorded objective trace is non-decreasing within 1e-10 over 100 channels",
          violations == 0, f"{violations} violations")


def test_criterion_06_sublinear_rate(traced_runs, independent_runs):
    violations = 0
    total = 0
    for _, res, trace in list(traced_runs) + list(independent_runs):
        total += 1
        if not rate_diagnostics(trace, res.probs).sublinear_ok:
            violations += 1
    check(6, "remaining gap stays below log2(n)/t on every traced run",
          violations == 0, f"{violations} violations over {total} runs")


def test_criterion_07_geometric_tail(independent_runs):
    worst = 0.0
    violations = 0
    for _, res, trace in independent_runs:
        tail = rate_diagnostics(trace, res.probs).geometric_ratio_tail
        worst = max(worst, tail)
        if not tail < 1.0:
            violations += 1
    check(7, "divergence-to-optimum tail contracts strictly on 25 independent channels",
          violations == 0, f"largest tail ratio {worst:.6f}")


def criterion_02_channels():
    """The 50 diagonal channels of criterion 02, drawn the same way."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        yield random_channel(n, m, int(rng.integers(1 << 31)), "diagonal")


def test_returned_distribution_carries_the_certificate(traced_runs):
    # the solver may step off the plain update, but the distribution it
    # returns is the plain update of the last state, whose value is at least
    # that state's step value
    runs = [(ch, res, trace, 1e-6) for ch, res, trace in traced_runs]
    for ch in criterion_02_channels():
        res, trace = solve_fixed_lambda(ch, SolverConfig(epsilon=1e-8))
        runs.append((ch, res, trace, 1e-8))
    for ch, res, trace, eps in runs:
        assert res.value_bits >= res.lower_bits - 1e-12
        assert all(float(iterate.min()) > 0.0 for iterate in trace.iterates)
        assert float(res.probs.probs.min()) > 0.0
        if res.termination is TerminationReason.GAP_REACHED:
            result = unconstrained_capacity(ch, epsilon=eps)
            assert result.gap_certificate_bits[1] - result.capacity_bits <= eps


def test_criterion_08_quadratic_lower_bound():
    rng = np.random.default_rng(808)
    violations = 0
    for i in range(1000):
        m = 2 + i % 3
        rho = random_density_matrix(rng, m)
        sigma = random_density_matrix(rng, m)
        diff = rho.matrix - sigma.matrix
        quadratic = 0.5 * trace_product(diff, diff).real
        if relative_entropy_nats(rho, sigma) < quadratic - 1e-12:
            violations += 1
    check(8, "relative entropy dominates half the squared trace distance on 1000 pairs",
          violations == 0, f"{violations} violations")


def test_criterion_09_mixing_chain():
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 4))
        p = random_simplex_point(rng, n, floor=0.01)
        q = random_simplex_point(rng, n, floor=0.01)
        rhos = [random_density_matrix(rng, m) for _ in range(n)]
        sigmas = [random_density_matrix(rng, m) for _ in range(n)]
        lhs = kl_divergence_bits(p, q) + sum(
            p[x] * quantum_relative_entropy(rhos[x], sigmas[x]) for x in range(n)
        )
        rho_bar = output_state(CqChannel(rhos), p)
        sigma_bar = output_state(CqChannel(sigmas), q)
        if lhs < quantum_relative_entropy(rho_bar, sigma_bar) - 1e-9:
            violations += 1
    check(9, "classical-plus-letter divergences dominate the mixture divergence on 500 pairs",
          violations == 0, f"{violations} violations")


def test_criterion_10_cost_constraint_end_to_end():
    ch = orthogonal_channel(2, costs=[0.0, 1.0])
    result = constrained_capacity(ch, 0.3, epsilon=1e-6)
    err_value = abs(result.capacity_bits - BUDGET_CAPACITY)
    err_cost = abs(result.expected_cost - 0.3)
    ordered = sorted(result.evaluations)
    monotone = all(
        later <= earlier + 2e-6
        for (_, earlier), (_, later) in zip(ordered, ordered[1:])
    )
    check(10, "budgeted orthogonal pair reaches H_b(0.3) with cost 0.3 and monotone costs",
          err_value <= 1e-5 and err_cost <= 1e-6 and monotone,
          f"value error {err_value:.2e}, cost error {err_cost:.2e}, monotone={monotone}")


def test_criterion_11_inactive_budget():
    ch = orthogonal_channel(2, costs=[0.0, 1.0])
    free = unconstrained_capacity(ch, epsilon=1e-6)
    ok = True
    worst = 0.0
    for budget in (0.5, 0.6):
        result = constrained_capacity(ch, budget, epsilon=1e-6)
        worst = max(worst, abs(result.capacity_bits - free.capacity_bits))
        ok = ok and not result.constraint_active
    check(11, "budgets at or above the unconstrained cost stay inactive within 2e-6",
          ok and worst <= 2e-6, f"max deviation {worst:.2e}")


def test_criterion_12_cubic_scaling():
    dims = (4, 8, 16, 32)
    timings = []
    for m in dims:
        ch = random_channel(4, m, 777, "mixed")
        state = make_iteration_state(ch, np.full(4, 0.25))
        reps = max(10, int(5e5 / m**3))
        best = math.inf
        for _ in range(3):
            current = state
            started = time.perf_counter()
            for _ in range(reps):
                current, _ = ba_step(ch, 0.0, current)
            best = min(best, (time.perf_counter() - started) / reps)
        timings.append(best)
    slope = float(np.polyfit(np.log(dims), np.log(timings), 1)[0])
    check(12, "per-iteration time grows no worse than cubically in the output dimension",
          slope <= 3.5, f"log-log slope {slope:.2f}")
