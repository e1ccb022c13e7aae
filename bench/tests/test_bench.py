"""Tests of the benchmark's own code: percentiles, span arithmetic, wrappers, references.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cqcap  # noqa: E402
import cqcap.solver  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestNearestRank:
    def test_picks_a_member(self):
        assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
        assert run.nearest_rank(list(range(1, 11)), 90) == 9
        assert run.nearest_rank(list(range(1, 101)), 90) == 90
        assert run.nearest_rank([7.0], 90) == 7.0

    def test_failures_sort_last_and_never_nan(self):
        values = [1.0] * 8 + [math.inf] * 2
        assert run.nearest_rank(values, 50) == 1.0
        assert run.nearest_rank(values, 90) == math.inf
        assert run.nearest_rank([math.inf] * 3, 50) == math.inf

    def test_ten_samples_beyond_p90_at_100_solves(self):
        values = list(range(100))
        p90 = run.nearest_rank(values, 90)
        assert sum(1 for v in values if v > p90) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run.nearest_rank([], 50)


def test_end_to_end_counts_failures_as_infinite():
    ok = run.Outcome(0.2, 0.001, "ok", None, ((100, "gap_reached", 100),))
    failed = run.Outcome(0.5, 0.001, "NumericalBreakdown", None, ((None, "error", 0),))
    metrics = run.end_to_end([[ok], [failed]], [50, None], (0.1, 0.2), 50.0)
    # 200 reference steps' time over 50 steps of reference work
    assert metrics["solve_rel_p50"][0] == pytest.approx(4.0)
    assert metrics["step_rel"][0] == pytest.approx(2.0)
    assert metrics["solve_ms_p50"][0] == pytest.approx(200.0)
    assert metrics["solve_ms_p90"][0] == math.inf
    assert metrics["iters_p90"][0] == math.inf
    assert metrics["fail_frac"][0] == 0.5
    assert metrics["setup_s"][0] == 0.1


def test_fewer_iterations_lower_solve_rel():
    slow = run.Outcome(0.2, 0.001, "ok", None, ((100, "gap_reached", 100),))
    fast = run.Outcome(0.1, 0.001, "ok", None, ((40, "gap_reached", 40),))
    before = run.end_to_end([[slow]], [100], (0.1, 0.1), 1.0)
    after = run.end_to_end([[fast]], [100], (0.1, 0.1), 1.0)
    assert after["solve_rel_p50"][0] < before["solve_rel_p50"][0]
    # the per-step price rises, since fixed costs spread over fewer steps
    assert after["step_rel"][0] > before["step_rel"][0]


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ok = run.Outcome(0.2, 0.001, "ok", None, ((100, "gap_reached", 100),))
    metrics = run.end_to_end([[ok]], [100], (0.1, 0.1), 1.0)
    assert {m["name"] for m in spec["end_to_end"]} <= set(metrics)
    for m in spec["end_to_end"]:
        assert m["unit"] == metrics[m["name"]][1]
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


class _Inner:
    def __init__(self, records):
        self.records = records

    def take(self):
        return self.records


class _Budgeted:
    cases = 1
    entry_span = "cli.main"
    epsilon = 1e-4

    def solve(self, cqcap, built, i):
        return None

    def answer(self, raw):
        return workloads.Answer(1.0, 1.0, 1.0, "gap_reached", (1.0,), 0.0)


def test_earlier_inner_solve_that_stalls_fails_the_solve():
    inner = _Inner(((10, "gap_reached", 10), (7, "stalled", 7), (12, "gap_reached", 12)))
    [outcome] = run.run_pass(_Budgeted(), cqcap, None, inner, run.ReferenceStep())
    assert outcome.status == "inner_stalled"
    inner = _Inner(((10, "gap_reached", 10), (12, "gap_reached", 12)))
    [outcome] = run.run_pass(_Budgeted(), cqcap, None, inner, run.ReferenceStep())
    assert outcome.status == "ok"


def test_reference_step_takes_measurable_time():
    assert 0.0 < run.ReferenceStep().seconds() < 0.1


class TestSelfTime:
    def test_synthetic_tree(self):
        # a[0,100] holds b[10,30] and c[40,90]; c holds b[50,60]
        name = [0, 1, 2, 1]
        parent = [-1, 0, 0, 2]
        start = [0, 10, 40, 50]
        end = [100, 30, 90, 60]
        calls, total, own = tracing.layer_times(name, parent, start, end, 3)
        assert calls.tolist() == [1, 2, 1]
        assert np.allclose(total * 1e9, [100, 30, 50])
        assert np.allclose(own * 1e9, [30, 30, 40])
        assert math.isclose(own.sum() * 1e9, 100)

    def test_mask_keeps_self_times_of_kept_spans(self):
        keep = np.array([False, True, True, True])
        calls, _, own = tracing.layer_times([0, 1, 2, 1], [-1, 0, 0, 2],
                                            [0, 10, 40, 50], [100, 30, 90, 60], 3, keep)
        assert calls.tolist() == [0, 2, 1]
        assert np.allclose(own * 1e9, [0, 30, 40])

    def test_recorded_tree_adds_up(self):
        tracer = tracing.Tracer()

        def leaf(x):
            return x + 1

        traced_leaf = tracer.wrap(leaf, "m.leaf")

        def node(x):
            return traced_leaf(traced_leaf(x))

        traced_node = tracer.wrap(node, "m.node")
        with tracer.span("m.root"):
            assert traced_node(1) == 3
        spans = tracer.arrays()
        assert spans["parent"].tolist() == [-1, 0, 1, 1]
        summary = tracer.summary()
        assert summary["m.leaf"]["calls"] == 2
        root = summary["m.root"]["total_s"]
        assert math.isclose(sum(s["self_s"] for s in summary.values()), root, rel_tol=1e-9)
        assert all(s["self_s"] >= 0 for s in summary.values())


class TestBindings:
    def test_missing_binding_reports_zero_calls(self):
        tracer = tracing.Tracer()
        original = cqcap.solver.ba_step
        bindings = tracing.BINDINGS + (("cqcap.solver", "removed_function", "solver.removed"),)
        missing = tracer.install(bindings)
        try:
            assert missing == ["cqcap.solver.removed_function"]
            assert cqcap.solver.ba_step is not original
            cqcap.unconstrained_capacity(cqcap.CqChannel([np.eye(2) / 2, np.diag([1.0, 0.0])]))
        finally:
            tracer.uninstall()
        assert cqcap.solver.ba_step is original
        summary = tracer.summary()
        assert summary["solver.removed"]["calls"] == 0
        assert summary["solver.ba_step"]["calls"] > 0

    def test_inner_solves_count_iterations(self):
        ch = cqcap.CqChannel([np.diag([0.9, 0.1]), np.diag([0.2, 0.8])])
        inner = tracing.InnerSolves(cqcap.capacity)
        try:
            res = cqcap.unconstrained_capacity(ch, epsilon=1e-9)
        finally:
            inner.close()
        records = inner.take()
        assert [it for it, _, _ in records] == [len(res.trace)]
        assert records[0][1] == res.termination.value


def _passes(workload, tmp_path):
    built = workload.build(cqcap, str(tmp_path))
    workload.prepare(cqcap, built)
    inner = tracing.InnerSolves(cqcap.capacity)
    tracer = tracing.Tracer()
    try:
        reference = run.ReferenceStep()
        untraced = run.run_pass(workload, cqcap, built, inner, reference)
        tracer.install()
        try:
            traced = run.run_pass(workload, cqcap, built, inner, reference, tracer)
        finally:
            tracer.uninstall()
    finally:
        inner.close()
    return untraced, traced, tracer


@pytest.mark.parametrize("make", [
    lambda: workloads.DiagSweep(2024, count=4),
    lambda: workloads.FockCoherent(3, count=4),
    lambda: workloads.BudgetCli(5, channels=1),
], ids=["diag-sweep", "fock-coherent", "budget-cli"])
def test_wrappers_pass_results_through_bit_identically(make, tmp_path):
    untraced, traced, tracer = _passes(make(), tmp_path)
    assert len(untraced) == len(traced) > 0
    for a, b in zip(untraced, traced):
        assert a.same_result(b)
        assert a.iterations == b.iterations
        if a.answer is not None:
            assert a.answer.capacity == b.answer.capacity
    assert len(tracer.start) > 0


def test_diag_sweep_draws_criterion_02_channels():
    rng = np.random.default_rng(2024)
    sweep = workloads.DiagSweep(2024, count=5)
    built = sweep.build(cqcap, None)
    for ch in built:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        reference = cqcap.random_channel(n, m, int(rng.integers(1 << 31)), "diagonal")
        assert np.array_equal(ch.state_stack, reference.state_stack)


class TestGramReference:
    @pytest.mark.parametrize("n, m", [(3, 3), (3, 5), (4, 4)])
    def test_matches_holevo_and_upper_bound(self, n, m):
        rng = np.random.default_rng(11 + n + m)
        kets = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        ch = cqcap.CqChannel([np.outer(v, v.conj()) for v in kets])
        p = rng.random(n) + 0.2
        p /= p.sum()
        chi, bound = workloads.gram_bounds_bits(kets, p)
        state = cqcap.make_iteration_state(ch, p)
        assert abs(chi - cqcap.holevo_quantity(ch, p)) <= 1e-9
        assert abs(bound - cqcap.upper_bound(ch, 0.0, state)) <= 1e-9

    def test_coherent_ket_is_normalised(self):
        ket = workloads.coherent_ket(1.5 * np.exp(0.3j))
        assert ket.shape == (workloads.FOCK_DIM,)
        assert math.isclose(np.linalg.norm(ket), 1.0, rel_tol=1e-12)
        # mean photon number of a barely truncated coherent state is |alpha|^2
        assert math.isclose(float(np.arange(ket.size) @ np.abs(ket) ** 2), 2.25, rel_tol=1e-9)


class TestReferenceSolver:
    """The plain solver must do the work the seed commit's solver does."""

    def test_classical_work_matches_cqcap_iterations(self):
        sweep = workloads.DiagSweep(2024, count=6)
        built = sweep.build(cqcap, None)
        for i, ch in enumerate(built):
            res = cqcap.unconstrained_capacity(ch, epsilon=sweep.epsilon)
            if res.termination.value == "gap_reached":
                iterations = len(res.trace) + reference.SOLVE_OVERHEAD_STEPS
                assert abs(sweep.reference_work(i) - iterations) <= 0.2 * iterations

    def test_divergences_match_cqcap_upper_bound(self):
        rng = np.random.default_rng(7)
        kets = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        ch = cqcap.CqChannel([np.outer(v, v.conj()) for v in kets])
        p = np.array([0.5, 0.3, 0.2])
        bound = cqcap.upper_bound(ch, 0.0, cqcap.make_iteration_state(ch, p))
        mixed = reference.mixed_divergences(ch.state_stack)(p)
        pure = reference.pure_divergences(kets)(p)
        assert abs(mixed.max() / reference.LN2 - bound) <= 1e-9
        assert np.allclose(pure, mixed, atol=1e-9)

    def test_budgeted_search_counts_every_inner_solve(self, tmp_path):
        budget = workloads.BudgetCli(5, channels=1)
        built = budget.build(cqcap, str(tmp_path))
        budget.prepare(cqcap, built)
        inner = tracing.InnerSolves(cqcap.capacity)
        try:
            cqcap.constrained_capacity(built[0], budget.budgets[0][0], epsilon=budget.epsilon,
                                       max_iter=workloads.MAX_ITER)
        finally:
            inner.close()
        records = inner.take()
        iterations = sum(it for it, _, _ in records) + reference.SOLVE_OVERHEAD_STEPS * len(records)
        assert abs(budget.reference_work(0) - iterations) <= 0.2 * iterations
