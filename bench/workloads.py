"""The benchmark's workloads: seeded inputs, set-up, one solve, and its oracle check.

Inputs are generated here from the seed alone; cqcap only ever sees the
generated matrices, kets and channel files. Oracle checks run outside every
timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference

LN2 = math.log(2.0)
# Iteration cap per inner solve. At ~170 us per step it keeps one solve near
# half a minute; a solve that reaches it counts as failed, it is not dropped.
MAX_ITER = 200_000


@dataclass(frozen=True)
class Answer:
    """What one solve returned, with the solver trace already dropped."""

    capacity: float
    lower: float
    upper: float
    termination: str
    probs: tuple
    expected_cost: float
    trace_csv_bytes: int = 0


def no_span(name):
    return contextlib.nullcontext()


def _unconstrained(cqcap, ch, epsilon):
    return cqcap.unconstrained_capacity(ch, epsilon=epsilon, max_iter=MAX_ITER)


def _answer(res) -> Answer:
    lower, upper = res.gap_certificate_bits
    return Answer(res.capacity_bits, lower, upper, res.termination.value,
                  tuple(res.probs.probs), res.expected_cost)


class DiagSweep:
    name = "diag-sweep"
    why = ("classical channels up to 8x8: per-step Python and validation cost "
           "dominates, the kernel-projector path is bypassed, slow boundary optima")
    entry_span = "capacity.unconstrained_capacity"
    epsilon = 1e-8
    tolerance = 2 * epsilon + 1e-12

    def __init__(self, seed: int, count: int = 100):
        # drawn as acceptance criterion 02 draws them: at seed 2024 the first
        # 50 transition matrices are that criterion's channels
        rng = np.random.default_rng(seed)
        self.transitions = []
        for _ in range(count):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            rows = np.random.default_rng(int(rng.integers(1 << 31))).random((n, m))
            self.transitions.append(rows / rows.sum(axis=1, keepdims=True))

    @property
    def cases(self) -> int:
        return len(self.transitions)

    def build(self, cqcap, workdir, span=no_span):
        built = []
        for w in self.transitions:
            with span("channel.CqChannel"):
                built.append(cqcap.CqChannel([np.diag(row).astype(complex) for row in w]))
        return built

    def prepare(self, cqcap, built) -> None:
        pass

    def solve(self, cqcap, built, i):
        return _unconstrained(cqcap, built[i], self.epsilon)

    def answer(self, raw) -> Answer:
        return _answer(raw)

    def reference_work(self, i) -> int:
        w = self.transitions[i]
        return reference.unconstrained_work(
            reference.classical_divergences(w), w.shape[0], self.epsilon, MAX_ITER)

    def check(self, cqcap, built, answers) -> dict[int, str]:
        """Each capacity must lie within 2 eps of the classical reference."""
        bad = {}
        for i, ans in answers.items():
            ref = cqcap.classical_ba(self.transitions[i], epsilon=self.epsilon)
            if abs(ans.capacity - ref) > self.tolerance:
                bad[i] = f"capacity {ans.capacity!r} vs classical {ref!r}"
        return bad


FOCK_DIM = 32


def coherent_ket(alpha: complex, dim: int = FOCK_DIM) -> np.ndarray:
    """Coherent state |alpha> truncated to ``dim`` Fock levels and renormalised."""
    k = np.arange(dim)
    log_mag = k * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(j + 1.0) for j in k])
    ket = np.exp(log_mag - log_mag.max()) * np.exp(1j * k * np.angle(alpha))
    return ket / np.linalg.norm(ket)


def gram_bounds_bits(kets: np.ndarray, probs) -> tuple[float, float]:
    """Holevo value and max-divergence bound of a pure-state ensemble, in bits.

    Works on the n x n Gram matrix G_xy = <psi_x|psi_y> and never forms the
    output state: the nonzero spectrum of sum_x p_x |psi_x><psi_x| is that of
    sqrt(P) G sqrt(P) = Q diag(lam) Q^H, and <psi_x|u_k> = (G sqrt(P) q_k)_x /
    sqrt(lam_k) for its eigenvectors u_k. So chi(p) = S(sqrt(P) G sqrt(P)) and
    D(psi_x || sigma_p) = -sum_k |<psi_x|u_k>|^2 log lam_k. Requires p > 0.
    """
    kets = np.asarray(kets)
    root = np.sqrt(np.asarray(probs, dtype=float))
    gram = kets.conj() @ kets.T
    lam, q = np.linalg.eigh(root[:, None] * gram * root[None, :])
    keep = lam > lam.max() * 1e-15
    lam, q = lam[keep], q[:, keep]
    chi = float(-(lam * np.log(lam)).sum())
    overlaps = np.abs(gram @ (root[:, None] * q)) ** 2 / lam
    divergence = -(overlaps * np.log(lam)).sum(axis=1)
    return chi / LN2, float(divergence.max()) / LN2


class FockCoherent:
    name = "fock-coherent"
    why = ("nearly dependent coherent states in 32 Fock levels: rank-deficient "
           "mixtures run eigh, log and the kernel projector every step")
    entry_span = "capacity.unconstrained_capacity"
    epsilon = 1e-6
    # float64 spectra of the 32x32 mixture and the n x n Gram form agree to
    # ~1e-12 bits; 1e-9 leaves room for rank-deficient mixtures
    tolerance = 1e-9

    def __init__(self, seed: int, count: int = 200):
        rng = np.random.default_rng(seed)
        self.kets, self.costs = [], []
        for i in range(count):
            n = 4 * (1 + i % 4)
            alphas = rng.uniform(0.5, 3.0, n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
            self.kets.append(np.array([coherent_ket(a) for a in alphas]))
            self.costs.append(np.abs(alphas) ** 2)

    @property
    def cases(self) -> int:
        return len(self.kets)

    def build(self, cqcap, workdir, span=no_span):
        built = []
        for kets, costs in zip(self.kets, self.costs):
            with span("channel.CqChannel"):
                built.append(cqcap.CqChannel([np.outer(v, v.conj()) for v in kets], costs))
        return built

    def prepare(self, cqcap, built) -> None:
        pass

    def solve(self, cqcap, built, i):
        return _unconstrained(cqcap, built[i], self.epsilon)

    def answer(self, raw) -> Answer:
        return _answer(raw)

    def reference_work(self, i) -> int:
        kets = self.kets[i]
        return reference.unconstrained_work(
            reference.pure_divergences(kets), len(kets), self.epsilon, MAX_ITER)

    def check(self, cqcap, built, answers) -> dict[int, str]:
        """The certificate must overlap the Gram-form bounds at the returned p.

        chi(p) <= C <= max_x D(psi_x || sigma_p) holds at any p, so the
        solver's [lower, upper] must meet that interval, and its capacity
        must lie inside it.
        """
        bad = {}
        for i, ans in answers.items():
            chi, bound = gram_bounds_bits(self.kets[i], ans.probs)
            tol = self.tolerance
            if not (ans.lower <= bound + tol and chi <= ans.upper + tol
                    and chi - tol <= ans.capacity <= bound + tol):
                bad[i] = (f"certificate [{ans.lower!r}, {ans.upper!r}] capacity "
                          f"{ans.capacity!r} vs Gram form [{chi!r}, {bound!r}]")
        return bad


class BudgetCli:
    name = "budget-cli"
    why = ("cqcap capacity --cost-limit on generated mixed-state files: file IO, "
           "JSON report, trace CSV, multiplier doubling and bisection, warm starts")
    entry_span = "cli.main"
    # 100x the CLI default: at 1e-6 one run's set-valued channels alone can
    # take minutes; at 1e-4 they still run up to 42 outer solves
    epsilon = 1e-4
    budgets_per_channel = 6
    # every run holds each (n, m) shape equally often; the set-valued
    # optimizers that dominate run time come mostly from n=4, m=2
    shapes = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4))

    def __init__(self, seed: int, channels: int = 18):
        rng = np.random.default_rng(seed)
        self.specs = [self.shapes[j % len(self.shapes)] + (int(rng.integers(1 << 31)),)
                      for j in range(channels)]
        self.paths: list[str] = []
        self.budgets: list[list[float]] = []
        self.trace_path = ""

    @property
    def cases(self) -> int:
        return len(self.specs) * self.budgets_per_channel

    def build(self, cqcap, workdir, span=no_span):
        from cqcap import cli

        self.paths = [os.path.join(workdir, f"channel{j}.json") for j in range(len(self.specs))]
        self.trace_path = os.path.join(workdir, "trace.csv")
        for (n, m, seed), path in zip(self.specs, self.paths):
            with span("cli.main"):
                code = cli.main(["gen", "--n", str(n), "--m", str(m), "--seed", str(seed),
                                 "--kind", "mixed", "--costs", "random", "--out", path])
            if code != 0:
                raise RuntimeError(f"cqcap gen exited {code} for {path}")
        built = []
        for path in self.paths:
            with span("channel.load_channel"):
                built.append(cqcap.load_channel(path))
        return built

    def prepare(self, cqcap, built) -> None:
        """Budgets from just above the cheapest letter to 1.2x the optimizer's cost.

        The optimizer's cost is read off a coarse grid-oracle argmax, so the
        budgets do not depend on the solver under test.
        """
        k = self.budgets_per_channel
        self.budgets = []
        for ch in built:
            best = cqcap.grid_capacity(ch, cqcap.GridSpec(40)).argmax.probs
            cheapest = float(ch.costs.min())
            top = 1.2 * float(ch.costs @ best)
            self.budgets.append([cheapest + (j + 1) / k * (top - cheapest) for j in range(k)])

    def solve(self, cqcap, built, i):
        from cqcap import cli

        j, k = divmod(i, self.budgets_per_channel)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["capacity", "--channel", self.paths[j],
                             "--cost-limit", repr(self.budgets[j][k]), "--eps", repr(self.epsilon),
                             "--max-iter", str(MAX_ITER), "--trace", self.trace_path])
        return code, out.getvalue(), err.getvalue()

    def answer(self, raw) -> Answer:
        code, out, err = raw
        if code != 0:
            try:
                name = json.loads(err)["error"]
            except (ValueError, KeyError, TypeError):
                name = "unknown"
            raise CliExit(f"exit_{code}:{name}")
        result = json.loads(out)["result"]
        lower, upper = result["gap_certificate_bits"]
        return Answer(result["capacity_bits"], lower, upper, result["termination"],
                      tuple(result["probs"]), result["expected_cost_units"],
                      os.path.getsize(self.trace_path))

    def reference_work(self, i) -> int:
        j, k = divmod(i, self.budgets_per_channel)
        states, costs = reference.channel_file_states(self.paths[j])
        return reference.budgeted_work(reference.mixed_divergences(states), costs,
                                       self.budgets[j][k], self.epsilon, MAX_ITER)

    def check(self, cqcap, built, answers) -> dict[int, str]:
        """Grid oracle within its slack, cost within budget, capacity monotone in S."""
        from cqcap.oracle import DEFAULT_GRID_RESOLUTION

        bad = {}
        cost_tol = max(1e-8, self.epsilon)
        previous: dict[int, Answer] = {}
        for i in sorted(answers):
            ans = answers[i]
            j, k = divmod(i, self.budgets_per_channel)
            ch, budget = built[j], self.budgets[j][k]
            grid = cqcap.grid_capacity(ch, cqcap.GridSpec(DEFAULT_GRID_RESOLUTION[ch.size]),
                                       cost_limit=budget)
            if not ans.lower - grid.slack_bits <= grid.value_bits <= ans.upper + grid.slack_bits:
                bad[i] = (f"grid {grid.value_bits!r} +- {grid.slack_bits!r} outside "
                          f"[{ans.lower!r}, {ans.upper!r}]")
            elif ans.expected_cost > budget + cost_tol:
                bad[i] = f"expected cost {ans.expected_cost!r} over budget {budget!r}"
            elif j in previous and ans.upper < previous[j].lower:
                # C(S) never decreases in S, so a larger budget's upper bound
                # cannot sit below a smaller budget's lower bound
                bad[i] = (f"upper bound {ans.upper!r} below the lower bound "
                          f"{previous[j].lower!r} of a smaller budget")
            previous[j] = ans
        return bad


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""


WORKLOADS = {w.name: w for w in (DiagSweep, FockCoherent, BudgetCli)}
