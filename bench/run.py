"""cqcap benchmark: time and iterations to a certified capacity, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload diag-sweep --seed 2024 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One process, one closed-loop client: each solve starts when the previous one
has returned. The run builds the workload's inputs from ``--seed``, times its
set-up, then solves every case once per pass, repeating whole passes while
another pass still fits in ``--seconds`` (at least one pass). Every answer is
checked against an independent oracle after the timed passes, and the
benchmark's own plain solver measures the work each certified case needs
(reference.py). ``--trace 1`` adds one traced pass and prints per-layer
metrics. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``, holding the metrics BENCHMARK.json
lists. Metric definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
# ReferenceStep samples whose median prices the machine's speed at one moment
REFERENCE_SAMPLES = 15
# set-up times are reported in seconds at this ReferenceStep time, the
# typical one on the 2.1 GHz Xeon host the baseline was measured on
NOMINAL_REFERENCE_S = 45e-6
# cqcap's own import timed in a fresh interpreter (numpy is imported first),
# with the ReferenceStep timed in that same process before and after it
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "from run import ReferenceStep\n"
    "reference = ReferenceStep()\n"
    "before = reference.median_seconds()\n"
    "started = time.perf_counter()\n"
    "import cqcap, cqcap.cli\n"
    "seconds = time.perf_counter() - started\n"
    "print(seconds, 0.5 * (before + reference.median_seconds()))\n"
)
# listed here as well as in workloads.py, so that parsing arguments and
# pinning BLAS threads happen before anything imports numpy
WORKLOAD_NAMES = ("diag-sweep", "fock-coherent", "budget-cli")
TERMINATIONS = ("gap_reached", "max_iter", "stalled", "error")


def nearest_rank(values, percent: int) -> float:
    """Nearest-rank percentile: the ceil(percent/100 * N)-th smallest value.

    Always one of the values, so +inf entries (failed solves) sort last and
    never turn into NaN.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class ReferenceStep:
    """A fixed quantum Blahut-Arimoto step on four mixed 4x4 states.

    It is timed around every solve and every set-up sample. Dividing by this
    time cancels the machine's speed at that moment: on a shared 2-core host,
    raw step times of one workload drifted by 35% within minutes while the
    ratio stayed within 5%. The inputs are fixed, not seeded, and
    the code never changes with cqcap.
    """

    STEPS = 10

    def __init__(self):
        import numpy as np

        self.np = np
        a = np.random.default_rng(12345).normal(size=(4, 4, 4, 2)) @ np.array([1.0, 1.0j])
        w = a @ a.conj().transpose(0, 2, 1)
        self.stack = w / np.trace(w, axis1=1, axis2=2).real[:, None, None]
        lam = np.linalg.eigvalsh(self.stack)
        self.entropies = -(lam * np.log(lam)).sum(axis=1)

    def seconds(self) -> float:
        np = self.np
        started = time.perf_counter()
        p = np.full(4, 0.25)
        for _ in range(self.STEPS):
            lam, vec = np.linalg.eigh(np.einsum("x,xij->ij", p, self.stack))
            log_mix = (vec * np.log(lam)) @ vec.conj().T
            div = np.maximum(-self.entropies - np.einsum("xij,ji->x", self.stack, log_mix).real, 0.0)
            log_w = np.log(p) + div
            top = float(log_w.max())
            p = np.exp(log_w - top - math.log(float(np.exp(log_w - top).sum())))
        return (time.perf_counter() - started) / self.STEPS

    def median_seconds(self, samples: int = REFERENCE_SAMPLES) -> float:
        return statistics.median(self.seconds() for _ in range(samples))


@dataclass(slots=True)
class Outcome:
    """One solve: wall time, status ("ok" or a failure reason), answer, inner solves.

    ``reference_s`` is the time of a ReferenceStep around it: the mean of one
    sample just before and one just after.
    """

    seconds: float
    reference_s: float
    status: str
    answer: object  # workloads.Answer, or None for a solve that failed
    inner: tuple

    @property
    def iterations(self) -> float:
        if self.status != "ok":
            return math.inf
        return float(sum(it for it, _, _ in self.inner))

    def same_result(self, other: "Outcome") -> bool:
        return (self.status, self.answer, self.inner) == (other.status, other.answer, other.inner)


def run_pass(workload, cqcap, built, inner, reference, tracer=None) -> list[Outcome]:
    from workloads import CliExit

    outcomes = []
    for i in range(workload.cases):
        error = raw = None
        if tracer is not None:
            tracer.solve_id = i
        before = reference.seconds()
        started = time.perf_counter()
        try:
            if tracer is None:
                raw = workload.solve(cqcap, built, i)
            else:
                with tracer.span(workload.entry_span):
                    raw = workload.solve(cqcap, built, i)
        except Exception as exc:  # a failed solve is counted, never aborts the run
            error = exc
        seconds = time.perf_counter() - started
        # one sample on each side: on 100 diag-sweep solves timed twice, a
        # solve's ratio to it varied 11% between the passes, against 14% for
        # one sample after and 15% for the median of three after
        reference_s = 0.5 * (before + reference.seconds())
        answer = None
        if error is None:
            try:
                answer = workload.answer(raw)
            except CliExit as exc:
                error = exc
        records = inner.take()
        # an earlier inner solve of a budgeted solve that hit the cap or
        # stalled fails the whole solve, although only the last one is reported
        unfinished = [r for _, r, _ in records[:-1] if r in ("max_iter", "stalled")]
        if error is not None:
            status = str(error) if isinstance(error, CliExit) else type(error).__name__
        elif (answer.termination in ("max_iter", "stalled")
              and answer.upper - answer.lower > workload.epsilon):
            status = answer.termination
        elif unfinished:
            status = f"inner_{unfinished[0]}"
        else:
            status = "ok"
        outcomes.append(Outcome(seconds, reference_s, status, answer, records))
    if tracer is not None:
        tracer.solve_id = -1
    return outcomes


def layer_metrics(tracer, traced, untraced, oracle_s, missing) -> dict:
    """Per-layer metrics of the traced pass; iteration ratios use clean solves only.

    A clean solve is one whose inner solves all returned, so its iteration
    count is known; calls made by solves that raised are left out of the
    per-iteration ratios.
    """
    clean = [i for i, o in enumerate(traced) if all(it is not None for it, _, _ in o.inner)]
    clean_iters = sum(it for i in clean for it, _, _ in traced[i].inner)
    solve_spans = tracer.summary(solves=range(len(traced)))
    clean_spans = tracer.summary(solves=clean)
    setup_spans = tracer.summary(solves=(-1,))

    def self_s(name, spans=solve_spans):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name, spans=solve_spans):
        return spans.get(name, {}).get("calls", 0)

    def per_iter(name):
        return calls(name, clean_spans) / clean_iters if clean_iters else 0.0

    inner = [rec for o in traced for rec in o.inner]
    outer = [len(o.inner) for o in traced]
    final_iters = sum(traced[i].inner[-1][0] for i in clean if traced[i].inner)
    ok = [o for o in untraced if o.status == "ok"]
    ok_iters = sum(o.iterations for o in ok)
    csv_bytes = [o.answer.trace_csv_bytes for o in ok]
    kernel_calls = calls("hermitian.kernel_projector")
    # per case, traced over untraced time, each over its reference step so
    # that machine drift cancels; the median over cases, because a ratio of
    # sums rests on the one reference sample of the longest solve (72k steps
    # on diag-sweep) and read from -7% to +108% on the same code
    overhead = statistics.median((b.seconds / b.reference_s) / (a.seconds / a.reference_s)
                                 for a, b in zip(untraced, traced)) - 1.0
    metrics = {
        "hermitian.validate_density.calls_per_iter": per_iter("hermitian.validate_density"),
        "hermitian.validate_density.self_s": self_s("hermitian.validate_density"),
        "hermitian.log_on_support.self_s": self_s("hermitian.log_on_support"),
        "hermitian.kernel_projector.nonnull_frac":
            tracer.kernel_nonnull / kernel_calls if kernel_calls else 0.0,
        "hermitian.kernel_projector.self_s": self_s("hermitian.kernel_projector"),
        "channel.output_state.self_s": self_s("channel.output_state"),
        "channel.as_probability_vector.calls_per_iter": per_iter("channel.as_probability_vector"),
        "channel.as_probability_vector.self_s": self_s("channel.as_probability_vector"),
        "channel.holevo_quantity.calls": calls("channel.holevo_quantity"),
        "channel.holevo_quantity.self_s": self_s("channel.holevo_quantity"),
        "channel.CqChannel.self_s": self_s("channel.CqChannel", setup_spans),
        "channel.channel_from_jsonable.self_s": self_s("channel.channel_from_jsonable"),
        "solver.solve_fixed_lambda.self_s": self_s("solver.solve_fixed_lambda"),
        "solver.ba_step.self_s": self_s("solver.ba_step"),
        "solver.upper_bound.self_s": self_s("solver.upper_bound"),
        "solver.make_iteration_state.self_s": self_s("solver.make_iteration_state"),
        "solver.us_per_iter": 1e6 * sum(o.seconds for o in ok) / ok_iters if ok_iters else 0.0,
        "solver.iterations": clean_iters,
        "solver.trace_rows": max((rows for _, _, rows in inner), default=0),
        "capacity.outer_solves_p50": nearest_rank(outer, 50),
        "capacity.outer_solves_max": max(outer),
        "capacity.final_iters_frac": final_iters / clean_iters if clean_iters else 0.0,
        "capacity.constrained_capacity.self_s": self_s("capacity.constrained_capacity"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.trace_csv_bytes": statistics.fmean(csv_bytes) if csv_bytes else 0.0,
        "oracle.check_s": oracle_s,
        "trace.overhead_s": overhead * sum(o.seconds for o in untraced),
        "trace.overhead_frac": overhead,
        "trace.spans": len(tracer.start),
        "trace.missing_bindings": len(missing),
    }
    for reason in TERMINATIONS:
        metrics[f"solver.termination.{reason}"] = sum(1 for _, r, _ in inner if r == reason)
    return metrics


def end_to_end(cases, reference_work, setup, peak_rss_mib) -> dict:
    """The workload's end-to-end metrics from each case's outcomes, one per pass.

    A failed solve counts as +inf in the time and iteration percentiles, so
    fixing a failure can never make a percentile worse. ``solve_rel_p50``
    prices a solve in ReferenceStep times per step of work the plain
    reference solver needs on that case (``reference_work``, None for a
    failed case):
    machine drift cancels in the first division and the seed's draw of easy
    and hard channels in the second, while a solver that needs fewer
    iterations or cheaper ones reads lower. ``step_rel`` prices one of
    cqcap's own steps and is taken over certified solves only.
    """
    times, iters, rel, steps = [], [], [], []
    for runs, work in zip(cases, reference_work):
        first = runs[0]
        iters.append(first.iterations)
        if first.status != "ok":
            times.append(math.inf)
            rel.append(math.inf)
            continue
        times.append(statistics.median(o.seconds for o in runs))
        relative = statistics.median(o.seconds / o.reference_s for o in runs)
        rel.append(relative / work)
        if first.iterations > 0:
            steps.append(relative / first.iterations)
    failed = sum(1 for t in times if math.isinf(t))
    setup_s, setup_raw_s = setup
    return {
        "setup_s": (setup_s, "s"),
        "solve_rel_p50": (nearest_rank(rel, 50), "ratio"),
        "solve_ms_p50": (1e3 * nearest_rank(times, 50), "ms"),
        "solve_ms_p90": (1e3 * nearest_rank(times, 90), "ms"),
        "iters_p50": (nearest_rank(iters, 50), "count"),
        "iters_p90": (nearest_rank(iters, 90), "count"),
        "fail_frac": (failed / len(cases), "fraction"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "step_rel": (statistics.median(steps) if steps else math.inf, "ratio"),
        "setup_raw_s": (setup_raw_s, "s"),
    }


def timed_setup(workload, cqcap, workdir, reference):
    """Median import and build times, each over the ReferenceStep timed around it.

    The import is timed in fresh interpreters, so every sample pays for it in
    full, and each interpreter times its own ReferenceStep. Returns the set-up time at NOMINAL_REFERENCE_S per step, the raw set-up
    time and the built channels. The ratio cancels the host's speed, which on a
    shared host drifted by 30% within minutes.
    """
    imports, builds = [], []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT / "bench")],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        seconds, reference_s = map(float, probe.stdout.split()[-2:])
        imports.append((seconds, seconds / reference_s))
    for _ in range(SETUP_REPEATS):
        before = reference.median_seconds()
        started = time.perf_counter()
        built = workload.build(cqcap, workdir)
        seconds = time.perf_counter() - started
        builds.append((seconds, seconds / (0.5 * (before + reference.median_seconds()))))
    raw = sum(statistics.median(s for s, _ in samples) for samples in (imports, builds))
    relative = sum(statistics.median(r for _, r in samples) for samples in (imports, builds))
    return NOMINAL_REFERENCE_S * relative, raw, built


def run_workload(args) -> int:
    # numpy arrives with the workload module, so the timed import is cqcap's own
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed)
    import cqcap
    import cqcap.cli  # noqa: F401
    if not Path(cqcap.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported cqcap from {cqcap.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from tracing import InnerSolves, Tracer

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    inner = InnerSolves(cqcap.capacity)
    reference = ReferenceStep()
    try:
        *setup, built = timed_setup(workload, cqcap, workdir, reference)
        workload.prepare(cqcap, built)

        passes = []
        window = time.perf_counter()
        while True:
            pass_started = time.perf_counter()
            passes.append(run_pass(workload, cqcap, built, inner, reference))
            now = time.perf_counter()
            if now - window + (now - pass_started) > args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = passes[0]
        problems = [f"pass {k} case {i}: result differs from pass 0"
                    for k, outcomes in enumerate(passes[1:], 1)
                    for i, (a, b) in enumerate(zip(first, outcomes)) if not a.same_result(b)]

        layers, missing = None, []
        if args.trace:
            tracer = Tracer()
            missing = tracer.install()
            try:
                workload.build(cqcap, workdir, span=tracer.span)
                traced = run_pass(workload, cqcap, built, inner, reference, tracer)
            finally:
                tracer.uninstall()
            problems += [f"case {i}: traced result differs from untraced"
                         for i, (a, b) in enumerate(zip(first, traced)) if not a.same_result(b)]

        started = time.perf_counter()
        answers = {i: o.answer for i, o in enumerate(first) if o.status == "ok"}
        mismatches = workload.check(cqcap, built, answers)
        oracle_s = time.perf_counter() - started
        for i, detail in sorted(mismatches.items()):
            for outcomes in passes:
                outcomes[i].status = "oracle_mismatch"
            problems.append(f"case {i}: oracle mismatch: {detail}")
        if args.trace:
            layers = layer_metrics(tracer, traced, first, oracle_s, missing)
        started = time.perf_counter()
        reference_work = [workload.reference_work(i) if o.status == "ok" else None
                          for i, o in enumerate(first)]
        reference_run_s = time.perf_counter() - started
    finally:
        inner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    cases = [[p[i] for p in passes] for i in range(len(first))]
    metrics = end_to_end(cases, reference_work, setup, peak_rss_mib)
    reasons: dict[str, int] = {}
    for o in first:
        if o.status != "ok":
            reasons[o.status] = reasons.get(o.status, 0) + 1
    # counted per case, not per solve: every pass must repeat the first one's
    # results (checked above), and how many passes fit in --seconds depends on
    # the machine's speed, so counting solves would make the same seed report
    # different counts and failure shares from one run to the next
    attempted = len(first)
    failed = sum(reasons.values())
    env = environment()

    print(f"cqcap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"why: {workload.why}")
    print("env: " + json.dumps(env))
    print(f"solves: {attempted} cases attempted x {len(passes)} passes, {failed} cases failed; "
          f"failures by reason: {json.dumps(reasons)}")
    print(f"reference solver: {sum(n for n in reference_work if n)} steps of work "
          f"in {reference_run_s:.2f} s (untimed)")
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, (value, unit) in metrics.items():
        gate = "  [gated]" if name in gated else ""
        print(f"  {name:<16} {value:>14.6g} {unit}{gate}")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers is not None:
        if missing:
            print(f"bindings not found (reported as 0 calls): {', '.join(missing)}")
        print("per-layer (traced pass):")
        for name, value in layers.items():
            print(f"  {name:<46} {value:>14.6g} {layer_units.get(name, '')}")
    for line in problems:
        print(f"PROBLEM {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "passes": len(passes),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": layers, "failures": reasons, "problems": problems,
        "cases": [{"status": runs[0].status, "iterations": runs[0].iterations,
                   "reference_work": work,
                   "seconds": [o.seconds for o in runs],
                   "reference_s": [o.reference_s for o in runs],
                   "inner_solves": len(runs[0].inner)}
                  for runs, work in zip(cases, reference_work)],
    }
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        # one file per workload, overwritten by the next traced run: ~26 B per span
        tracer.save(OUT_DIR / f"spans_{args.workload}.npz")

    # exactly the metrics BENCHMARK.json lists, with its units; a listed
    # metric the run does not produce raises here, so no result line
    if args.trace:
        selected = {name: (layers[name], unit) for name, unit in layer_units.items()}
    else:
        selected = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in selected.items()},
    }
    # a non-finite value (no certified solve at all) raises here: no result line
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cqcap" / "__init__.py").is_file():
        print(f"error: no cqcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one BLAS thread: multi-threaded OpenBLAS showed intermittent ~100x
    # slowdowns on small GEMV, and the load comes from this one process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
