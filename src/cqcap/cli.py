"""Command-line front end: ``capacity``, ``validate``, and ``gen`` subcommands.

Reports go to stdout as JSON with floats at 17 significant digits; errors go
to stderr as a one-line JSON object. Exit codes: 0 success, 2 file/parse
errors and the library's ``BadParams`` (its parameter types check every
parameter, after the channel load and before any solve), 3 solver errors,
4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from .capacity import constrained_capacity, unconstrained_capacity
from .channel import (
    CqChannel,
    channel_from_jsonable,
    independence_check,
    random_channel,
    save_channel,
)
from .errors import BadParams, CqcapError
from .oracle import DEFAULT_GRID_RESOLUTION, MAX_GRID_ALPHABET, GridSpec, grid_capacity
from .solver import CapacityResult

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4

# the phase decides the exit code: any error before a command's solve starts
# is a file, parse or parameter error
PARSE_ERRORS = (OSError, ValueError, CqcapError)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _dumps(value) -> str:
    """JSON text with floats serialized at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_dumps(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit_error(exc: Exception) -> None:
    line = _dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def _load(path: str) -> tuple[CqChannel, str]:
    with open(path, "rb") as fh:
        payload = fh.read()
    digest = hashlib.sha256(payload).hexdigest()
    channel = channel_from_jsonable(json.loads(payload.decode("utf-8")))
    return channel, digest


def _write_trace_csv(fh, result: CapacityResult, costs: np.ndarray) -> None:
    """The solve's trace as CSV; each step's cost and l1 move are derived from its iterate.

    Each step value is a lower bound, so the ``lower_bits`` column repeats ``f_bits``.
    """
    trace = result.trace
    # the last step moves to the returned distribution
    moves = np.abs(np.diff(np.vstack(trace.iterates + [result.probs.probs]), axis=0)).sum(axis=1)
    writer = csv.writer(fh)
    writer.writerow(["t", "f_bits", "lower_bits", "upper_bits", "expected_cost", "l1_step"])
    rows = zip(trace.objective_bits, trace.upper_bits, trace.iterates, moves.tolist())
    for step, (objective, upper, iterate, l1) in enumerate(rows):
        # one dot product per row: a stacked one can differ in the last bit
        cost = float(costs @ iterate)
        value = _format_float(objective)
        writer.writerow([step, value, value] + [_format_float(v) for v in (upper, cost, l1)])


def _result_payload(result: CapacityResult) -> dict:
    return {
        "capacity_bits": result.capacity_bits,
        "probs": list(result.probs.probs),
        "multiplier_bits_per_cost_unit": result.multiplier,
        "expected_cost_units": result.expected_cost,
        "constraint_active": result.constraint_active,
        "gap_certificate_bits": list(result.gap_certificate_bits),
        "termination": result.termination.value,
        "iterations": result.iterations,
        "rejected_steps": result.rejected_steps,
        "newton_steps": result.newton_steps,
        "certified": result.certified,
    }


def cmd_capacity(args) -> int:
    try:
        channel, digest = _load(args.channel)
        if args.trace is not None:
            # a path it cannot write fails before the solve, and one it can is
            # left as it is until the solve's trace replaces it
            open(args.trace, "a").close()
    except PARSE_ERRORS as exc:
        _emit_error(exc)
        return EXIT_PARSE
    # no budget is an infinite one
    budget = math.inf if args.cost_limit is None else args.cost_limit
    try:
        started = time.perf_counter()
        result = constrained_capacity(channel, budget, epsilon=args.eps, max_iter=args.max_iter)
        elapsed = time.perf_counter() - started
    except BadParams as exc:
        # the library checks its parameters before the solve starts
        _emit_error(exc)
        return EXIT_PARSE
    except CqcapError as exc:
        _emit_error(exc)
        return EXIT_SOLVER
    if args.trace is not None:
        try:
            with open(args.trace, "w", newline="", encoding="utf-8") as fh:
                _write_trace_csv(fh, result, channel.costs)
        except OSError as exc:
            _emit_error(exc)
            return EXIT_PARSE
    report = {
        "input": {"path": args.channel, "sha256": digest},
        "config": {
            "cost_limit": args.cost_limit,
            "epsilon_bits": args.eps,
            "max_iter": args.max_iter,
        },
        "result": _result_payload(result),
        "timing_seconds": elapsed,
        "trace_path": args.trace,
    }
    print(_dumps(report))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        # built before the load, so that a bad resolution fails on any channel
        spec = None if args.oracle_grid is None else GridSpec(args.oracle_grid)
        channel, digest = _load(args.channel)
        # the oracle runs first, so that a grid over its size limit is a
        # parameter error before any solve
        grid = None
        if channel.size <= MAX_GRID_ALPHABET:
            grid = grid_capacity(channel, spec or GridSpec(DEFAULT_GRID_RESOLUTION[channel.size]))
    except PARSE_ERRORS as exc:
        _emit_error(exc)
        return EXIT_PARSE
    print(f"channel: {args.channel} sha256={digest}")
    print(f"states: {channel.size} valid, dim={channel.dim}")
    report = independence_check(channel)
    print(
        f"independent: {str(report.independent).lower()} "
        f"min_gram_eigenvalue={_format_float(report.min_gram_eigenvalue)}"
    )
    if grid is not None:
        solved = unconstrained_capacity(channel)
        gap = abs(solved.capacity_bits - grid.value_bits)
        lower, upper = solved.gap_certificate_bits
        print(
            f"solver_bits={_format_float(solved.capacity_bits)} "
            f"grid_bits={_format_float(grid.value_bits)} "
            f"gap_bits={_format_float(gap)} "
            f"slack_bits={_format_float(grid.slack_bits)}"
        )
        contained = (lower - grid.slack_bits <= grid.value_bits <= upper + grid.slack_bits)
        if not contained:
            print("oracle check: FAIL")
            return EXIT_ORACLE
        print("oracle check: ok")
    print("ok")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        channel = random_channel(args.n, args.m, args.seed, args.kind)
        if args.costs == "uniform":
            channel = CqChannel(channel.states, np.ones(args.n))
        elif args.costs == "random":
            rng = np.random.default_rng([args.seed, 1])
            channel = CqChannel(channel.states, rng.random(args.n))
        save_channel(channel, args.out)
    except PARSE_ERRORS as exc:
        _emit_error(exc)
        return EXIT_PARSE
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on first use, not at import, so that importing the CLI stays cheap;
    # cached, so every in-process main call shares the one parser
    parser = argparse.ArgumentParser(
        prog="cqcap",
        description="Capacity of classical-quantum channels with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="compute capacity of a channel file")
    cap.add_argument("--channel", required=True, help="path to a channel JSON file")
    cap.add_argument("--cost-limit", type=float, default=None,
                     help="expected-cost budget; omit for unconstrained")
    cap.add_argument("--eps", type=float, default=1e-6,
                     help="target certified gap in bits (default 1e-6)")
    cap.add_argument("--max-iter", type=int, default=1_000_000,
                     help="iteration cap per solve (default 1e6)")
    cap.add_argument("--trace", default=None, help="write per-iteration CSV here")
    cap.set_defaults(func=cmd_capacity)

    val = sub.add_parser("validate", help="validate states and cross-check the oracle")
    val.add_argument("--channel", required=True)
    val.add_argument("--oracle-grid", type=int, default=None,
                     help="grid resolution for the oracle cross-check")
    val.set_defaults(func=cmd_validate)

    gen = sub.add_parser("gen", help="write a deterministic random channel file")
    gen.add_argument("--n", type=int, required=True, help="alphabet size")
    gen.add_argument("--m", type=int, required=True, help="output dimension")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--kind", required=True, choices=("pure", "mixed", "diagonal"))
    gen.add_argument("--out", required=True)
    gen.add_argument("--costs", choices=("uniform", "random"), default=None)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
