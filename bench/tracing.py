"""Spans around cqcap's module-level bindings, kept in memory and summarised per layer.

The benchmark never edits cqcap. It replaces the functions that cqcap's
modules call through their own globals with timing wrappers, and puts the
originals back afterwards. Span names are ``<layer>.<function>``, where the
layer is the module that defines the function, so a function reached through
two modules (``as_probability_vector`` from ``channel`` and ``solver``) is one
span name.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# (module whose global is replaced, attribute, span name)
BINDINGS = (
    ("cqcap.channel", "validate_density", "hermitian.validate_density"),
    ("cqcap.channel", "as_probability_vector", "channel.as_probability_vector"),
    ("cqcap.solver", "as_probability_vector", "channel.as_probability_vector"),
    ("cqcap.solver", "output_state", "channel.output_state"),
    ("cqcap.solver", "log_on_support", "hermitian.log_on_support"),
    ("cqcap.solver", "kernel_projector", "hermitian.kernel_projector"),
    ("cqcap.solver", "make_iteration_state", "solver.make_iteration_state"),
    ("cqcap.solver", "ba_step", "solver.ba_step"),
    ("cqcap.solver", "upper_bound", "solver.upper_bound"),
    ("cqcap.solver", "holevo_quantity", "channel.holevo_quantity"),
    ("cqcap.capacity", "solve_fixed_lambda", "solver.solve_fixed_lambda"),
    ("cqcap.capacity", "holevo_quantity", "channel.holevo_quantity"),
    ("cqcap.cli", "constrained_capacity", "capacity.constrained_capacity"),
    ("cqcap.cli", "unconstrained_capacity", "capacity.unconstrained_capacity"),
    ("cqcap.cli", "channel_from_jsonable", "channel.channel_from_jsonable"),
)

class Tracer:
    """In-memory span recorder: name, start, end, parent and solve id per call.

    Spans live in flat typed arrays (26 bytes each) so that a traced pass of
    a few hundred thousand solver steps fits in memory.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("q")
        self.end = array("q")
        self.solve_id = -1
        self.kernel_nonnull = 0  # kernel_projector calls that returned a projector
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.solve.append(self.solve_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes into cqcap."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        is_kernel = name == "hermitian.kernel_projector"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if is_kernel and result is not None:
                self.kernel_nonnull += 1
            return result

        return traced

    def install(self, bindings=BINDINGS) -> list[str]:
        """Wrap every binding that exists; return those that do not.

        A binding removed from cqcap is skipped, and its span name still
        reports zero calls, so the removal shows as a count change.
        """
        missing = []
        for module_name, attr, name in bindings:
            self.name_id(name)
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "solve": np.frombuffer(self.solve, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self, solves=None) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name.

        ``solves`` keeps only spans recorded under those solve ids (-1 is
        set-up); self times are computed over all spans first.
        """
        spans = self.arrays()
        keep = None if solves is None else np.isin(spans["solve"], list(solves))
        calls, total, own = layer_times(spans["name"], spans["parent"],
                                        spans["start_ns"], spans["end_ns"],
                                        len(self.names), keep)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_times(name, parent, start_ns, end_ns, count: int, keep=None):
    """Per-name call counts, total time and self time, in seconds.

    A span's self time is its duration minus the durations of its direct
    children. Spans come from one thread, so children never overlap and
    their durations add up to the part of the parent they cover. ``keep``
    is an optional boolean mask of the spans to count.
    """
    name = np.asarray(name, dtype=np.int64)
    duration = (np.asarray(end_ns) - np.asarray(start_ns)) * 1e-9
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    own = duration - covered
    if keep is not None:
        name, duration, own = name[keep], duration[keep], own[keep]
    calls = np.bincount(name, minlength=count)
    total = np.bincount(name, weights=duration, minlength=count)
    return calls, total, np.bincount(name, weights=own, minlength=count)


class InnerSolves:
    """Counts every fixed-multiplier inner solve that ``cqcap.capacity`` makes.

    Installed in the untraced run as well: the iteration counts of a budgeted
    solve reach the caller only through these inner results. It costs one
    extra Python call per inner solve, not per step.
    """

    def __init__(self, capacity_module):
        self._module = capacity_module
        self._original = capacity_module.solve_fixed_lambda
        self.records: list[tuple[int | None, str, int]] = []
        original = self._original

        @functools.wraps(original)
        def counted(*args, **kwargs):
            try:
                res, trace = original(*args, **kwargs)
            except Exception:
                self.records.append((None, "error", 0))
                raise
            self.records.append((res.iterations, res.termination.value, len(trace)))
            return res, trace

        capacity_module.solve_fixed_lambda = counted

    def take(self) -> tuple:
        records, self.records = tuple(self.records), []
        return records

    def close(self) -> None:
        self._module.solve_fixed_lambda = self._original
