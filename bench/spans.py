"""Spans around the calls into each evosteer layer, recorded from outside
the package.

A probe names one public function or method.  While a ``Tracer`` is
installed, a timing wrapper replaces that function in every ``evosteer``
module namespace that holds it (``assemble_all`` in both ``runner`` and
``solver``, ``load_config`` in both ``config`` and ``cli``), or on its class
for a method.  Each call appends a span (name, start, end, parent, instance)
to an in-memory list; nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple


def _rows(args, result) -> int:
    return len(result)


def _kernel_bytes(args, result) -> int:
    # KernelDiscretization holds four dense G x G float64 arrays while it
    # builds (the differences, the kernel values, the mask and KW).
    g = len(args["self"].times)
    return 4 * g * g * 8


def _rk4_steps(args, result) -> int:
    steps = sum(len(t) - 1 for t in args["control"].window_times)
    return steps * args["numerics"].oracle_refine


def _file_bytes(args, result) -> int:
    return os.path.getsize(args["path"])


# (span name, module, attribute, work counter)
PROBES = (
    ("config.load", "config", "load_config", None),
    ("runner.run", "runner", "run", None),
    ("gramian.assemble", "gramian", "assemble_all", None),
    ("gramian.residual", "gramian", "steering_residual", None),
    ("gramian.residual", "gramian", "steering_residual_integro", None),
    ("gramian.synthesize", "gramian", "synthesize_control", None),
    ("gramian.solve", "gramian", "gramian_solve", None),
    ("certificates.certificate", "certificates", "certificate_for", None),
    ("solver.picard", "solver", "picard_solve", None),
    ("core.sup_distance", "core", "sup_distance", None),
    ("core.history_segment", "core", "history_segment", None),
    ("discretize.forcing", "discretize", "eta_values", _rows),
    ("discretize.forcing", "discretize", "KernelDiscretization.inner_convolution", _rows),
    ("discretize.kernel_build", "discretize", "KernelDiscretization.__init__", _kernel_bytes),
    ("semigroups.convolve", "semigroups", "ShiftLagTable.convolve", None),
    ("semigroups.convolve", "semigroups", "MatrixLagTable.convolve", None),
    ("semigroups.lag_table", "semigroups", "MatrixSemigroup.lag_table", None),
    ("semigroups.lag_table", "semigroups", "ShiftSemigroup.lag_table", None),
    ("semigroups.expm", "semigroups", "expm", None),
    ("oracle.oracle", "oracle", "oracle_linear", _rk4_steps),
    ("reports.emit", "reports", "emit_trajectory", _file_bytes),
    ("reports.emit", "reports", "emit_control", _file_bytes),
    ("reports.emit", "reports", "write_report", _file_bytes),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    instance: int | None


class Tracer:
    """Records spans and work counts while its probes are installed."""

    def __init__(self):
        self.spans: list = []
        self.work: Counter = Counter()
        self.instance = None
        self._stack: list = []

    def _wrap(self, name, fn, work):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.instance)
            if work is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.work[name] += work(bound, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Bind every probe's wrapper for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "evosteer" or n.startswith("evosteer."))]
        undo = []
        try:
            for name, module, attr, work in PROBES:
                owner = sys.modules[f"evosteer.{module}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    holders = [owner]
                else:
                    # A function from outside the package (scipy's expm) is
                    # counted only where the probe names it.
                    home = getattr(getattr(owner, attr), "__module__", "") or ""
                    holders = modules if home.startswith("evosteer") else [owner]
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, work)
                for obj in holders:
                    if getattr(obj, attr, None) is original:
                        undo.append((obj, attr, original))
                        setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def totals(self) -> tuple:
        """Per span name: call count, inclusive seconds, self seconds; plus
        the seconds covered by top-level spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        top = 0.0
        for s, c in zip(self.spans, covered):
            d = s.end - s.start
            calls[s.name] += 1
            incl[s.name] += d
            own[s.name] += d - c
            if s.parent is None:
                top += d
        return calls, incl, own, top


# per-layer metric: (name, unit, total it reads, span name)
LAYER_METRICS = (
    ("config.load_s", "s", "inclusive", "config.load"),
    ("runner.run_s", "s", "inclusive", "runner.run"),
    ("gramian.assemble_s", "s", "inclusive", "gramian.assemble"),
    ("gramian.assemble_calls", "count", "calls", "gramian.assemble"),
    ("gramian.residual_s", "s", "inclusive", "gramian.residual"),
    ("gramian.synthesize_s", "s", "inclusive", "gramian.synthesize"),
    ("gramian.solve_calls", "count", "calls", "gramian.solve"),
    ("certificates.certificate_s", "s", "inclusive", "certificates.certificate"),
    ("solver.picard_s", "s", "inclusive", "solver.picard"),
    ("solver.self_s", "s", "self", "solver.picard"),
    ("core.sup_distance_s", "s", "inclusive", "core.sup_distance"),
    ("core.history_segment_s", "s", "inclusive", "core.history_segment"),
    ("core.history_segment_calls", "count", "calls", "core.history_segment"),
    ("discretize.forcing_s", "s", "inclusive", "discretize.forcing"),
    ("discretize.forcing_nodes", "count", "work", "discretize.forcing"),
    ("discretize.kernel_build_s", "s", "inclusive", "discretize.kernel_build"),
    ("discretize.kernel_bytes_computed", "bytes", "work", "discretize.kernel_build"),
    ("semigroups.convolve_s", "s", "inclusive", "semigroups.convolve"),
    ("semigroups.convolve_calls", "count", "calls", "semigroups.convolve"),
    ("semigroups.lag_table_s", "s", "inclusive", "semigroups.lag_table"),
    ("semigroups.expm_calls", "count", "calls", "semigroups.expm"),
    ("oracle.oracle_s", "s", "inclusive", "oracle.oracle"),
    ("oracle.rk4_steps", "count", "work", "oracle.oracle"),
    ("reports.emit_s", "s", "inclusive", "reports.emit"),
    ("reports.bytes_written", "bytes", "work", "reports.emit"),
)


def layer_metrics(calls, inclusive, own, work) -> dict:
    """name -> (value, unit) from ``Tracer.totals`` and the work counters."""
    totals = {"calls": calls, "inclusive": inclusive, "self": own, "work": work}
    return {name: (totals[kind][span], unit)
            for name, unit, kind, span in LAYER_METRICS}
