"""End-to-end orchestration: prepare the discretization once, compute the
certificate from its Gramians, run the Picard solve on it, verify the
targets, optionally cross-check against the linear oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .certificates import Certificate, certificate_for
from .core import sup_distance
from .oracle import OracleResult, oracle_linear
from .problems import Numerics, Problem
from .solver import (NonConvergenceError, SolveReport, Sweep, TargetVerdict,
                     picard_solve, verify_targets)


@dataclass
class RunResult:
    # what callers read of the sweep; the sweep itself is freed with the run
    problem: Problem
    certificate: Certificate
    timings: dict
    solve: Optional[SolveReport] = None
    verdict: Optional[TargetVerdict] = None
    oracle: Optional[OracleResult] = None
    oracle_distance: Optional[float] = None


def _prepare(problem: Problem, targets, numerics: Numerics):
    t0 = time.perf_counter()
    sweep = Sweep(problem, numerics)
    return sweep, RunResult(problem, certificate_for(sweep, targets),
                            {"assemble_s": time.perf_counter() - t0})


def certify(problem: Problem, targets, numerics: Numerics) -> RunResult:
    """Prepare the run's sweep and certify it, no solve: the first half of
    :func:`run`."""
    return _prepare(problem, targets, numerics)[1]


def run(problem: Problem, targets, numerics: Numerics,
        with_oracle: bool = False) -> RunResult:
    """The full pipeline behind the solve/oracle commands: :func:`certify`,
    then the Picard solve on the same sweep and the target verdict.  A
    :class:`NonConvergenceError` carries the run so far as ``exc.run``."""
    sweep, result = _prepare(problem, targets, numerics)
    timings = result.timings
    t0 = time.perf_counter()
    try:
        result.solve = solve = picard_solve(sweep, targets)
    except NonConvergenceError as exc:
        exc.run = result
        raise
    finally:
        timings["solve_s"] = time.perf_counter() - t0
    result.verdict = verify_targets(solve, targets)
    if with_oracle:
        t0 = time.perf_counter()
        result.oracle = oracle_linear(problem, solve.control, targets, numerics)
        result.oracle_distance = sup_distance(solve.trajectory,
                                              result.oracle.trajectory)
        timings["oracle_s"] = time.perf_counter() - t0
    return result
