"""End-to-end orchestration: build the discretization once, compute the
certificate from its Gramians, run the Picard solve on it, verify the
targets, optionally cross-check against the linear oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .certificates import Certificate, certificate_for
from .core import sup_distance
from .gramian import NotInvertibleError, assemble_all
from .oracle import OracleResult, oracle_linear
from .problems import Numerics, Problem
from .solver import (SolveReport, Sweep, TargetVerdict, picard_solve,
                     verify_targets)


@dataclass
class RunResult:
    problem: Problem
    targets: list
    numerics: Numerics
    grids: list
    blocks: list
    certificate: Certificate
    solve: Optional[SolveReport] = None
    verdict: Optional[TargetVerdict] = None
    oracle: Optional[OracleResult] = None
    oracle_distance: Optional[float] = None
    timings: Optional[dict] = None


def _check_invertible(blocks):
    for blk in blocks:
        if not blk.invertible:
            raise NotInvertibleError(blk.index, blk.min_eig, blk.delta_floor)


def certify(problem: Problem, targets, numerics: Optional[Numerics] = None) -> RunResult:
    """Gramians and certificate only, no solve."""
    numerics = numerics or Numerics()
    t0 = time.perf_counter()
    grids, blocks = assemble_all(problem, numerics)
    _check_invertible(blocks)
    cert = certificate_for(problem, blocks, targets, numerics)
    timings = {"assemble_s": time.perf_counter() - t0}
    return RunResult(problem=problem, targets=targets, numerics=numerics,
                     grids=grids, blocks=blocks, certificate=cert,
                     timings=timings)


def run(problem: Problem, targets, numerics: Optional[Numerics] = None,
        with_oracle: bool = False, raise_on_fail: bool = True) -> RunResult:
    """The full pipeline behind the solve/oracle commands."""
    numerics = numerics or Numerics()
    timings = {}
    t0 = time.perf_counter()
    sweep = Sweep(problem, numerics)
    _check_invertible(sweep.blocks)
    cert = certificate_for(problem, sweep.blocks, targets, numerics, sweep.kern)
    timings["assemble_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solve = picard_solve(problem, targets, numerics, raise_on_fail=raise_on_fail,
                         sweep=sweep)
    timings["solve_s"] = time.perf_counter() - t0
    verdict = (verify_targets(solve, targets, numerics.target_tol)
               if solve.converged else None)

    oracle = None
    distance = None
    if with_oracle:
        t0 = time.perf_counter()
        oracle = oracle_linear(problem, solve.control, targets, numerics)
        distance = sup_distance(solve.trajectory, oracle.trajectory)
        timings["oracle_s"] = time.perf_counter() - t0
    return RunResult(problem=problem, targets=targets, numerics=numerics,
                     grids=sweep.grids, blocks=sweep.blocks, certificate=cert,
                     solve=solve, verdict=verdict, oracle=oracle,
                     oracle_distance=distance, timings=timings)
