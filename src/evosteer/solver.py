"""Picard iteration of the steered mild-solution operator.

One application of the operator maps an iterate x to the path z defined
branch-wise on the mesh:

* first window:   z = T(.)[phi(0) + nu(x)] + conv(B u + eta(., x_.)),
* impulse window: z(theta) = impulse_j(theta, x(theta_j-)),
* later windows:  z = T(. - lam_j) impulse_j(lam_j, x(theta_j-)) + conv(...),

with the feedback control u recomputed from the *current* iterate inside
every sweep (the steering residuals depend on x through the forcing, the
impulse values and the nonlocal coupling).  The fixed point is
simultaneously a mild solution and a steered trajectory, which is exactly
the property the contraction certificate predicts.  The integro variant
replaces eta by the running kernel convolution and drops the nonlocal term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PiecewiseTrajectory, path_sup_norm, sup_distance
from .discretize import KernelDiscretization, eta_values
from .gramian import (ControlSignal, assemble_all, steering_residual,
                      synthesize_control, window_start)
from .problems import Numerics, Problem


class NonConvergenceError(Exception):
    """Picard iteration exhausted max_iter without meeting the tolerance.

    Carries the measured update ratio so the caller can compare it with the
    contraction certificate.
    """

    def __init__(self, report: "SolveReport"):
        self.report = report
        self.measured_ratio = report.measured_ratio
        super().__init__(
            f"no convergence after {report.iterations} iterations "
            f"(last update {report.final_update:.3e}, "
            f"measured ratio {report.measured_ratio:.3f})")


@dataclass
class SolveReport:
    """Outcome of a Picard solve."""

    trajectory: PiecewiseTrajectory
    control: Optional[ControlSignal]
    iterations: int
    final_update: float
    per_window_defect: list
    converged: bool
    measured_ratio: float

    def control_sup_norms(self) -> list:
        return self.control.sup_norms() if self.control is not None else []


class Sweep:
    """The run's discretization -- window grids, Gramian blocks and, for the
    integro variant, the kernel sums -- built once and shared by every
    operator application."""

    def __init__(self, problem: Problem, numerics: Numerics):
        self.problem = problem
        self.numerics = numerics
        self.grids, self.blocks = assemble_all(problem, numerics)
        self.kern = (KernelDiscretization(problem, numerics)
                     if problem.variant == "integro" else None)
        self.intervals = problem.mesh.intervals()
        if self.kern is not None:
            self.seg_times = self.kern.block_times
        else:
            self.seg_times = []
            for a, end, kind, j in self.intervals:
                if kind == "control":
                    self.seg_times.append(self.grids[j].times)
                else:
                    m = numerics.steps_for(end - a)
                    self.seg_times.append(np.linspace(a, end, m + 1))

    def initial_iterate(self) -> PiecewiseTrajectory:
        problem, numerics = self.problem, self.numerics
        hist = problem.sample_history(numerics.history_samples)
        phi0 = problem.phi0()
        seg_values = [np.tile(phi0, (len(t), 1)) for t in self.seg_times]
        flat = PiecewiseTrajectory(problem.mesh, problem.beta, hist,
                                   self.seg_times, seg_values,
                                   weight=problem.state_weight)
        v0 = window_start(problem, flat, 0)
        seg_values = [np.tile(v0, (len(t), 1)) for t in self.seg_times]
        for k, (a, end, kind, j) in enumerate(self.intervals):
            if kind == "impulse":
                seg_values[k] = np.array(
                    [problem.impulses[j - 1](float(t), v0) for t in self.seg_times[k]])
        return flat.with_values(seg_values)

    def apply(self, traj: PiecewiseTrajectory, targets):
        """One application of the steered operator; returns the new path,
        the synthesized control and the residuals it was built from."""
        problem = self.problem
        if self.kern is not None:
            inner_all = self.kern.inner_convolution(traj)
        forcings, residuals = [], []
        for grid in self.grids:
            k = 0 if grid.index == 0 else 2 * grid.index
            if self.kern is not None:
                forcing = inner_all[self.kern.block_slice(k)]
            else:
                forcing = eta_values(problem, traj, grid.times, self.numerics)
            forcings.append(forcing)
            if targets is not None:
                residuals.append(steering_residual(problem, grid.index, traj,
                                                   targets[grid.index], grid,
                                                   forcing))
        control = (synthesize_control(problem, self.grids, self.blocks, residuals)
                   if targets is not None else None)
        seg_values = []
        for k, (a, end, kind, j) in enumerate(self.intervals):
            if kind == "impulse":
                x_minus = traj.left_value_at_theta(j)
                seg_values.append(np.array(
                    [problem.impulses[j - 1](float(t), x_minus)
                     for t in self.seg_times[k]]))
                continue
            grid = self.grids[j]
            F = forcings[j].copy()
            if control is not None:
                F += control.samples[j] @ problem.control_matrix.T
            z = grid.table.evolve(window_start(problem, traj, j))
            z += grid.table.convolve(F, grid.delta)
            seg_values.append(z)
        return traj.with_values(seg_values), control, residuals


def picard_solve(problem: Problem, targets, numerics: Optional[Numerics] = None,
                 tol: Optional[float] = None, max_iter: Optional[int] = None,
                 raise_on_fail: bool = True,
                 sweep: Optional[Sweep] = None) -> SolveReport:
    """Iterate the steered operator to its fixed point.

    Starts from the flat extension of phi(0) (plus the nonlocal coupling of
    that extension) with the impulse branches applied once.  Stops when the
    sup-norm update drops below tol relative to the iterate scale.  The
    update ratio ||d_{k+1}||/||d_k|| is recorded from the second iteration
    onward as the measured contraction rate.  ``sweep`` reuses a
    discretization already built for the same problem and numerics.
    """
    numerics = numerics or Numerics()
    tol = tol if tol is not None else numerics.tol
    max_iter = max_iter if max_iter is not None else numerics.max_iter
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sweep = sweep or Sweep(problem, numerics)
    traj = sweep.initial_iterate()
    control = None
    prev_update = None
    ratio = 0.0
    update = np.inf
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        new, control, _ = sweep.apply(traj, targets)
        update = sup_distance(new, traj)
        if it >= 2 and prev_update is not None and prev_update > 0:
            ratio = max(ratio, update / prev_update)
        prev_update = update
        traj = new
        iterations = it
        if update <= tol * max(1.0, path_sup_norm(traj)):
            converged = True
            break
    defects = _window_defects(problem, traj, targets)
    report = SolveReport(trajectory=traj, control=control, iterations=iterations,
                         final_update=float(update), per_window_defect=defects,
                         converged=converged, measured_ratio=float(ratio))
    if not converged and raise_on_fail:
        raise NonConvergenceError(report)
    return report


def _window_defects(problem: Problem, traj: PiecewiseTrajectory, targets) -> list:
    if targets is None:
        return []
    defects = []
    for j in range(problem.mesh.n_impulses + 1):
        k = 0 if j == 0 else 2 * j
        end_value = traj.seg_values[k][-1]
        defects.append(problem.norm(end_value - np.asarray(targets[j], dtype=float)))
    return defects


@dataclass
class TargetVerdict:
    """Per-window hit/miss decision plus the global verdicts."""

    defects: list
    hits: list
    tol_hit: float
    totally_controllable: bool
    exactly_controllable: bool

    def failed_windows(self) -> list:
        return [j for j, ok in enumerate(self.hits) if not ok]


def verify_targets(report: SolveReport, targets, tol_hit: float = 1e-6) -> TargetVerdict:
    """Check that every window endpoint hit its target.

    Refuses to judge a non-converged solve.  The final-window hit alone is
    the classical exact-controllability conclusion; all windows together
    give the total verdict, which implies the exact one.
    """
    if not report.converged:
        raise NonConvergenceError(report)
    if len(report.per_window_defect) != len(targets):
        raise ValueError("one target per control window required")
    hits = [d <= tol_hit for d in report.per_window_defect]
    return TargetVerdict(defects=list(report.per_window_defect), hits=hits,
                         tol_hit=tol_hit,
                         totally_controllable=all(hits),
                         exactly_controllable=bool(hits[-1]))
