"""Picard iteration of the steered mild-solution operator.

One application of the operator maps an iterate x to the path z defined
branch-wise on the mesh:

* first window:   z = T(.)[phi(0) + nu(x)] + conv(B u + eta(., x_.)),
* impulse window: z(theta) = impulse_j(theta, x(theta_j-)),
* later windows:  z = T(. - lam_j) impulse_j(lam_j, x(theta_j-)) + conv(...),

with the feedback control u recomputed from the *current* iterate inside
every sweep (the steering residuals depend on x through the forcing, the
impulse values and the nonlocal coupling).  A sweep is one forward pass
over the mesh, in the order of the method of steps: each impulse window is
evaluated once, from the left value x(theta_j-) of the control window the
sweep has just written or kept, and each later control window starts at
the last sample of the impulse window before it.  So every path a sweep
hands out has each impulse window exactly its impulse map of the path's
own left value.  The first window starts at phi(0) + nu(x), or, where nu
samples that window's interior on the shift backend, one chord step
towards the start that nu reproduces, nu read off the discrete steered
window-0 path as predicted from the iterate's start with the sweep's own
forcing and the step taken with that prediction's exact Jacobian
(:meth:`Sweep._first_start`), which changes how the iteration reaches the
fixed point but not the fixed point: with every forcing row frozen, the
first sweep's step lands on it, and the second sweep keeps every window.
The fixed point is simultaneously a mild solution and a steered
trajectory, which is exactly the property the contraction certificate
predicts.  The integro variant's forcing is its pointwise map q, read as
eta is, convolved with its polynomial kernel by the running sums of
:class:`KernelDiscretization`; it drops the nonlocal term.

The fixed point is reached from any first iterate, which sets only how many
sweeps reach it, and every iterate the operator returns ends each control
window on its target.  The iteration starts from such a path
(:meth:`Sweep.initial_iterate`): each control window on the straight line
from its start to its target, on both backends.

The forcing reads x only at t - beta, which for t <= beta lies in the
fixed history: those rows are read once per run, the method of steps
(A. Bellen and M. Zennaro, Numerical Methods for Delay Differential
Equations, OUP 2003).  When no forcing row reads the iterate (every node
at t <= beta, or no pointwise map to read it) and there is no
nonlocal term, a sweep reads nothing of the iterate that can move, so the
next sweep would read what the first one read and return its path
unchanged: the iteration stops after one sweep with an update of exactly 0
(:func:`picard_solve`).  Control is recomputed only for the windows whose
inputs changed: a window whose forcing rows are all read from the history
keeps its forcing integral for the run, and its path and control while its
target stays bit for bit the same and its start moves by no more than its
lag table's FFT rounding bound relative to the start (see
:meth:`Sweep.apply`).  A window's path is one FFT product of its lag table
(``table.convolve(start, F)``).  The iteration needs only the current
iterate and the size of each step, so a sweep advances the iterate in
place: it writes only the intervals it recomputed, its solved control
windows and every impulse window, and takes the step and the iterate's sup
norm as it writes them; a kept window already holds its path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PiecewiseTrajectory
from .discretize import KernelDiscretization, eta_values, interval_times
from .gramian import (ControlSignal, assemble_all, steering_residual,
                      synthesize_control, window_start)
from .problems import Numerics, Problem
from .semigroups import ShiftLagTable, band_product


class NonConvergenceError(Exception):
    """Picard iteration exhausted max_iter without meeting the tolerance.

    Carries the solve's report, whose measured update ratio the caller can
    compare with the contraction certificate; :func:`runner.run` adds
    ``run``, the run up to the solve.
    """

    def __init__(self, report: "SolveReport"):
        self.report = report
        super().__init__(
            f"no convergence after {report.iterations_text()} "
            f"(last update {report.final_update:.3e}, "
            f"measured ratio {report.measured_ratio:.3f})")


@dataclass
class SolveReport:
    """Outcome of a Picard solve.  ``updates`` holds the update of every
    sweep run, in order, and ``window_solves_per_sweep`` the control
    windows each of them solved.  A ``final_update`` of exactly 0.0 means
    the trajectory is the operator's fixed point bit for bit: either the
    last sweep run kept every window and so rewrote the path with its own
    bits (its update, the last of ``updates``, is 0.0), or the solve
    stopped after one sweep because the next would read what it read (see
    :func:`picard_solve`), and ``iterations`` counts only the sweep run.
    Otherwise it is the last of ``updates``.  ``path_sup`` is the sup norm
    of ``trajectory`` off the history, as the last sweep took it.
    """

    trajectory: PiecewiseTrajectory
    control: ControlSignal
    iterations: int
    final_update: float
    path_sup: float
    updates: list
    per_window_defect: list
    converged: bool
    measured_ratio: float
    frozen_forcing_rows: int
    window_solves_per_sweep: list

    @property
    def window_solves(self) -> int:
        return sum(self.window_solves_per_sweep)

    def iterations_text(self) -> str:
        """The sweep count as text: "1 iteration", "7 iterations"."""
        n = self.iterations
        return f"{n} iteration{'' if n == 1 else 's'}"


class _Solved(NamedTuple):
    """What a control window was last solved from (its start, its target's
    bytes and its forcing integral) and the control it was solved to; its
    path is the one the iterate holds on its interval."""

    start: np.ndarray
    target: bytes
    integral: np.ndarray
    samples: np.ndarray
    preimage: np.ndarray


class Sweep:
    """The run's discretization -- the interval grids ``seg_times``, one lag
    table and Gramian block per control window (window j's grid is
    ``seg_times[2 * j]``) and, for the integro variant, the kernel sums --
    built once and shared by the certificate and every operator
    application, with the quantities no iterate changes: the forcing rows at
    nodes t <= beta and the windows solved from them.

    Refuses a Gramian below its invertibility floor with
    :class:`gramian.NotInvertibleError` before the kernel is built.
    """

    def __init__(self, problem: Problem, numerics: Numerics):
        self.problem = problem
        self.numerics = numerics
        self.intervals = problem.mesh.intervals()
        self.seg_times = interval_times(problem.mesh, numerics)
        windows = self.seg_times[::2]
        self.tables, self.blocks = assemble_all(problem, windows)
        self.kern = (KernelDiscretization(problem, self.seg_times)
                     if problem.variant == "integro" else None)
        # The forcing's nodes, sorted, so the rows at t <= beta lead: the
        # control windows' grids, or, for the kernel's running sums, every
        # interval's, in which window j's grid is the (2j)th.
        grids, step = (windows, 1) if self.kern is None else (self.seg_times, 2)
        self._nodes = np.concatenate(grids)
        first = np.cumsum([0] + [len(t) for t in grids])
        self._window_rows = [slice(first[step * j], first[step * j + 1])
                             for j in range(len(windows))]
        self.frozen_forcing_rows = int(np.searchsorted(self._nodes, problem.beta,
                                                       side="right"))
        # Window j's forcing reads the forcing rows up to its end only, its
        # last node (linspace stores the stop exactly).
        self._frozen_windows = [t[-1] <= problem.beta for t in windows]
        # Whether one sweep reaches the fixed point: no nonlocal term moves
        # the first window's start and no forcing row reads the iterate (a
        # live row of a pointwise map; without one, every row is 0).
        self.one_sweep = problem.nonlocal_term is None and not (
            self.frozen_forcing_rows < len(self._nodes)
            and problem.nonlinearity is not None)
        # The weights and instants of nu's samples that move with window
        # 0's start, where a sweep takes that start by a chord step
        # (see _first_start), else empty: nu samples window 0's interior
        # on the shift backend, with 2 sum |alpha_i| < 1 over those
        # samples.  An instant at 0, at theta_1 or past it reads the
        # history, the target or windows the target fixes, unless a live
        # forcing row carries window 0 into a later window.
        nu, theta_1 = problem.nonlocal_term, problem.mesh.points[1]
        self._chord = ()
        if nu is not None and isinstance(self.tables[0], ShiftLagTable):
            inside = [(a, t) for a, t in zip(nu.alphas, nu.instants)
                      if 0.0 < t < theta_1]
            if (inside and 2.0 * sum(abs(a) for a, _ in inside) < 1.0
                    and (len(inside) == len(nu.instants)
                         or self.frozen_forcing_rows == len(self._nodes))):
                self._chord = tuple(np.array(x) for x in zip(*inside))
        self._jacobian = None
        self._rows = None
        self._forcing = None
        self._solved = [None] * len(self.tables)
        # per interval, the largest row norm of the path it holds
        self._norms = [0.0] * len(self.intervals)
        self.window_solves = 0

    def initial_iterate(self, targets) -> PiecewiseTrajectory:
        """The first iterate, one pass over the mesh as a sweep makes it:
        window 0 starts at phi(0) + nu of the flat extension of phi(0), each
        impulse window is its impulse map of the previous window's last
        sample, and the next control window starts at that impulse window's
        last sample.  Each control window runs on the straight line from its
        start to its target, which it ends on exactly, as every iterate the
        steered operator returns ends it.  The paths serve only a nonlocal
        term and the size of the first update: a sweep starts each later
        window from the path it is advancing, whatever the first iterate,
        and where nu samples window 0's interior the first sweep's chord
        step (:meth:`_first_start`) moves window 0's start to the one nu
        reproduces.  No interval of it holds a solved path, so the sweep
        forgets the windows it kept."""
        problem = self.problem
        traj = PiecewiseTrajectory(
            problem.mesh, problem.beta,
            problem.sample_history(self.numerics.history_samples), self.seg_times,
            [np.tile(problem.phi0(), (len(t), 1)) for t in self.seg_times],
            weight=problem.state_weight)
        start = window_start(problem, traj)
        for k, (a, end, kind, j) in enumerate(self.intervals):
            times, piece = self.seg_times[k], traj.seg_values[k]
            if kind == "impulse":
                piece[...] = problem.impulse_path(j, times, traj.seg_values[k - 1][-1])
                start = piece[-1]
            else:
                # s runs from exactly 0 to exactly 1 (linspace stores both
                # ends), so the line starts on ``start`` and ends on the target
                s = ((times - a) / (end - a))[:, None]
                piece[...] = (1.0 - s) * start + s * np.asarray(targets[j], dtype=float)
        self._solved = [None] * len(self.tables)
        return traj

    def _first_start(self, traj: PiecewiseTrajectory, targets, forcing,
                     integral) -> np.ndarray:
        """Window 0's start for a sweep of ``traj``: phi(0) + nu(x), or, in
        a run whose nu = sum_i alpha_i x(t_i) moves with window 0's start
        on the shift backend (``_chord``), the chord step

            s + (I - J)^-1 (phi(0) + nu(P(s)) - s)

        from the iterate's own start s, towards the start that nu of its
        window's path reproduces (C. T. Kelley, Iterative Methods for Linear
        and Nonlinear Equations, SIAM 1995, ch. 5).  P(s) is window 0's
        discrete steered path from s with this sweep's forcing F (``forcing``,
        with its end integral I_F, ``integral``), predicted at the rows nu
        reads: rows j_i and j_i + 1 at fraction f_i
        (:meth:`PiecewiseTrajectory.locate`), summed with weights alpha_i (1
        - f_i) and alpha_i f_i into

            nu_in(P(s)) = Lag s + R(F) + C G^-1 (z_0 - T(L) s - I_F),

        Lag the sum of the lags T(g delta) (:meth:`ShiftLagTable.lag_band`),
        C of the cross-Gramians (:meth:`ShiftLagTable.cross_gramian`), R(F)
        of the forcing's rows (:meth:`ShiftLagTable.row_integral`), G the
        window's Gramian, z_0 its target and z_0 - T(L) s - I_F the
        window's steering residual (:func:`steering_residual`).  The
        instants outside (0, theta_1) read the iterate, as phi(0) + nu(x)
        does.  The predicted map is affine in s with Jacobian J = Lag - C
        G^-1 T(L), so the step lands, up to the series, on the start that nu
        reproduces with its window-0 reads taken on the path this sweep
        writes; where every forcing row is frozen (beta = b) the next sweep
        reads the same forcing and keeps window 0.  The sums over the
        samples are banded, built on the first sweep, so each
        product with J is O(N): two banded products, the shift T(L)
        (``table.apply``) and one LDL^T solve.  (I - J)^-1 is summed as its
        Neumann series until a term is at most eps max(|s|_inf, |phi(0) +
        nu(x)|_inf), eps = ``table.fft_error``: a start move the next
        sweep's keep rule ignores.  Each row of J is a shift, |T(g
        delta)|_inf <= 1, less a feedback term like it (measured at most
        1.24 for N = 16 to 256), so 2 sum |alpha_i| < 1 makes the terms
        shrink geometrically and bounds the count; a term that does not
        shrink leaves the plain start.  The fixed point, where the start is
        phi(0) + nu(x), is the plain iteration's; only the steps to it
        change."""
        start = window_start(self.problem, traj)
        if not self._chord:
            return start
        table: ShiftLagTable = self.tables[0]    # the chord step's backend
        alphas, instants = self._chord
        _, j, f = traj.locate(instants)
        rows = np.concatenate((j, j + 1))
        weights = np.concatenate((alphas * (1.0 - f), alphas * f))
        if self._jacobian is None:
            self._jacobian = (table.lag_band(rows, weights),
                              table.cross_gramian(rows, weights),
                              self.blocks[0].solve)
        lag, cross, solve = self._jacobian
        s = traj.seg_values[0][0]
        residual = steering_residual(s, targets[0], table, integral)
        predicted = (band_product(lag, s) + table.row_integral(forcing, rows, weights)
                     + band_product(cross, solve(residual)))
        bound = table.fft_error * max(np.abs(s).max(), np.abs(start).max())
        # phi(0) + nu(P(s)) - s: nu's reads of the iterate's window 0
        # swapped for those of the predicted path
        term = step = start - s + (predicted - weights @ traj.seg_values[0][rows])
        size = np.abs(term).max()
        while size > bound:
            term = (band_product(lag, term)
                    - band_product(cross, solve(table.apply(table.m, term))))
            step = step + term
            size, last = np.abs(term).max(), size
            if size >= last:    # |J|_inf >= 1: no series to sum
                return start
        return s + step

    def _integral(self, j: int, F: np.ndarray) -> np.ndarray:
        """Control window j's forcing integral for forcing F: the one it was
        last solved with while its forcing rows are all frozen, else
        ``end_integral(F)``."""
        kept = self._solved[j] if self._frozen_windows[j] else None
        if kept is not None:
            return kept.integral
        return self.tables[j].end_integral(F)

    def _forcings(self, traj: PiecewiseTrajectory) -> list:
        """The forcing on every control window's grid from the rows of the
        pointwise map, eta or q, at the forcing nodes: the rows at t <= beta
        read x(t - beta) from the history every path of the run shares, and
        take one read per run; the others take one read per call.  A
        window's forcing is a view of its rows, or, in the integro variant,
        of their Volterra sum, which with every row frozen is formed once,
        the rows then dropped."""
        K, G = self.frozen_forcing_rows, len(self._nodes)
        if self._forcing is not None and K == G:
            return self._forcing
        if self._rows is None:
            self._rows = np.empty((G, self.problem.dim))
            if K:
                self._rows[:K] = eta_values(self.problem, traj, self._nodes[:K])
        if K < G:
            self._rows[K:] = eta_values(self.problem, traj, self._nodes[K:])
        rows = self._rows
        if self.kern is not None:
            rows = self.kern.inner_convolution(rows)
            if K == G:
                self._rows = None
        self._forcing = [rows[r] for r in self._window_rows]
        return self._forcing

    def apply(self, traj: PiecewiseTrajectory, targets):
        """One application of the steered operator, one forward pass over
        the mesh, advancing ``traj`` in place: ``(update, norm, control)``,
        the sup distance of the new path to the old (``sup_distance``), the
        new path's sup norm (``path_sup_norm``), both bit for bit, and the
        synthesized control.

        What the sweep reads of the old path -- the forcing rows and the
        first window's start -- is read before the first write.  Each
        impulse window reads x(theta_j-) from the path being advanced: the
        last sample of the control window just written or kept.  Each
        recomputed interval is checked for finiteness and written, and its
        distance to the samples it replaced and its largest row norm are
        taken as it is written; the largest of per-interval maxima is the
        maximum over all samples.  An update or norm that overflows is
        refused (``ValueError``), not taken for convergence.

        A control window whose forcing rows are all frozen is kept, not
        written, while its target is bit for bit the one it was solved from
        and no component of its start has moved from the kept start s by
        more than eps |s|_inf, with eps = ``table.fft_error``, the bound on
        the relative rounding of one row of the window's convolution.  A
        later window starts at the impulse of the previous window's end
        value, which the steering puts onto that window's target whatever
        the iterate, so between sweeps such a start moves only by the
        rounding of the convolution that lands it there, while a move of the
        iterate itself is orders above eps.  Every step is deterministic, so
        an unmoved start gives the kept bits, and a start moved by round-off
        changes the outputs by round-off.  A bound that is too tight only
        forgoes the reuse.  A kept window adds an exact zero to the update
        and its kept row norm to the norm; ``traj`` must hold there the path
        it was solved to, as every path the sweep hands out does.
        """
        problem = self.problem
        forcings = self._forcings(traj)
        # window 0's forcing integral, which its chord step reads too
        integral_0 = self._integral(0, forcings[0])
        start = self._first_start(traj, targets, forcings[0], integral_0)
        update = 0.0
        for k, (a, end, kind, j) in enumerate(self.intervals):
            if kind == "impulse":
                path = problem.impulse_path(j, self.seg_times[k],
                                            traj.left_value_at_theta(j))
                start = path[-1].copy()    # a kept start holds no impulse path
            else:
                table = self.tables[j]
                # a frozen window's forcing is the same bits on every sweep
                kept = self._solved[j] if self._frozen_windows[j] else None
                target = np.asarray(targets[j], dtype=float).tobytes()
                if (kept is not None and kept.target == target
                        and np.abs(start - kept.start).max()
                        <= table.fft_error * np.abs(kept.start).max()):
                    continue
                self.window_solves += 1
                F = forcings[j]
                integral = integral_0 if j == 0 else self._integral(j, F)
                residual = steering_residual(start, targets[j], table, integral)
                samples, preimage = synthesize_control(problem, table,
                                                       self.blocks[j], residual)
                F = F + (samples if problem.identity_control
                         else samples @ problem.control_matrix.T)
                path = table.convolve(start, F)
                self._solved[j] = _Solved(start, target, integral, samples, preimage)
            if not np.all(np.isfinite(path)):
                raise ValueError("segment contains non-finite entries")
            piece = traj.seg_values[k]
            with np.errstate(over="ignore"):    # an overflow is refused below
                piece -= path    # the step, in the samples it then replaces
                update = max(update, np.linalg.norm(piece, axis=1).max())
                piece[...] = path
                self._norms[k] = np.linalg.norm(piece, axis=1).max()
        if not (np.isfinite(update) and np.isfinite(max(self._norms))):
            raise ValueError("the sweep's update or path sup norm overflows")
        control = ControlSignal(problem=problem,
                                window_times=self.seg_times[::2],
                                samples=[w.samples for w in self._solved],
                                preimages=[w.preimage for w in self._solved])
        scale = np.sqrt(traj.weight)
        return float(scale * update), float(scale * max(self._norms)), control


def picard_solve(sweep: Sweep, targets) -> SolveReport:
    """Iterate the sweep's steered operator to its fixed point.

    Starts from ``sweep.initial_iterate(targets)``: each control window
    runs on the straight line to its target, which it ends on, as in every
    iterate the operator returns.  Stops when the
    sup-norm update drops below ``numerics.tol`` relative to the iterate
    scale, or after the first sweep when the next would read exactly what
    it read (``Sweep.one_sweep``): without a nonlocal term the first
    window's start is phi(0), and with no forcing row reading the iterate
    nothing else a sweep reads of it can move.  Every step is deterministic,
    so that sweep would keep or re-solve every control window to the same
    bits and rewrite each impulse window with the same bits; its update is
    exactly 0, which is reported as ``final_update`` without running it.
    Raises :class:`NonConvergenceError` after ``numerics.max_iter``
    iterations without either.  The update ratio ||d_{k+1}||/||d_k|| is
    recorded from the second iteration onward as the measured contraction
    rate, and every sweep's update and window solves are kept in order: a
    solve whose second sweep keeps every window, the chord step having
    landed window 0's start in the first (Case 1 at beta = b), has one
    nonzero update and a ratio of 0.0.
    Each sweep advances the one iterate in place and gives the update and
    the iterate's norm (see :meth:`Sweep.apply`).
    """
    tol, max_iter = sweep.numerics.tol, sweep.numerics.max_iter
    traj = sweep.initial_iterate(targets)
    updates, solves = [], []
    ratio = 0.0
    update = np.inf
    converged = False
    for _ in range(max_iter):
        before = sweep.window_solves
        update, norm, control = sweep.apply(traj, targets)
        solves.append(sweep.window_solves - before)
        if updates and updates[-1] > 0:
            ratio = max(ratio, update / updates[-1])
        updates.append(update)
        if update <= tol * max(1.0, norm):
            converged = True
            break
        if sweep.one_sweep:
            update, converged = 0.0, True
            break
    defects = _window_defects(sweep.problem, traj, targets)
    report = SolveReport(trajectory=traj, control=control, iterations=len(updates),
                         final_update=float(update), path_sup=norm,
                         updates=updates, per_window_defect=defects,
                         converged=converged, measured_ratio=float(ratio),
                         frozen_forcing_rows=sweep.frozen_forcing_rows,
                         window_solves_per_sweep=solves)
    if not converged:
        raise NonConvergenceError(report)
    return report


def _window_defects(problem: Problem, traj: PiecewiseTrajectory, targets) -> list:
    defects = []
    for j in range(problem.mesh.n_impulses + 1):
        end_value = traj.seg_values[2 * j][-1]
        defects.append(problem.norm(end_value - np.asarray(targets[j], dtype=float)))
    return defects


@dataclass
class TargetVerdict:
    """Per-window hit/miss decision plus the global verdicts; the defects
    judged are the solve's ``per_window_defect``."""

    hits: list
    tol_hit: float
    totally_controllable: bool
    exactly_controllable: bool


TARGET_TOL = 1e-6    # the verdict's hit tolerance on a window's end defect


def verify_targets(report: SolveReport, targets) -> TargetVerdict:
    """Check that every window endpoint hit its target within ``TARGET_TOL``.

    Refuses to judge a non-converged solve.  The final-window hit alone is
    the classical exact-controllability conclusion; all windows together
    give the total verdict, which implies the exact one.
    """
    if not report.converged:
        raise NonConvergenceError(report)
    if len(report.per_window_defect) != len(targets):
        raise ValueError("one target per control window required")
    hits = [d <= TARGET_TOL for d in report.per_window_defect]
    return TargetVerdict(hits=hits, tol_hit=TARGET_TOL,
                         totally_controllable=all(hits),
                         exactly_controllable=bool(hits[-1]))
