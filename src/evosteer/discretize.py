"""Shared time discretization: window grids, forcing samples, kernel sums.

One tau-grid per mesh interval, built by :func:`interval_times`, is reused
for Gramian assembly, steering residuals, the kernel sums, the mild-solution
sweep and the oracle, so that feeding the synthesized control back through
the discrete solution operator reproduces the window targets to round-off
rather than only to quadrature order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PiecewiseTrajectory, TimeMesh, history_segment
from .problems import Numerics, Problem

# Rows of the Volterra kernel evaluated at once while it is built.
KERNEL_CHUNK_ROWS = 256
# The largest dense Volterra kernel (8*G^2 bytes) a run may allocate.
KERNEL_BYTES_LIMIT = 2 * 2 ** 30


def interval_times(mesh: TimeMesh, numerics: Numerics) -> list:
    """The sample grid of every mesh interval, in ``mesh.intervals()`` order:
    ``numerics.steps_for(length)`` uniform steps, both endpoints included.
    Control window j is interval 2j."""
    return [np.linspace(a, end, numerics.steps_for(end - a) + 1)
            for a, end, kind, j in mesh.intervals()]


def trapezoid_weights(m: int, delta: float) -> np.ndarray:
    w = np.full(m + 1, delta)
    w[0] = w[-1] = 0.5 * delta
    return w


@dataclass(frozen=True)
class WindowGrid:
    """Uniform tau-grid on one control window, with the lag-propagator table
    for T((end - tau_k)) shared by every integral on the window."""

    index: int
    start: float
    end: float
    times: np.ndarray
    table: object

    @property
    def m(self) -> int:
        return len(self.times) - 1

    @property
    def delta(self) -> float:
        return (self.end - self.start) / self.m

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.m, self.delta)


def build_window_grids(problem: Problem, numerics: Numerics) -> list:
    grids = []
    windows = zip(problem.mesh.control_windows(),
                  interval_times(problem.mesh, numerics)[::2])
    for j, ((a, end), times) in enumerate(windows):
        m = len(times) - 1
        table = problem.semigroup.lag_table((end - a) / m, m)
        grids.append(WindowGrid(index=j, start=a, end=end, times=times, table=table))
    return grids


def eta_values(problem: Problem, traj: PiecewiseTrajectory, times: np.ndarray,
               numerics: Numerics) -> np.ndarray:
    """Samples of the delayed nonlinearity eta(t, x_t) along a time grid."""
    if problem.nonlinearity is None:
        return np.zeros((len(times), problem.dim))
    H = numerics.history_samples
    out = np.empty((len(times), problem.dim))
    for i, t in enumerate(times):
        seg = history_segment(traj, float(t), samples=H)
        out[i] = problem.nonlinearity(float(t), seg)
    return out


class KernelDiscretization:
    """Volterra machinery for the integro variant on the global grid.

    Precomputes the lower-triangular matrix of kernel values times trapezoid
    weights so that one matrix product yields the inner convolution
    int_0^{t_i} kappa(t_i - s) q(s, x_s) ds at every global node t_i.
    Breakpoints carry both one-sided nodes; each interval is integrated with
    its own endpoints, which picks the correct side automatically.
    """

    def __init__(self, problem: Problem, numerics: Numerics):
        if problem.kernel is None:
            raise ValueError("problem has no convolution kernel configured")
        self.problem = problem
        self.numerics = numerics
        self.block_times = interval_times(problem.mesh, numerics)
        self._offsets = np.cumsum([0] + [len(t) for t in self.block_times])
        self.times = np.concatenate(self.block_times)
        G = len(self.times)
        if 8 * G * G > KERNEL_BYTES_LIMIT:
            raise ValueError(
                f"numerics.time_step = {numerics.time_step:g} gives G = {G} "
                f"kernel nodes; the dense Volterra kernel needs 8*G^2 = "
                f"{8 * G * G / 2 ** 30:.1f} GiB, above the "
                f"{KERNEL_BYTES_LIMIT / 2 ** 30:g} GiB limit")
        # Node s_k contributes to the integral ending at t_i only when its
        # interval lies fully before t_i or t_i is inside the same interval
        # past s_k; cumulative weights per target node encode this.  Rows are
        # filled a chunk at a time so that KW is the only G x G array.
        self.KW = np.empty((G, G))
        for r0 in range(0, G, KERNEL_CHUNK_ROWS):
            r1 = min(r0 + KERNEL_CHUNK_ROWS, G)
            diff = np.maximum(self.times[r0:r1, None] - self.times[None, :], 0.0)
            try:
                kap = np.asarray(problem.kernel.kappa(diff), dtype=float)
                if kap.shape != diff.shape:
                    raise TypeError
            except Exception:
                kap = np.vectorize(problem.kernel.kappa)(diff).astype(float)
            self.KW[r0:r1] = kap * self._cumulative_mask(r0, r1)

    def _cumulative_mask(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1 of the trapezoid weight mask."""
        M = np.zeros((r1 - r0, len(self.times)))
        for bi, t in enumerate(self.block_times):
            lo, hi = self._offsets[bi], self._offsets[bi + 1]
            m = len(t) - 1
            delta = (t[-1] - t[0]) / m
            # integrals ending inside this block: trapezoid over [t[0], t_i]
            for i in range(max(lo + 1, r0), min(hi, r1)):
                M[i - r0, lo:i + 1] = delta
                M[i - r0, lo] = M[i - r0, i] = 0.5 * delta
            # integrals ending in later blocks see the full block weights
            M[max(hi, r0) - r0:, lo:hi] = trapezoid_weights(m, delta)[None, :]
        return M

    def q_values(self, traj: PiecewiseTrajectory) -> np.ndarray:
        H = self.numerics.history_samples
        out = np.empty((len(self.times), self.problem.dim))
        for i, t in enumerate(self.times):
            seg = history_segment(traj, float(t), samples=H)
            out[i] = self.problem.kernel.q(float(t), seg)
        return out

    def inner_convolution(self, traj: PiecewiseTrajectory) -> np.ndarray:
        """The forcing int_0^{t} kappa(t-s) q(s, x_s) ds at every global node."""
        return self.KW @ self.q_values(traj)

    def block_slice(self, interval_index: int) -> slice:
        return slice(self._offsets[interval_index], self._offsets[interval_index + 1])
