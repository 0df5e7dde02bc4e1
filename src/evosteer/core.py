"""Time meshes, piecewise trajectories, delayed reads and their norms.

The state trajectory of an impulsive delay system lives on [-beta, b]: a
history part on [-beta, 0] and one sampled path per mesh interval, with jump
discontinuities allowed at the interval breakpoints.  All of it is stored as
one stacked sample array; the history and the per-interval paths are views
into it, so a write through any of them is seen by every evaluation.  One
interpolation routine reads the path: at a breakpoint it returns the left
limit; the right limit is the next interval's first sample.  State vectors
are plain 1-D numpy arrays; the state inner product is a (possibly scaled)
Euclidean one, with the scale carried explicitly because spatially
discretized problems use grid-weighted L2 norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FieldError(ValueError):
    """An input out of range, raised by its owner; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class TimeMesh:
    """The breakpoints 0 = lam_0 < theta_1 < lam_1 < ... < theta_n < lam_n <
    theta_{n+1} = b as one increasing tuple ``points``; with no impulses it
    is (0, b).  Control windows are (lam_j, theta_{j+1}] for j = 0..n,
    impulse windows (theta_j, lam_j] for j = 1..n.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2 or len(pts) % 2:
            raise ValueError("breakpoint list must alternate theta/lambda "
                             f"instants (even length >= 2), got {len(pts)} points")
        if pts[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not (all(p < q for p, q in zip(pts, pts[1:])) and np.isfinite(pts[-1])):
            raise ValueError("breakpoints must be finite and interleave strictly, "
                             f"got {list(pts)}")

    @property
    def b(self) -> float:
        return self.points[-1]

    @property
    def lam(self) -> tuple:
        return self.points[0::2]

    @property
    def n_impulses(self) -> int:
        return len(self.points) // 2 - 1

    def control_windows(self) -> list:
        """(lam[j], theta[j+1]] for j = 0..n, as (start, end) pairs."""
        return list(zip(self.points[0::2], self.points[1::2]))

    def intervals(self) -> list:
        """All intervals of (0, b] in order as (start, end, kind, j).

        kind is "control" or "impulse"; j indexes the window within its kind.
        """
        return [(a, end, "impulse" if k % 2 else "control", (k + 1) // 2)
                for k, (a, end) in enumerate(zip(self.points, self.points[1:]))]


def segment_norm(samples: np.ndarray, beta: float) -> float:
    """Time-averaged integral norm (1/beta) * int_{-beta}^0 |x(kappa)| dkappa
    of a segment sampled as ``(k, dim)`` on a uniform grid over [-beta, 0],
    by composite trapezoid on that grid."""
    norms = np.linalg.norm(samples, axis=1)
    h = beta / (len(norms) - 1)
    return float(np.trapezoid(norms, dx=h) / beta)


class PiecewiseTrajectory:
    """A state path on [-beta, b]: history samples plus one uniform grid of
    samples per mesh interval, both one-sided values stored at breakpoints.

    All samples live in one stacked array, history first and the intervals
    after it in mesh order; ``history`` and ``seg_values[k]`` are views into
    it, so a write through them changes the path.  Within a piece the path
    interpolates linearly; jumps occur only at breakpoints.  ``value(t)``
    follows the left-limit convention at breakpoints (so x(theta_j) =
    x(theta_j-)); the right limit is the first sample of the next interval.
    """

    def __init__(self, mesh: TimeMesh, beta: float, history: np.ndarray,
                 seg_times: list, seg_values: list, weight: float = 1.0):
        if beta <= 0:
            raise ValueError("delay length beta must be positive")
        history = np.asarray(history, dtype=float)
        if history.ndim != 2 or history.shape[0] < 2:
            raise ValueError("history must be samples of shape (H+1, dim)")
        if not np.all(np.isfinite(history)):
            raise ValueError("history contains non-finite entries")
        if len(seg_times) != len(mesh.intervals()):
            raise ValueError("one sample grid per mesh interval required")
        self.mesh = mesh
        self.beta = float(beta)
        self.weight = float(weight)
        self.dim = history.shape[1]
        self.seg_times = [np.asarray(t, dtype=float) for t in seg_times]
        seg_values = [np.asarray(v, dtype=float) for v in seg_values]
        if [v.shape for v in seg_values] != [(len(t), self.dim) for t in self.seg_times]:
            raise ValueError("segment sample shape mismatch")
        self._values = np.concatenate([history] + seg_values)
        sizes = [len(history)] + [len(t) for t in self.seg_times]
        self._offsets = np.cumsum([0] + sizes)
        if not np.all(np.isfinite(self._values[self._offsets[1]:])):
            raise ValueError("segment contains non-finite entries")
        self.history = self._values[:self._offsets[1]]
        self.seg_values = [self._values[lo:hi] for lo, hi in
                           zip(self._offsets[1:-1], self._offsets[2:])]
        # per piece (history, then each interval): first and last time,
        # step count and step length
        self._first = np.array([-self.beta] + [t[0] for t in self.seg_times])
        self._ends = np.array([0.0] + [t[-1] for t in self.seg_times])
        self._m = np.array(sizes) - 1
        self._step = (self._ends - self._first) / self._m

    def history_times(self) -> np.ndarray:
        return np.linspace(-self.beta, 0.0, self.history.shape[0])

    def locate(self, t) -> tuple:
        """Where :meth:`values` reads an array of times in [-beta, b]:
        ``(p, j, frac)``, the piece ending at or after each time (0 the
        history, k + 1 interval k), the row j of it and the fraction of the
        step to row j + 1 (times within 1e-12 past either end clamp)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= -self.beta - 1e-12) & (t <= self.mesh.b + 1e-12)):
            raise ValueError("evaluation time outside [-beta, b]")
        p = np.minimum(np.searchsorted(self._ends, t), len(self._ends) - 1)
        m = self._m[p]
        pos = np.clip((t - self._first[p]) / self._step[p], 0.0, m)
        j = np.minimum(pos.astype(int), m - 1)
        return p, j, pos - j

    def values(self, t) -> np.ndarray:
        """Evaluate at an array of times in [-beta, b], left limits at
        breakpoints and history values for t <= 0: linear interpolation
        between the rows :meth:`locate` finds."""
        p, j, frac = self.locate(t)
        frac = frac[:, None]
        i = self._offsets[p] + j
        return (1.0 - frac) * self._values[i] + frac * self._values[i + 1]

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([t]))[0]

    def left_value_at_theta(self, j: int) -> np.ndarray:
        """x(theta_j-), read from the stored left value (j = 1..n)."""
        k = 2 * j - 2  # interval preceding the j-th impulse window
        return self.seg_values[k][-1]

    def sample_stack(self) -> np.ndarray:
        """All stored samples on (0, b] as one array view (for norms and
        updates)."""
        return self._values[self._offsets[1]:]


def path_sup_norm(traj: PiecewiseTrajectory) -> float:
    """Supremum of pointwise state norms over all stored samples on [0, b],
    both one-sided breakpoint values included."""
    return _sup_norm(traj.weight, traj.sample_stack())


def sup_distance(a: PiecewiseTrajectory, b: PiecewiseTrajectory) -> float:
    """path_sup_norm of the sample-wise difference of two paths sharing
    grids."""
    return _sup_norm(a.weight, a.sample_stack() - b.sample_stack())


def _sup_norm(weight: float, samples: np.ndarray) -> float:
    """sqrt(weight) times the largest row norm of ``samples``."""
    return float(np.sqrt(weight) * np.max(np.linalg.norm(samples, axis=1)))


def history_segment(traj: PiecewiseTrajectory, times, offsets) -> np.ndarray:
    """x(t_i + s_k) for every base time t_i in [0, b] and offset s_k in
    [-beta, 0], as one ``(len(times), len(offsets), dim)`` array from one
    read of the path; values below time 0 come from the stored history."""
    times = np.asarray(times, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if not np.all((times >= 0.0) & (times <= traj.mesh.b + 1e-12)):
        raise ValueError("segment base time outside [0, b]")
    vals = traj.values((times[:, None] + offsets[None, :]).ravel())
    return vals.reshape(len(times), len(offsets), traj.dim)
