"""Time meshes, piecewise trajectories, history segments and their norms.

The state trajectory of an impulsive delay system lives on [-beta, b]: a
history part on [-beta, 0] and one sampled path per mesh interval, with jump
discontinuities allowed at the interval breakpoints.  Evaluating at a
breakpoint returns the left limit; a separate accessor returns the right
limit.  State vectors are plain 1-D numpy arrays; the state inner product is
a (possibly scaled) Euclidean one, with the scale carried explicitly because
spatially discretized problems use grid-weighted L2 norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeMesh:
    """Breakpoints splitting (0, b] into control windows and impulse windows.

    theta[0] = lam[0] = 0 and theta[-1] = b; the interior points interleave
    strictly: theta[j] < lam[j] < theta[j+1].  Control windows are
    (lam[j], theta[j+1]] for j = 0..n, impulse windows (theta[j], lam[j]]
    for j = 1..n.
    """

    theta: tuple
    lam: tuple
    b: float

    def __post_init__(self):
        theta, lam = self.theta, self.lam
        if len(theta) != len(lam) + 1:
            raise ValueError("need one more theta instant than lambda instants")
        if theta[0] != 0.0 or lam[0] != 0.0:
            raise ValueError("mesh must start at theta_0 = lambda_0 = 0")
        if theta[-1] != self.b:
            raise ValueError(f"final instant {theta[-1]} != horizon b = {self.b}")
        if self.b <= 0:
            raise ValueError("horizon b must be positive")
        seq = [0.0]
        for j in range(1, len(theta)):
            seq.append(theta[j])
            if j < len(lam):
                seq.append(lam[j])
        if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"breakpoints must interleave strictly, got {seq}")

    @property
    def n_impulses(self) -> int:
        return len(self.lam) - 1

    def control_windows(self) -> list:
        """(lam[j], theta[j+1]] for j = 0..n, as (start, end) pairs."""
        return [(self.lam[j], self.theta[j + 1]) for j in range(self.n_impulses + 1)]

    def impulse_windows(self) -> list:
        """(theta[j], lam[j]] for j = 1..n."""
        return [(self.theta[j], self.lam[j]) for j in range(1, self.n_impulses + 1)]

    def intervals(self) -> list:
        """All intervals of (0, b] in order as (start, end, kind, j).

        kind is "control" or "impulse"; j indexes the window within its kind.
        """
        out = [(self.lam[0], self.theta[1], "control", 0)]
        for j in range(1, self.n_impulses + 1):
            out.append((self.theta[j], self.lam[j], "impulse", j))
            out.append((self.lam[j], self.theta[j + 1], "control", j))
        return out


def build_time_mesh(breakpoints, b: float) -> TimeMesh:
    """Build a TimeMesh from the flat increasing breakpoint list.

    ``breakpoints`` is [0, theta_1, lam_1, ..., theta_n, lam_n, b]; with no
    impulses it degenerates to [0, b].  Rejects lists that do not start at 0,
    do not end at b, or are not strictly increasing.
    """
    pts = [float(p) for p in breakpoints]
    if not pts:
        raise ValueError("breakpoint list is empty")
    if b <= 0:
        raise ValueError("horizon b must be positive")
    if len(pts) % 2 != 0:
        raise ValueError("breakpoint list must alternate theta/lambda instants "
                         f"(even length), got {len(pts)} points")
    if pts[0] != 0.0:
        raise ValueError("first breakpoint must be 0")
    if pts[-1] != b:
        raise ValueError(f"last breakpoint {pts[-1]} must equal the horizon b = {b}")
    theta = [0.0] + pts[1:-1:2] + [b] if len(pts) > 2 else [0.0, b]
    lam = [0.0] + pts[2:-1:2]
    return TimeMesh(theta=tuple(theta), lam=tuple(lam), b=b)


@dataclass(frozen=True)
class HistorySegment:
    """The delayed slice of a trajectory: samples of t -> x(t + kappa) for
    kappa on a uniform grid over [-beta, 0]."""

    samples: np.ndarray  # (H+1, dim)
    beta: float
    weight: float = 1.0

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] < 2:
            raise ValueError("segment needs at least two samples of shape (H+1, dim)")
        if self.beta <= 0:
            raise ValueError("delay length beta must be positive")


def segment_norm(seg: HistorySegment) -> float:
    """Time-averaged integral norm (1/beta) * int_{-beta}^0 |seg(kappa)| dkappa,
    by composite trapezoid on the segment grid."""
    norms = np.sqrt(seg.weight) * np.linalg.norm(seg.samples, axis=1)
    h = seg.beta / (len(norms) - 1)
    return float(np.trapezoid(norms, dx=h) / seg.beta)


class PiecewiseTrajectory:
    """A state path on [-beta, b]: history samples plus one uniform grid of
    samples per mesh interval, both one-sided values stored at breakpoints.

    Within an interval the path interpolates linearly; jumps occur only at
    breakpoints.  ``value(t)`` follows the left-limit convention at
    breakpoints (so x(theta_j) = x(theta_j-)); ``right_value(t)`` reads the
    other side.
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
        self.history = history
        self.seg_times = [np.asarray(t, dtype=float) for t in seg_times]
        self.seg_values = [np.asarray(v, dtype=float) for v in seg_values]
        self.weight = float(weight)
        self.dim = history.shape[1]
        for t, v in zip(self.seg_times, self.seg_values):
            if v.shape != (len(t), self.dim):
                raise ValueError("segment sample shape mismatch")
            if not np.all(np.isfinite(v)):
                raise ValueError("segment contains non-finite entries")
        self._ends = np.array([t[-1] for t in self.seg_times])
        self._starts = np.array([t[0] for t in self.seg_times])

    def history_times(self) -> np.ndarray:
        return np.linspace(-self.beta, 0.0, self.history.shape[0])

    def _eval_history(self, t: np.ndarray) -> np.ndarray:
        h = self.beta / (self.history.shape[0] - 1)
        pos = np.clip((t + self.beta) / h, 0.0, self.history.shape[0] - 1)
        j = np.minimum(pos.astype(int), self.history.shape[0] - 2)
        frac = (pos - j)[:, None]
        return (1.0 - frac) * self.history[j] + frac * self.history[j + 1]

    def _eval_segment(self, k: int, t: np.ndarray) -> np.ndarray:
        times, vals = self.seg_times[k], self.seg_values[k]
        m = len(times) - 1
        step = (times[-1] - times[0]) / m
        pos = np.clip((t - times[0]) / step, 0.0, m)
        j = np.minimum(pos.astype(int), m - 1)
        frac = (pos - j)[:, None]
        return (1.0 - frac) * vals[j] + frac * vals[j + 1]

    def values(self, t) -> np.ndarray:
        """Evaluate at an array of times in [-beta, b], left limits at
        breakpoints and history values for t <= 0."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < -self.beta - 1e-12) or np.any(t > self.mesh.b + 1e-12):
            raise ValueError("evaluation time outside [-beta, b]")
        out = np.empty((len(t), self.dim))
        hist = t <= 0.0
        if np.any(hist):
            out[hist] = self._eval_history(t[hist])
        rest = ~hist
        if np.any(rest):
            tr = t[rest]
            idx = np.searchsorted(self._ends, tr, side="left")
            idx = np.minimum(idx, len(self._ends) - 1)
            sub = np.empty((len(tr), self.dim))
            for k in np.unique(idx):
                sel = idx == k
                sub[sel] = self._eval_segment(k, tr[sel])
            out[rest] = sub
        return out

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([t]))[0]

    def right_value(self, t: float) -> np.ndarray:
        """Right limit x(t+), defined for t in [0, b)."""
        if t < 0.0 or t >= self.mesh.b:
            raise ValueError("right limit defined on [0, b)")
        k = int(np.searchsorted(self._starts, t, side="right") - 1)
        k = max(k, 0)
        if t >= self._ends[k]:
            k += 1
        return self._eval_segment(k, np.array([t]))[0]

    def left_value_at_theta(self, j: int) -> np.ndarray:
        """x(theta_j-), read from the stored left value (j = 1..n)."""
        k = 2 * j - 2  # interval preceding the j-th impulse window
        return self.seg_values[k][-1]

    def sample_stack(self) -> np.ndarray:
        """All stored samples on (0, b] as one array (for norms and updates)."""
        return np.concatenate(self.seg_values, axis=0)

    def with_values(self, seg_values: list) -> "PiecewiseTrajectory":
        return PiecewiseTrajectory(self.mesh, self.beta, self.history,
                                   self.seg_times, seg_values, self.weight)


def path_sup_norm(traj: PiecewiseTrajectory) -> float:
    """Supremum of pointwise state norms over all stored samples on [0, b],
    both one-sided breakpoint values included."""
    stack = traj.sample_stack()
    return float(np.sqrt(traj.weight) * np.max(np.linalg.norm(stack, axis=1)))


def sup_distance(a: PiecewiseTrajectory, b: PiecewiseTrajectory) -> float:
    """path_sup_norm of the sample-wise difference of two paths sharing grids."""
    d = a.sample_stack() - b.sample_stack()
    return float(np.sqrt(a.weight) * np.max(np.linalg.norm(d, axis=1)))


def history_segment(traj: PiecewiseTrajectory, t: float,
                    samples: int = 128) -> HistorySegment:
    """The slice kappa -> x(t + kappa) on [-beta, 0], sampled on a uniform
    grid; values below time 0 come from the stored history."""
    if t < 0.0 or t > traj.mesh.b + 1e-12:
        raise ValueError(f"segment base time {t} outside [0, b]")
    kappas = np.linspace(-traj.beta, 0.0, samples + 1)
    vals = traj.values(t + kappas)
    return HistorySegment(samples=vals, beta=traj.beta, weight=traj.weight)
