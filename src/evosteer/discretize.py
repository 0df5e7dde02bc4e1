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
from .semigroups import fft_length, fft_row_sum_error, trapezoid_weights

# The largest total of dense Volterra pair blocks (8 bytes per entry) a run
# may allocate; only intervals of unequal steps need them.
KERNEL_BYTES_LIMIT = 2 * 2 ** 30
# Two interval steps this many ulp apart or closer count as equal, so their
# block pair is Toeplitz.
STEP_ULPS = 4


def interval_times(mesh: TimeMesh, numerics: Numerics) -> list:
    """The sample grid of every mesh interval, in ``mesh.intervals()`` order:
    ``numerics.steps_for(length)`` uniform steps, both endpoints included.
    Control window j is interval 2j."""
    return [np.linspace(a, end, numerics.steps_for(end - a) + 1)
            for a, end, kind, j in mesh.intervals()]


@dataclass(frozen=True)
class WindowGrid:
    """Uniform tau-grid on one control window, with the lag-propagator table
    for T((end - tau_k)) shared by every integral on the window."""

    index: int
    times: np.ndarray
    table: object

    @property
    def m(self) -> int:
        return len(self.times) - 1


def build_window_grids(problem: Problem, numerics: Numerics) -> list:
    grids = []
    windows = zip(problem.mesh.control_windows(),
                  interval_times(problem.mesh, numerics)[::2])
    for j, ((a, end), times) in enumerate(windows):
        m = len(times) - 1
        table = problem.semigroup.lag_table((end - a) / m, m)
        grids.append(WindowGrid(index=j, times=times, table=table))
    return grids


def _delayed_forcing(fn, traj: PiecewiseTrajectory, times: np.ndarray) -> np.ndarray:
    """fn(t, x(t - beta)) on the whole grid ``times``, from one delayed read."""
    delayed = history_segment(traj, times, (-traj.beta,))[:, 0]
    out = np.asarray(fn(times, delayed), dtype=float)
    if out.shape != delayed.shape:
        raise ValueError(f"forcing returned shape {out.shape} for "
                         f"{len(times)} nodes, expected {delayed.shape}")
    return out


def eta_values(problem: Problem, traj: PiecewiseTrajectory,
               times: np.ndarray) -> np.ndarray:
    """Samples of the delayed nonlinearity eta(t, x(t - beta)) along a time
    grid."""
    if problem.nonlinearity is None:
        return np.zeros((len(times), problem.dim))
    return _delayed_forcing(problem.nonlinearity, traj, times)


def _kappa_values(kappa, s: np.ndarray) -> np.ndarray:
    """kappa at every entry of s, in one call on the array."""
    kap = np.asarray(kappa(s), dtype=float)
    if kap.shape != s.shape:
        raise ValueError(f"kernel returned shape {kap.shape} for lags of "
                         f"shape {s.shape}")
    return kap


class KernelDiscretization:
    """Volterra machinery for the integro variant on the global grid.

    The inner convolution int_0^{t_i} kappa(t_i - s) q(s, x(s - beta)) ds at
    a global node t_i is the trapezoid sum over every mesh interval before
    t_i's and over its own interval up to t_i.  Breakpoints carry both
    one-sided nodes; each interval is integrated with its own endpoints,
    which picks the correct side automatically.

    Interval b has nodes a_b + i delta_b.  When a target interval and a
    source interval share their step, kappa(t_i - s_k) depends on i - k
    only, so the pair is a Toeplitz product taken by FFT from the kernel's
    spectrum at the pair's m_bi + m_bk + 1 lags (Hairer, Lubich and
    Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): O(G) memory.  A pair
    whose steps differ (``ceil(length / time_step)`` rounded differently)
    keeps a dense block in ``dense_blocks``, the only storage that grows
    quadratically; more than ``KERNEL_BYTES_LIMIT`` of them is refused
    before any is built.  :meth:`inner_convolution`'s transient memory is one
    weighted spectrum of q per interval, a few times the size of q.

    ``kernel_mass`` is max_i sum_k w_ik |kappa(t_i - s_k)|, the sup-norm gain
    of this Volterra sum, from the same pair data, rounded up by a bound on
    the FFT's rounding error so that it never falls below the exact sum.
    """

    def __init__(self, problem: Problem, numerics: Numerics):
        if problem.kernel is None:
            raise ValueError("problem has no convolution kernel configured")
        self.problem = problem
        self.block_times = interval_times(problem.mesh, numerics)
        self._offsets = np.cumsum([0] + [len(t) for t in self.block_times])
        self.times = np.concatenate(self.block_times)
        steps = [(t[-1] - t[0]) / (len(t) - 1) for t in self.block_times]
        self._weights = [trapezoid_weights(len(t) - 1, d)
                         for t, d in zip(self.block_times, steps)]
        dense = {(bi, bk) for bi in range(len(steps)) for bk in range(bi)
                 if abs(steps[bi] - steps[bk])
                 > STEP_ULPS * np.spacing(max(steps[bi], steps[bk]))}
        dense_bytes = sum(8 * len(self.block_times[bi]) * len(self.block_times[bk])
                          for bi, bk in dense)
        if dense_bytes > KERNEL_BYTES_LIMIT:
            raise ValueError(
                f"numerics.time_step = {numerics.time_step:g} gives G = "
                f"{len(self.times)} kernel nodes on intervals of unequal "
                f"steps; their dense Volterra blocks need "
                f"{dense_bytes / 2 ** 30:.1f} GiB, above the "
                f"{KERNEL_BYTES_LIMIT / 2 ** 30:g} GiB limit")
        # One FFT length fits every pair without wrap-around: the lags of
        # pair (bi, bk) run over m_bi + m_bk + 1 consecutive offsets.
        n = self._n = fft_length(2 * max(len(t) for t in self.block_times) - 1)
        kappa = problem.kernel.kappa
        weight_spectra = [np.fft.rfft(w, n) for w in self._weights]
        weight_norms = [(w.sum(), np.sqrt(w @ w)) for w in self._weights]
        fft_error = fft_row_sum_error(n, len(self.block_times))
        self._spectra = []
        self._half_kappa0 = []
        self.dense_blocks = {}
        self.kernel_mass = 0.0
        for bi, (t, step) in enumerate(zip(self.block_times, steps)):
            spectra = []
            abs_spectrum = np.zeros(n // 2 + 1, dtype=complex)
            mass = np.zeros(len(t))
            spread = 0.0
            for bk, s in enumerate(self.block_times[:bi + 1]):
                if (bi, bk) in dense:
                    D = _kappa_values(kappa, np.maximum(t[:, None] - s[None, :], 0.0))
                    D *= self._weights[bk]
                    self.dense_blocks[bi, bk] = D
                    mass += np.abs(D).sum(axis=1)
                    continue
                d = np.arange(1 - len(s), len(t))
                h = _kappa_values(kappa, np.maximum((t[0] - s[0]) + d * step, 0.0))
                if bk == bi:
                    # The diagonal pair carries its interval's full trapezoid
                    # weights; the running rule ending at node i < m weighs
                    # q_i by delta/2, not delta (and row 0 by 0), corrected
                    # below and in inner_convolution.
                    h[d < 0] = 0.0
                    kappa0 = h[len(s) - 1]
                circ = np.zeros(n)
                circ[d] = h
                spectra.append((bk, np.fft.rfft(circ)))
                circ[d] = a = np.abs(h)
                abs_spectrum += np.fft.rfft(circ) * weight_spectra[bk]
                w1, w2 = weight_norms[bk]
                spread += np.sqrt(a @ a) * w1 + a.sum() * w2
            self._spectra.append(spectra)
            self._half_kappa0.append(0.5 * step * kappa0)
            mass += np.fft.irfft(abs_spectrum, n)[:len(t)]
            mass[:-1] -= 0.5 * step * abs(kappa0)
            self.kernel_mass = max(self.kernel_mass,
                                   float(mass.max() + fft_error * spread))

    def q_values(self, traj: PiecewiseTrajectory, rows: slice) -> np.ndarray:
        """q(t, x(t - beta)) at the global nodes ``rows`` (at least one),
        read one mesh interval at a time so that the read's temporaries stay
        interval-sized."""
        lo, hi, _ = rows.indices(len(self.times))
        parts = [t[max(lo - o, 0):max(hi - o, 0)]
                 for t, o in zip(self.block_times, self._offsets)]
        return np.concatenate([_delayed_forcing(self.problem.kernel.q, traj, t)
                               for t in parts if len(t)])

    def inner_convolution(self, q: np.ndarray) -> np.ndarray:
        """The forcing int_0^{t} kappa(t-s) q(s) ds at every global node,
        from the samples ``q`` at every global node.  Output interval bi
        reads only the samples of intervals up to bi, so its bits do not
        depend on later samples."""
        n = self._n
        Q = [np.fft.rfft(w[:, None] * q[self.block_slice(bk)], n, axis=0)
             for bk, w in enumerate(self._weights)]
        out = np.empty_like(q)
        for bi, spectra in enumerate(self._spectra):
            rows = self.block_slice(bi)
            y = np.fft.irfft(sum(S[:, None] * Q[bk] for bk, S in spectra),
                             n, axis=0)[:rows.stop - rows.start]
            y[:-1] -= self._half_kappa0[bi] * q[rows][:-1]
            out[rows] = y
        for (bi, bk), D in self.dense_blocks.items():
            out[self.block_slice(bi)] += D @ q[self.block_slice(bk)]
        return out

    def block_slice(self, interval_index: int) -> slice:
        return slice(self._offsets[interval_index], self._offsets[interval_index + 1])
