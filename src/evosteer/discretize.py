"""Shared time discretization: interval grids, forcing samples, kernel sums.

One tau-grid per mesh interval, built by :func:`interval_times`, is reused
for Gramian assembly and steering residuals (on each control window's lag
table, built from that window's grid), the forcing samples, the kernel
sums, the mild-solution sweep and the oracle, so that feeding the
synthesized control back through the discrete solution operator reproduces
the window targets to round-off rather than only to quadrature order.  Both
variants sample one pointwise map, eta or the integrand q
(:func:`eta_values`); the integro variant's Volterra sum of q on the
sweep's grids is a handful of running sums of its polynomial kernel
(:class:`KernelDiscretization`).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import PiecewiseTrajectory, TimeMesh, history_segment
from .problems import Numerics, Problem


def interval_times(mesh: TimeMesh, numerics: Numerics) -> list:
    """The sample grid of every mesh interval, in ``mesh.intervals()`` order:
    ``numerics.steps_for(length)`` uniform steps, both endpoints included.
    Control window j is interval 2j."""
    return [np.linspace(a, end, numerics.steps_for(end - a) + 1)
            for a, end, kind, j in mesh.intervals()]


def eta_values(problem: Problem, traj: PiecewiseTrajectory,
               times: np.ndarray) -> np.ndarray:
    """Samples of the delayed pointwise map -- eta, or the integro variant's
    integrand q -- fn(t, x(t - beta)) along a time grid, from one delayed
    read."""
    if problem.nonlinearity is None:
        return np.zeros((len(times), problem.dim))
    delayed = history_segment(traj, times, (-traj.beta,))[:, 0]
    out = np.asarray(problem.nonlinearity(times, delayed), dtype=float)
    if out.shape != delayed.shape:
        raise ValueError(f"forcing returned shape {out.shape} for "
                         f"{len(times)} nodes, expected {delayed.shape}")
    return out


def _expansion(coeffs) -> list:
    """The coefficients in s of P_l(s) = sum_{r >= l} c_r C(r, l) (-s)^(r - l)
    for l = 0..deg, lowest power first, so that kappa(t - s) = sum_l t^l
    P_l(s) for the polynomial kappa(s) = sum_r c_r s^r."""
    return [[coeffs[r] * comb(r, l) * (-1.0) ** (r - l)
             for r in range(l, len(coeffs))] for l in range(len(coeffs))]


class KernelDiscretization:
    """Volterra machinery for the integro variant on the global grid, the
    mesh intervals' grids ``block_times`` laid end to end.

    The inner convolution int_0^{t_i} kappa(t_i - s) q(s, x(s - beta)) ds at
    a global node t_i is the trapezoid sum over every mesh interval before
    t_i's and over its own interval up to t_i.  Breakpoints carry both
    one-sided nodes; each interval is integrated with its own endpoints and
    its own step, which picks the correct side automatically.

    The kernel is the polynomial kappa(s) = sum_r c_r s^r, so kappa(t_i -
    s) = sum_l t_i^l P_l(s) (:func:`_expansion`) and the sum at t_i is
    sum_l t_i^l times the trapezoid sum of P_l(s) q(s) up to t_i: running
    sums, one ``np.cumsum`` per interval that starts from the totals of the
    intervals before it.  For kappa(s) = s that is t_i A_i - B_i, with A and
    B the running trapezoid sums of q and s q.  Memory is O(G (deg + 1) dim)
    at every step, equal or not.

    ``kernel_mass`` is the same sums with |c_r| and q = 1: an upper bound on
    max_i sum_k w_ik |kappa(t_i - s_k)|, the sup-norm gain of this Volterra
    sum, exact when the coefficients share a sign.  It is rounded up by an
    a-priori bound on the sums' rounding error, so it never falls below the
    exact sum: every product term c_r C(r, l) s_k^(r-l) t_i^l w_ik passes
    through at most G + 4 (deg + 2) roundings, so the computed sum is within
    gamma_n = n u / (1 - n u) of sum_k w_ik sum_r |c_r| (t_i + s_k)^r <=
    b sum_r |c_r| (2 b)^r of the exact one (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, sections 3.1 and 5.1).
    """

    def __init__(self, problem: Problem, block_times: list):
        if problem.kernel is None:
            raise ValueError("problem has no convolution kernel configured")
        self.block_times = block_times
        self._offsets = np.cumsum([0] + [len(t) for t in block_times])
        self.times = np.concatenate(block_times)
        coeffs = problem.kernel
        self._expansion = _expansion(coeffs)
        abs_coeffs = [abs(c) for c in coeffs]
        mass = self._running_sums(_expansion(abs_coeffs),
                                  np.ones((len(self.times), 1)))
        n = len(self.times) + 4 * (len(coeffs) + 1)
        u = np.finfo(float).eps / 2
        b = self.times[-1]
        rounding = (n * u / (1 - n * u) * b
                    * sum(c * (2 * b) ** r for r, c in enumerate(abs_coeffs)))
        self.kernel_mass = float(mass.max() + rounding)

    def _running_sums(self, expansion: list, q: np.ndarray) -> np.ndarray:
        """sum_l t_i^l times the trapezoid sum of P_l(s) q(s) up to t_i at
        every global node t_i, P_l's coefficients from ``expansion``;
        interval bi's rows read only the samples of intervals up to bi."""
        out = np.empty_like(q)
        carry = np.zeros((len(expansion),) + q.shape[1:])
        for bi, t in enumerate(self.block_times):
            rows = self.block_slice(bi)
            P = np.stack([np.polyval(p[::-1], t) for p in expansion], axis=1)
            f = P[:, :, None] * q[rows][:, None, :]
            # row 0 the totals of the intervals before, row i >= 1 the
            # trapezoid piece on [t_{i-1}, t_i]; their running sum
            acc = np.empty_like(f)
            acc[0] = carry
            np.add(f[1:], f[:-1], out=acc[1:])
            acc[1:] *= 0.5 * (t[-1] - t[0]) / (len(t) - 1)
            np.cumsum(acc, axis=0, out=acc)
            carry = acc[-1]
            y = acc[:, -1]
            for l in range(acc.shape[1] - 2, -1, -1):    # Horner in t_i
                y = y * t[:, None] + acc[:, l]
            out[rows] = y
        return out

    def inner_convolution(self, q: np.ndarray) -> np.ndarray:
        """The forcing int_0^{t} kappa(t-s) q(s) ds at every global node,
        from the samples ``q`` at every global node.  Output interval bi
        reads only the samples of intervals up to bi, so its bits do not
        depend on later samples."""
        return self._running_sums(self._expansion, q)

    def block_slice(self, interval_index: int) -> slice:
        return slice(self._offsets[interval_index], self._offsets[interval_index + 1])
