"""Evaluators for the solution semigroup T(theta) and its adjoint.

Two backends:

* ``MatrixSemigroup`` -- T(theta) = expm(theta * A) for a dense generator A.
  The adjoint applies the same matrix transposed, so duality holds to
  round-off.
* ``ShiftSemigroup`` -- the left-shift semigroup of the transport equation on
  [0, pi]: (T(theta) v)(x) = v(x + theta), zero past pi.  States are sampled
  at the nodes x_i = i*pi/N, i = 0..N-1 (the outflow endpoint pi, where
  v(pi) = 0, is excluded); non-grid-aligned shifts interpolate linearly.
  The discrete inner product is the uniform rule h * sum(u_i v_i), which
  makes the matrix transpose the exact adjoint (a trapezoid half-weight at
  node 0 would break duality by O(h)).

Both expose a ``lag_table`` with the grid machinery the steering pipeline
needs: propagator action at every lag g * delta of a uniform window grid.
Lag-table data is immutable after construction.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


class MatrixLagTable:
    """Propagators T(g * delta) = E^g, E = expm(delta * A), for g = 0..m.

    Powers are accumulated by repeated multiplication so that the
    incremental window sweep and the Gramian assembly agree to round-off.
    """

    def __init__(self, E: np.ndarray, m: int):
        d = E.shape[0]
        self.delta_op = E
        self.stack = np.empty((m + 1, d, d))
        self.stack[0] = np.eye(d)
        for g in range(1, m + 1):
            self.stack[g] = E @ self.stack[g - 1]
        self.m = m

    def apply(self, g: int, v: np.ndarray) -> np.ndarray:
        return self.stack[g] @ v

    def apply_to_matrix(self, g: int, M: np.ndarray) -> np.ndarray:
        return self.stack[g] @ M

    def evolve(self, v: np.ndarray) -> np.ndarray:
        """Rows T(g*delta) v for g = 0..m."""
        return np.einsum("gij,j->gi", self.stack, v)

    def adjoint_evolve(self, v: np.ndarray) -> np.ndarray:
        """Rows T(g*delta)* v for g = 0..m."""
        return np.einsum("gji,j->gi", self.stack, v)

    def lagged_weighted_sum(self, lags: np.ndarray, F: np.ndarray,
                            w: np.ndarray) -> np.ndarray:
        """sum_k w_k T(lags_k * delta) F_k."""
        return np.einsum("kij,kj->i", self.stack[lags], w[:, None] * F)

    def convolve(self, F: np.ndarray, delta: float) -> np.ndarray:
        """Trapezoid approximations of int_0^{g*delta} T(g*delta - s) f(s) ds
        for every g, where f is sampled row-wise in F."""
        m = F.shape[0] - 1
        out = np.zeros_like(F)
        acc = 0.5 * F[0]
        for g in range(1, m + 1):
            acc = self.delta_op @ acc + F[g]
            out[g] = delta * (acc - 0.5 * F[g])
        return out


class ShiftLagTable:
    """Interpolated-shift action at lags g * delta on the transport grid.

    Each lag is applied directly (a single linear interpolation), never by
    composing one-step shifts, so the semigroup evaluated here is exactly the
    backend's T at those lags.
    """

    def __init__(self, N: int, h: float, delta: float, m: int):
        self.N, self.h, self.m = N, h, m
        lag = np.arange(m + 1) * delta / h
        self.off = lag.astype(int)
        self.frac = lag - self.off
        self.pad = int(self.off[-1]) + 2

    def _shift_rows(self, g: int, F: np.ndarray) -> np.ndarray:
        """Forward shift of each row of F by the lag g (zero past pi)."""
        o, c, N = self.off[g], self.frac[g], self.N
        Fp = np.pad(np.atleast_2d(F), ((0, 0), (0, o + 2)))
        return (1.0 - c) * Fp[:, o:o + N] + c * Fp[:, o + 1:o + 1 + N]

    def apply(self, g: int, v: np.ndarray) -> np.ndarray:
        return self._shift_rows(g, v[None, :])[0]

    def apply_to_matrix(self, g: int, M: np.ndarray) -> np.ndarray:
        return self._shift_rows(g, M.T).T

    def evolve(self, v: np.ndarray) -> np.ndarray:
        Vp = np.pad(v, (0, self.pad))
        idx = self.off[:, None] + np.arange(self.N)[None, :]
        return (1.0 - self.frac[:, None]) * Vp[idx] + self.frac[:, None] * Vp[idx + 1]

    def adjoint_evolve(self, v: np.ndarray) -> np.ndarray:
        Vp = np.pad(v, (self.pad, 0))
        idx = self.pad + np.arange(self.N)[None, :] - self.off[:, None]
        return (1.0 - self.frac[:, None]) * Vp[idx] + self.frac[:, None] * Vp[idx - 1]

    def lagged_weighted_sum(self, lags: np.ndarray, F: np.ndarray,
                            w: np.ndarray) -> np.ndarray:
        Fp = np.pad(w[:, None] * F, ((0, 0), (0, self.pad)))
        idx = self.off[lags][:, None] + np.arange(self.N)[None, :]
        lo = np.take_along_axis(Fp, idx, axis=1)
        hi = np.take_along_axis(Fp, idx + 1, axis=1)
        c = self.frac[lags][:, None]
        return np.sum((1.0 - c) * lo + c * hi, axis=0)

    def convolve(self, F: np.ndarray, delta: float) -> np.ndarray:
        m = F.shape[0] - 1
        conv = F.copy()
        ev0 = np.empty_like(F)
        ev0[0] = F[0]
        for g in range(1, m + 1):
            conv[g:] += self._shift_rows(g, F[:m + 1 - g])
            ev0[g] = self.apply(g, F[0])
        out = delta * (conv - 0.5 * (ev0 + F))
        out[0] = 0.0
        return out


class MatrixSemigroup:
    """Semigroup generated by a dense matrix A, evaluated via the scaled
    Pade matrix exponential."""

    def __init__(self, A: np.ndarray, bound: float | None = None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("generator must be a square matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("generator contains non-finite entries")
        self.A = A
        self.dim = A.shape[0]
        self.weight = 1.0
        self.bound = float(bound) if bound is not None else None

    def propagator(self, theta: float) -> np.ndarray:
        if theta < 0:
            raise ValueError("semigroup time must be nonnegative")
        return np.eye(self.dim) if theta == 0.0 else expm(theta * self.A)

    def apply(self, theta: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"state dimension mismatch: {v.shape} vs {self.dim}")
        if theta == 0.0:
            return v.copy()
        return self.propagator(theta) @ v

    def apply_adjoint(self, theta: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"state dimension mismatch: {v.shape} vs {self.dim}")
        if theta == 0.0:
            return v.copy()
        return self.propagator(theta).T @ v

    def operator_norm(self, theta: float) -> float:
        return float(np.linalg.norm(self.propagator(theta), 2))

    def lag_table(self, delta: float, m: int) -> MatrixLagTable:
        return MatrixLagTable(self.propagator(delta), m)


class ShiftSemigroup:
    """Left-shift (transport) semigroup on the truncated grid of [0, pi].

    A contraction semigroup: interpolated shifts never amplify, so the
    declared bound is exactly 1.
    """

    def __init__(self, N: int):
        if N < 4:
            raise ValueError("grid size N must be at least 4")
        self.N = N
        self.dim = N
        self.h = np.pi / N
        self.nodes = np.arange(N) * self.h
        self.weight = self.h
        self.bound = 1.0

    def _params(self, theta: float):
        if theta < 0:
            raise ValueError("semigroup time must be nonnegative")
        x = theta / self.h
        o = int(x)
        return o, x - o

    def apply(self, theta: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.N,):
            raise ValueError(f"state dimension mismatch: {v.shape} vs {self.N}")
        o, c = self._params(theta)
        vp = np.pad(v, (0, o + 2))
        return (1.0 - c) * vp[o:o + self.N] + c * vp[o + 1:o + 1 + self.N]

    def apply_adjoint(self, theta: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.N,):
            raise ValueError(f"state dimension mismatch: {v.shape} vs {self.N}")
        o, c = self._params(theta)
        # Transpose of the forward shift: out[q] = (1-c) v[q-o] + c v[q-o-1];
        # the left pad of width o+2 absorbs the offset, so the slice is fixed.
        vp = np.pad(v, (o + 2, 0))
        return (1.0 - c) * vp[2:2 + self.N] + c * vp[1:1 + self.N]

    def matrix(self, theta: float) -> np.ndarray:
        return np.column_stack([self.apply(theta, e) for e in np.eye(self.N)])

    def operator_norm(self, theta: float) -> float:
        return float(np.linalg.norm(self.matrix(theta), 2))

    def lag_table(self, delta: float, m: int) -> ShiftLagTable:
        return ShiftLagTable(self.N, self.h, delta, m)


def growth_bound(semigroup, grid) -> float:
    """Max operator norm of T(theta) over a grid of theta samples; used to
    validate the declared uniform bound."""
    return max(semigroup.operator_norm(float(t)) for t in grid)
