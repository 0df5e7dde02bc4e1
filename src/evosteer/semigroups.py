"""Evaluators for the solution semigroup T(theta) and its adjoint.

Two backends:

* ``MatrixSemigroup`` -- T(theta) = expm(theta * A) for a dense generator A,
  by the package's own :func:`expm`.  The adjoint applies the same matrix
  transposed, so duality holds to round-off.
* ``ShiftSemigroup`` -- the left-shift semigroup of the transport equation on
  [0, pi]: (T(theta) v)(x) = v(x + theta), zero past pi.  States are sampled
  at the nodes x_i = i*pi/N, i = 0..N-1 (the outflow endpoint pi, where
  v(pi) = 0, is excluded); non-grid-aligned shifts interpolate linearly.
  The discrete inner product is the uniform rule h * sum(u_i v_i), which
  makes the matrix transpose the exact adjoint (a trapezoid half-weight at
  node 0 would break duality by O(h)).

Both expose a ``lag_table`` with the grid machinery the steering pipeline
needs: propagator action at every lag g * delta of a uniform window grid,
and the trapezoid sums on that grid, with the table's own ``weights``.
Lag-table data is immutable after construction; each table keeps its
convolution kernel's spectrum once formed.

A table's ``convolve(s, F)`` returns a window's whole mild-solution path
z_g = T(g delta) s + int_0^{g delta} T(g delta - r) f(r) dr, the integral
by the trapezoid rule, from one FFT product: with the start entering as an
impulse at r = 0 (A. Pazy, Semigroups of Linear Operators and Applications
to PDE, Springer 1983, ch. 4), z = delta * (K' * F') for g >= 1, where
K'_0 = I / 2 and K'_l = T(l delta) for l >= 1 (the trapezoid's end weight
on the newest sample), and F'_0 = F_0 / 2 + s / delta, F'_k = F_k for
k >= 1 (its end weight on the oldest sample, and the start).  delta is
folded into the kernel's spectrum, and row 0 is s itself.  ``fft_error``
bounds the rounding of one row relative to the sum of the magnitudes it
adds, |T(g delta)| |s| + delta sum_k |T((g-k) delta)| |F_k|, so the start's
share of a row is rounded like the forcing's.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FieldError

# Numerator coefficients b_0..b_13 of the [13/13] Pade approximant to exp and
# the 1-norm theta_13 up to which it is exact to double round-off
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring: the [13/13] Pade approximant of
    exp(A / 2^s), |A / 2^s|_1 <= theta_13, squared s times (N. J. Higham,
    SIAM J. Matrix Anal. Appl. 26, 2005)."""
    s = max(0, int(np.frexp(np.linalg.norm(A, 1) / _THETA13)[1]))
    A = A * 2.0 ** -s
    b, eye = _PADE13, np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def powers(P: np.ndarray, m: int, X: np.ndarray) -> np.ndarray:
    """The stack P^0 X..P^m X of a square P times a d x c block X, by
    batched doubling: with P^0 X..P^k X known, P^{k+1} X..P^{2k} X are P^k
    times P^1 X..P^k X, one matmul into the stack, and P^k is then squared,
    so ceil(log2 m) steps in all (N. J. Higham, Functions of Matrices, SIAM
    2008, ch. 4).  X = I gives the powers themselves."""
    stack = np.empty((m + 1,) + X.shape)
    stack[0] = X
    stack[1:2] = P @ X    # no row when m = 0
    Pk, k = P, 1    # Pk = P^k
    while k < m:
        n = min(k, m - k)
        np.matmul(Pk, stack[1:n + 1], out=stack[k + 1:k + n + 1])
        k += n
        if k < m:
            Pk = Pk @ Pk
    return stack


def fft_length(n: int) -> int:
    """The smallest 5-smooth integer >= n: numpy's FFT is several times
    slower at lengths with large prime factors."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def fft_row_sum_error(n: int, pairs: int) -> float:
    """c such that FFT row sums of at most ``pairs`` products of lags a >= 0
    and weights w >= 0 at length n are within c * sum (|a|_2 |w|_1 +
    |a|_1 |w|_2) of the exact sums.

    A computed DFT y = F x obeys |fl(y) - y|_2 <= e |y|_2, e = t eta /
    (1 - t eta), eta = u + gamma_4 (sqrt(2) + u), t = log2 n (N. J. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    24.1).  As |F a|_inf <= |a|_1, |F a|_2 = sqrt(n) |a|_2 and |a * w|_2 <=
    |a|_2 |w|_1, the transforms of a and w add e |a|_2 |w|_1 and
    e |a|_1 |w|_2, the products and their sum gamma_{pairs+3} |a|_2 |w|_1,
    the inverse e |a|_2 |w|_1; a 2-norm bound bounds every row.  The factor
    2 covers second-order terms, the last additions and mixed radices.
    """
    u = np.finfo(float).eps / 2
    t = np.log2(n)
    eta = u + 4 * u / (1 - 4 * u) * (np.sqrt(2.0) + u)
    e = t * eta / (1.0 - t * eta)
    k = pairs + 3
    return float(2.0 * (3.0 * e + k * u / (1.0 - k * u)))


def trapezoid_weights(m: int, delta: float) -> np.ndarray:
    w = np.full(m + 1, delta)
    w[0] = w[-1] = 0.5 * delta
    return w


def band_product(band: tuple, v: np.ndarray) -> np.ndarray:
    """M v for the N x N matrix M of ``band`` = (offsets, diagonals), M[i, i
    + offsets[k]] = diagonals[k, i], from slices of v zero-padded by the
    widest offsets: O(N) per diagonal, no N x N array."""
    offsets, diagonals = band
    N = len(v)
    lo, hi = -min(0, offsets.min(initial=0)), max(0, offsets.max(initial=0))
    vp = np.zeros(lo + N + hi)
    vp[lo:lo + N] = v
    out = np.zeros(N)
    for o, d in zip(offsets.tolist(), diagonals):
        out += d * vp[lo + o:lo + o + N]
    return out


def _shifted(v: np.ndarray, o: int, c: float) -> np.ndarray:
    """v shifted left by o + c nodes, interpolated linearly, zero past pi."""
    N = len(v)
    vp = np.pad(v, (0, o + 2))
    return (1.0 - c) * vp[o:o + N] + c * vp[o + 1:o + 1 + N]


def _shifted_adjoint(v: np.ndarray, o: int, c: float) -> np.ndarray:
    """The transpose of :func:`_shifted`: out[q] = (1-c) v[q-o] + c
    v[q-o-1]; the left pad of width o+2 absorbs the offset, so the slice is
    fixed."""
    N = len(v)
    vp = np.pad(v, (o + 2, 0))
    return (1.0 - c) * vp[2:2 + N] + c * vp[1:1 + N]


def _lag(theta: float, h: float) -> tuple:
    """A shift by theta on a grid of spacing h as whole nodes and the
    fraction of one: (o, c)."""
    if theta < 0:
        raise ValueError("semigroup time must be nonnegative")
    x = theta / h
    o = int(x)
    return o, x - o


def is_identity(M: np.ndarray) -> bool:
    """Whether the 2-D M is a square identity, tested without forming one:
    as many nonzero entries as rows, and every diagonal entry 1."""
    n = M.shape[0]
    return (M.shape == (n, n) and np.count_nonzero(M) == n
            and bool(np.all(M.diagonal() == 1.0)))


class MatrixLagTable:
    """Propagators T(g * delta) = E^g, E = expm(delta * A), for g = 0..m.

    The powers are formed once, by batched doubling (:func:`powers`), into
    ``stack``; the Gramian, the window sweep and the residual all read that
    one array.  ``growth`` = max(1, |E^m|_2) sets the convolution's tilt.
    ``fft_error`` is :func:`fft_row_sum_error` at the convolution's
    transform length, each row summing one product per state component.
    """

    def __init__(self, E: np.ndarray, m: int, delta: float):
        self.stack = powers(E, m, np.eye(E.shape[0]))
        self.m, self.delta = m, delta
        self.weights = trapezoid_weights(m, delta)
        self.growth = max(1.0, np.linalg.norm(self.stack[m], 2))
        self._n = fft_length(2 * m + 1)    # shorter circular lengths alias
        self.fft_error = fft_row_sum_error(self._n, E.shape[0])

    def apply(self, g: int, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):    # refused by the sweep
            return self.stack[g] @ v

    def gramian(self, B: np.ndarray) -> np.ndarray:
        """sum_g w_g (T(g*delta) B)(T(g*delta) B)^T, as one batched product."""
        M = self.stack @ B
        return (self.weights[:, None, None] * (M @ M.transpose(0, 2, 1))).sum(axis=0)

    def adjoint_evolve(self, v: np.ndarray) -> np.ndarray:
        """Rows T(g*delta)* v for g = 0..m."""
        return np.einsum("gji,j->gi", self.stack, v)

    def end_integral(self, F: np.ndarray) -> np.ndarray:
        """sum_k w_k T((m - k) delta) F_k, the trapezoid rule for the
        integral over the window of T(m delta - s) f(s), f sampled in F."""
        lags = self.m - np.arange(self.m + 1)
        return np.einsum("kij,kj->i", self.stack[lags], self.weights[:, None] * F)

    @functools.cached_property
    def _tilted_spectrum(self) -> tuple:
        """The tilt r^-g and the spectrum of delta times the tilted kernel
        stack, its lag-0 term halved, formed on the first convolve and
        kept: neither changes, and a run which only certifies pays
        nothing."""
        m = self.m
        tilt = self.growth ** (-np.arange(m + 1) / m)
        K = tilt[:, None, None] * self.stack
        K[0] *= 0.5
        K *= self.delta
        return tilt, np.fft.rfft(K, self._n, axis=0)

    def convolve(self, start: np.ndarray, F: np.ndarray) -> np.ndarray:
        """The path T(g*delta) start + int_0^{g*delta} T(g*delta - s) f(s) ds
        for every g, the integral by the trapezoid rule on f sampled
        row-wise in F, as one FFT product of the stack with F, the start
        folded into row 0.  FFT round-off is relative to the largest term,
        so lag g and row k are scaled by r^-g and r^-k and output row g by
        r^g, with r^m = max(1, |E^m|_2): each row keeps its own relative
        accuracy.  An overflow leaves the path non-finite, with no warning."""
        m, n = self.m, self._n
        assert F.shape[0] - 1 == m
        tilt, spec = self._tilted_spectrum
        with np.errstate(over="ignore", invalid="ignore"):
            Fw = tilt[:, None] * F
            Fw[0] = 0.5 * F[0] + start / self.delta    # tilt[0] = 1
            prod = np.einsum("fij,fj->fi", spec, np.fft.rfft(Fw, n, axis=0))
            out = np.fft.irfft(prod, n, axis=0)[:m + 1] / tilt[:, None]
        out[0] = start
        return out


class ShiftLagTable:
    """Interpolated-shift action at lags g * delta on the transport grid.

    Each lag is applied directly (a single linear interpolation), never by
    composing one-step shifts, so the semigroup evaluated here is exactly the
    backend's T at those lags.  ``fft_error`` is :func:`fft_row_sum_error`
    at the convolution's 2-D transform length, one product per frequency.
    """

    def __init__(self, N: int, h: float, delta: float, m: int):
        self.N, self.h, self.delta, self.m = N, h, delta, m
        self.weights = trapezoid_weights(m, delta)
        lag = np.arange(m + 1) * delta / h
        self.off = lag.astype(int)
        self.frac = lag - self.off
        self.pad = int(self.off[-1]) + 2
        # Circular lengths below (2m+1, N+P) would alias into the rows and
        # columns the convolution reads back.
        self._fft_shape = (fft_length(2 * m + 1), fft_length(N + self.pad))
        self.fft_error = fft_row_sum_error(self._fft_shape[0] * self._fft_shape[1], 1)

    def apply(self, g: int, v: np.ndarray) -> np.ndarray:
        """Forward shift of v by the lag g (zero past pi)."""
        return _shifted(v, self.off[g], self.frac[g])

    def gramian(self, B: np.ndarray) -> tuple:
        """sum_g w_g T(g*delta) T(g*delta)^T as its diagonal and first
        off-diagonal: with B = I, the only control matrix the shift
        backend takes, the Gramian is exactly tridiagonal.

        T(g*delta) = (1-c_g) S_o + c_g S_{o+1} with S_o the shift by o
        nodes and o = off_g, so entry i of the diagonal gains the lag's
        (1-c)^2 and c^2 weights while i + o < N and i + o + 1 < N, and the
        off-diagonal gains (1-c) c while i + 1 + o < N: running sums of
        the per-offset weights, in offset order, give the bits of adding
        each offset's weights in turn.
        """
        if not is_identity(B):
            raise ValueError("the shift backend takes only the identity as "
                             "its control matrix, whose Gramian is tridiagonal")
        N, P, off, c, w = self.N, self.pad, self.off, self.frac, self.weights
        diag = (np.bincount(off, w * (1.0 - c) ** 2, minlength=P)
                + np.bincount(off + 1, w * c ** 2, minlength=P))
        cross = np.bincount(off, w * (1.0 - c) * c, minlength=P)
        i = np.arange(N)
        return (np.cumsum(diag)[np.minimum(P - 1, N - 1 - i)],
                np.cumsum(cross)[np.minimum(P - 1, N - 2 - i[:-1])])

    def lag_band(self, rows, weights) -> tuple:
        """sum_r weights_r T(rows_r delta) as a band (see
        :func:`band_product`): the lag (1 - c) S_o + c S_{o+1}, S_o the
        shift by o whole nodes, puts (1 - c) on diagonal o and c on o + 1."""
        o, c, w = self.off[rows], self.frac[rows], np.asarray(weights, dtype=float)
        p = np.concatenate((o, o + 1))
        return self._band(p, p, np.concatenate((w * (1.0 - c), w * c)))

    def cross_gramian(self, rows, weights) -> tuple:
        """sum_r weights_r C_{rows_r} as a band (see :func:`band_product`),

            C_g = sum_{k <= g} w_k^(g) T((g - k) delta) T((m - k) delta)*,

        w^(g) the trapezoid rule on [0, g delta] (C_0 = 0): the steered
        path's row g gains C_g y from the feedback on the Gramian preimage
        y (:meth:`convolve` of the samples T((m - k) delta)* y).  The lags
        of each product differ by (m - g) delta, so its shift pairs S_p
        S_q^T, each the shift by p - q below row N - p, fill at most 4
        diagonals.  Each diagonal's entries are running sums over p, as in
        :meth:`gramian`."""
        off, c, m = self.off, self.frac, self.m
        g, k, w = self._trapezoid_rows(rows, weights)
        oa, ca, ob, cb = off[g - k], c[g - k], off[m - k], c[m - k]
        p = np.concatenate((oa, oa, oa + 1, oa + 1))
        q = np.concatenate((ob, ob + 1, ob, ob + 1))
        return self._band(p, p - q, np.concatenate((
            w * (1.0 - ca) * (1.0 - cb), w * (1.0 - ca) * cb,
            w * ca * (1.0 - cb), w * ca * cb)))

    def row_integral(self, F: np.ndarray, rows, weights) -> np.ndarray:
        """sum_r weights_r sum_{k <= r} w_k^(r) T((r - k) delta) F_k, w^(r)
        the trapezoid rule on [0, r delta]: the forcing's share of the
        rows of :meth:`convolve`, summed with ``weights``.  Each term is
        row k of F shifted by the lag r - k, read from one sliding window
        of the weighted rows."""
        g, k, w = self._trapezoid_rows(rows, weights)
        lag = g - k
        Fw = F[k]
        Fw *= w[:, None]
        win = sliding_window_view(np.pad(Fw, ((0, 0), (0, self.pad))), self.N + 1, axis=1)
        win = win[np.arange(len(k)), self.off[lag]]
        c = self.frac[lag, None]
        return np.sum((1.0 - c) * win[:, :-1] + c * win[:, 1:], axis=0)

    def end_integral(self, F: np.ndarray) -> np.ndarray:
        """sum_k w_k T((m - k) delta) F_k, the trapezoid rule for the
        integral over the window of T(m delta - s) f(s): the row integral
        of row m."""
        return self.row_integral(F, [self.m], [1.0])

    def _trapezoid_rows(self, rows, weights) -> tuple:
        """The terms of sum_r weights_r sum_{k <= r} w_k^(r) as three flat
        arrays (r, k, weights_r w_k^(r)), w^(r) the trapezoid rule on [0, r
        delta] and row 0's rule empty."""
        return tuple(np.concatenate(x) for x in zip(*[
            (np.full(r + 1, r), np.arange(r + 1),
             a * (r > 0) * trapezoid_weights(r, self.delta))
            for r, a in zip(rows, weights)]))

    def _band(self, p, d, w) -> tuple:
        """sum_t w_t S_{p_t} S_{p_t - d_t}^T as a band: entry (i, i + d) sums
        the w_t of diagonal d with i + p_t < N, by running sums of the
        per-p weights, and is 0 where column i + d is off the grid; a
        diagonal of zero weights only is left out."""
        N, P = self.N, self.pad
        live = w != 0.0
        offsets, diag = np.unique(d[live], return_inverse=True)
        p, w = p[live], w[live]
        sums = np.bincount(diag * P + p, w, minlength=len(offsets) * P)
        i = np.arange(N)
        bands = np.cumsum(sums.reshape(-1, P), axis=1)[:, np.minimum(P - 1, N - 1 - i)]
        col = i + offsets[:, None]
        bands[(col < 0) | (col >= N)] = 0.0
        return offsets, bands

    # each row interpolates a window of N + 1 padded values, gathered once
    def adjoint_evolve(self, v: np.ndarray) -> np.ndarray:
        win = sliding_window_view(np.pad(v, (self.pad, 0)), self.N + 1)
        win = win[self.pad - 1 - self.off]
        return (1.0 - self.frac[:, None]) * win[:, 1:] + self.frac[:, None] * win[:, :-1]

    @functools.cached_property
    def _kernel_spectrum(self) -> np.ndarray:
        """The spectrum of delta times the two-tap lag kernel, its lag-0 tap
        halved, formed on the first convolve and kept, so that a run which
        only certifies pays nothing."""
        m, P = self.m, self.pad
        g = np.arange(m + 1)
        K = np.zeros((m + 1, P + 1))
        K[g, P - self.off] = 1.0 - self.frac
        K[g, P - self.off - 1] = self.frac
        K[0] *= 0.5
        K *= self.delta
        return np.fft.rfft2(K, self._fft_shape)

    def convolve(self, start: np.ndarray, F: np.ndarray) -> np.ndarray:
        """The path T(g*delta) start + int_0^{g*delta} T(g*delta - s) f(s) ds
        for every g, the integral by the trapezoid rule, as one linear
        time-by-space convolution of F, the start folded into row 0, with
        the two-tap lag kernel, taken by FFT; returned as its own
        ``(m+1, N)`` array; an overflow leaves it non-finite, with no warning."""
        m, N, P = self.m, self.N, self.pad
        kernel = self._kernel_spectrum
        with np.errstate(over="ignore", invalid="ignore"):
            # rfft2's two passes, the first straight into the spectrum's rows
            # and the second in place over them and their zero padding
            spec = np.empty_like(kernel)
            np.fft.rfft(F, self._fft_shape[1], axis=1, out=spec[:m + 1])
            spec[0] = np.fft.rfft(0.5 * F[0] + start / self.delta, self._fft_shape[1])
            spec[m + 1:] = 0.0
            np.fft.fft(spec, axis=0, out=spec)
            spec *= kernel
            # irfft2's two passes, in place and with the last one on the rows
            # read back only: the same bits in less memory
            np.fft.ifft(spec, axis=0, out=spec)
            out = np.fft.irfft(spec[:m + 1], self._fft_shape[1], axis=1)[:, P:P + N].copy()
        out[0] = start
        return out


# The samples of |e^{tA}|_2 on [0, b] behind :meth:`MatrixSemigroup.bound`,
# and the relative margin on their computed norms: against scipy's expm at
# each sample, on generators of dimension 2 to 8 with norms up to 1e3 and
# sups up to 2e8, the norms were off by at most 1e-12 relative.
_K_SAMPLES = 1024
_K_MARGIN = 1e-9


def _norms(M: np.ndarray) -> np.ndarray:
    """The 2-norms of a stack of matrices: |M|_2^2 is the largest eigenvalue
    of M^T M."""
    return np.sqrt(np.linalg.eigvalsh(M.transpose(0, 2, 1) @ M)[:, -1])


class MatrixSemigroup:
    """Semigroup generated by a dense matrix A, evaluated by :func:`expm`;
    T(0) is the identity exactly, not the Pade quotient at 0."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise FieldError("generator", "generator must be a square matrix")
        if not np.all(np.isfinite(A)):
            raise FieldError("generator", "generator contains non-finite entries")
        self.A = A
        self.dim = A.shape[0]
        self.weight = 1.0
        self._bounds = {}

    def bound(self, b: float) -> float:
        """A true bound K >= |e^{tA}|_2 for every t in [0, b], kept per b.

        |e^{sA}|_2 <= e^{s mu}, mu = max(0, mu_2(A)), mu_2(A) the largest
        eigenvalue of (A + A^T)/2 (G. Soderlind, "The logarithmic norm.
        History and modern theory", BIT 46, 2006).  Over all of [0, b] that
        gives e^{b mu}, which for a non-normal A can be astronomically loose
        (L. N. Trefethen and M. Embree, Spectra and Pseudospectra, 2005).
        Between the samples t_k = k h, h = b / 1024, e^{tA} = e^{t_k A}
        e^{(t - t_k) A} gives max_k |e^{t_k A}|_2 e^{h mu}, with the samples
        the powers of expm(hA) (:func:`powers`) and their norms rounded up
        by ``_K_MARGIN``.  K is the smaller of the two: exactly 1.0 when mu
        = 0; past the largest double it is inf (min keeps K over a NaN sample).
        """
        if b not in self._bounds:
            with np.errstate(over="ignore", invalid="ignore"):
                A = self.A
                mu = max(0.0, float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1]))
                K = float(np.exp(b * mu))
                if mu != 0.0:
                    h = b / _K_SAMPLES
                    M = powers(expm(h * A), _K_SAMPLES, np.eye(self.dim))
                    # The norm of every sample, taken only where it can be the
                    # largest: sample 16 i + r, r < 16, is e^{r h A} e^{16 i h A},
                    # so a run of 16 samples whose product of norms, rounded up,
                    # stays below the largest norm at the multiples of 16 holds
                    # no larger one.
                    coarse, step = _norms(M[::16]), _norms(M[:16]).max()
                    top = coarse.max()
                    runs = np.repeat(step * coarse[:-1] * (1.0 + _K_MARGIN) >= top, 16)
                    sampled = max(top, _norms(M[:-1][runs]).max(initial=0.0))
                    K = min(K, float(sampled * (1.0 + _K_MARGIN) * np.exp(h * mu)))
            self._bounds[b] = K
        return self._bounds[b]

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

    def lag_table(self, delta: float, m: int) -> MatrixLagTable:
        return MatrixLagTable(self.propagator(delta), m, delta)


class ShiftSemigroup:
    """Left-shift (transport) semigroup on the truncated grid of [0, pi]."""

    def __init__(self, N: int):
        if N < 4:
            raise FieldError("N", "grid size N must be at least 4")
        self.N = N
        self.dim = N
        self.h = np.pi / N
        self.weight = self.h

    def bound(self, b: float) -> float:
        """K = 1 >= |T(t)|_2 on [0, b]: interpolated truncated shifts never
        amplify.  T(t) = (1 - c) S_o + c S_{o+1}, S_o the shift by o nodes,
        has rows and columns of absolute sum at most 1, and |T|_2^2 <=
        |T|_1 |T|_inf."""
        return 1.0

    def apply(self, theta: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.N,):
            raise ValueError(f"state dimension mismatch: {v.shape} vs {self.N}")
        return _shifted(v, *_lag(theta, self.h))

    def apply_adjoint(self, theta: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.N,):
            raise ValueError(f"state dimension mismatch: {v.shape} vs {self.N}")
        return _shifted_adjoint(v, *_lag(theta, self.h))

    def lag_table(self, delta: float, m: int) -> ShiftLagTable:
        return ShiftLagTable(self.N, self.h, delta, m)

