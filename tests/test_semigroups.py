from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import expm as scipy_expm

from evosteer.config import load_config
from evosteer.semigroups import (MatrixLagTable, MatrixSemigroup, ShiftLagTable,
                                 ShiftSemigroup, band_product, expm, fft_length,
                                 powers, trapezoid_weights)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def recurrence_reference(table, F, delta):
    """The matrix trapezoid convolution as a one-step recurrence, acc_g =
    E acc_{g-1} + F_g from acc_0 = F_0 / 2, one mat-vec per grid step."""
    E = table.stack[1]
    out = np.zeros_like(F)
    acc = 0.5 * F[0]
    for g in range(1, F.shape[0]):
        acc = E @ acc + F[g]
        out[g] = delta * (acc - 0.5 * F[g])
    return out


def evolve(table, v):
    """Rows T(g*delta) v for g = 0..m, as the lag tables formed them before
    the start went through the convolution: the stack's products, or one
    gathered interpolation per shift lag."""
    if isinstance(table, MatrixLagTable):
        return np.einsum("gij,j->gi", table.stack, v)
    win = sliding_window_view(np.pad(v, (0, table.pad)), table.N + 1)[table.off]
    c = table.frac[:, None]
    return (1.0 - c) * win[:, :-1] + c * win[:, 1:]


def explicit_weight_gramian(table, B, w):
    """A lag table's Gramian with the weights w passed in, as the tables
    formed it before they kept their own trapezoid weights."""
    if isinstance(table, MatrixLagTable):
        M = table.stack @ B
        return (w[:, None, None] * (M @ M.transpose(0, 2, 1))).sum(axis=0)
    N, P, off, c = table.N, table.pad, table.off, table.frac
    diag = (np.bincount(off, w * (1.0 - c) ** 2, minlength=P)
            + np.bincount(off + 1, w * c ** 2, minlength=P))
    cross = np.bincount(off, w * (1.0 - c) * c, minlength=P)
    i = np.arange(N)
    return (np.cumsum(diag)[np.minimum(P - 1, N - 1 - i)],
            np.cumsum(cross)[np.minimum(P - 1, N - 2 - i[:-1])])


def lagged_weighted_sum(table, lags, F, w):
    """sum_k w_k T(lags_k * delta) F_k for any lags and weights, as the
    tables formed a window's forcing integral before ``end_integral``."""
    if isinstance(table, MatrixLagTable):
        return np.einsum("kij,kj->i", table.stack[lags], w[:, None] * F)
    Fp = np.pad(w[:, None] * F, ((0, 0), (0, table.pad)))
    win = sliding_window_view(Fp, table.N + 1, axis=1)
    win = win[np.arange(len(lags)), table.off[lags]]
    c = table.frac[lags][:, None]
    return np.sum((1.0 - c) * win[:, :-1] + c * win[:, 1:], axis=0)


def tilted_fft_reference(table, F, delta):
    """The matrix trapezoid convolution as it was formed before the start
    was folded in and the table kept its spectrum: the tilted stack
    transformed again on every call, row 0 zero."""
    m = table.m
    tilt = table.growth ** (-np.arange(m + 1) / m)
    Fw = tilt[:, None] * F
    Fw[0] *= 0.5
    n = fft_length(2 * m + 1)
    spec = np.fft.rfft(tilt[:, None, None] * table.stack, n, axis=0)
    prod = np.einsum("fij,fj->fi", spec, np.fft.rfft(Fw, n, axis=0))
    out = delta * (np.fft.irfft(prod, n, axis=0)[:m + 1] / tilt[:, None] - 0.5 * F)
    out[0] = 0.0
    return out


def shift_fft_reference(table, F, delta):
    """The shift trapezoid convolution as it was formed before the start
    was folded in: F and the two-tap kernel transformed in 2-D, and the
    trapezoid's end terms F_0 / 2 and F_g / 2 taken off afterwards."""
    m, N, P = table.m, table.N, table.pad
    g = np.arange(m + 1)
    K = np.zeros((m + 1, P + 1))
    K[g, P - table.off] = 1.0 - table.frac
    K[g, P - table.off - 1] = table.frac
    spec = np.fft.rfft2(F, table._fft_shape) * np.fft.rfft2(K, table._fft_shape)
    conv = np.fft.irfft2(spec, table._fft_shape)[:m + 1, P:P + N]
    out = delta * (conv - 0.5 * (evolve(table, F[0]) + F))
    out[0] = 0.0
    return out


def unfolded_path(table, start, F):
    """The window path as the solver formed it before the start was folded
    into the convolution: the evolved start plus the trapezoid sums."""
    convolve = (tilted_fft_reference if isinstance(table, MatrixLagTable)
                else shift_fft_reference)
    return evolve(table, start) + convolve(table, F, table.delta)


def folded_matrix_reference(table, start, F):
    """The matrix path with the tilted kernel transformed on every call:
    what a table's first convolve computes."""
    m, n, delta = table.m, fft_length(2 * table.m + 1), table.delta
    tilt = table.growth ** (-np.arange(m + 1) / m)
    K = tilt[:, None, None] * table.stack
    K[0] *= 0.5
    K *= delta
    Fw = tilt[:, None] * F
    Fw[0] = 0.5 * F[0] + start / delta
    prod = np.einsum("fij,fj->fi", np.fft.rfft(K, n, axis=0),
                     np.fft.rfft(Fw, n, axis=0))
    out = np.fft.irfft(prod, n, axis=0)[:m + 1] / tilt[:, None]
    out[0] = start
    return out


def sequential_powers(E, m):
    """The stack E^0..E^m by one product per step, as the matrix lag table
    formed it before batched doubling."""
    stack = np.empty((m + 1,) + E.shape)
    stack[0] = np.eye(E.shape[0])
    for g in range(1, m + 1):
        stack[g] = E @ stack[g - 1]
    return stack


LENGTHS = [0, 1, 2, 3, 8, 9, 64, 65, 512, 513]   # 0, 1, 2 and 2^k, 2^k + 1


class TestPowers:
    @pytest.mark.parametrize("m", LENGTHS)
    def test_jordan_block(self, m):
        g = np.arange(m + 1.0)
        want = np.zeros((m + 1, 2, 2))
        want[:, 0, 0] = want[:, 1, 1] = 1.0
        want[:, 0, 1] = g
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(powers(J, m, np.eye(2)), want)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_diagonal(self, m):
        g = np.arange(m + 1.0)
        want = np.zeros((m + 1, 2, 2))
        want[:, 0, 0], want[:, 1, 1] = 0.5 ** g, 2.0 ** g
        assert np.array_equal(powers(np.diag([0.5, 2.0]), m, np.eye(2)), want)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_quarter_turn(self, m):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        cycle = [np.eye(2), R, -np.eye(2), -R]
        want = np.array([cycle[g % 4] for g in range(m + 1)])
        assert np.array_equal(powers(R, m, np.eye(2)), want)

    @pytest.mark.parametrize("m", LENGTHS)
    def test_one_matmul_per_doubling(self, monkeypatch, m):
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *a, **k: calls.append(1) or matmul(*a, **k))
        powers(np.eye(3), m, np.eye(3))
        assert len(calls) == (int(np.ceil(np.log2(m))) if m > 1 else 0)

    def test_matches_sequential_products(self):
        # E = expm(delta * A) as the lag tables form it; each power agrees
        # with the one-product-per-step stack to 1e-11 of its 2-norm
        # (measured at most 1.8e-13 on 300 such matrices)
        rng = np.random.default_rng(32)
        for _ in range(40):
            d, m = int(rng.integers(2, 7)), int(rng.integers(1, 1600))
            A = rng.uniform(0.1, 3.0) * rng.normal(size=(d, d))
            E = expm(float(rng.uniform(1e-4, 5e-3)) * A)
            got, want = powers(E, m, np.eye(d)), sequential_powers(E, m)
            err = np.linalg.norm(got - want, 2, axis=(1, 2))
            assert np.all(err <= 1e-11 * np.linalg.norm(want, 2, axis=(1, 2)))


class TestExpm:
    def test_diagonal(self):
        d = np.array([-3.0, 0.0, 0.5, 7.0])
        np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", [0.3, 2.0, 40.0])
    def test_rotation(self, t):
        got = expm(np.array([[0.0, -t], [t, 0.0]]))
        want = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, t)

    @pytest.mark.parametrize("lam", [-4.0, 0.0, 1.5])
    def test_jordan_block(self, lam):
        # exp([[l, 1], [0, l]]) = e^l [[1, 1], [0, 1]]
        got = expm(np.array([[lam, 1.0], [0.0, lam]]))
        want = np.exp(lam) * np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_matches_scipy_on_random_matrices(self):
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(250):
            d = int(rng.integers(2, 7))
            A = rng.normal(size=(d, d))
            A *= rng.uniform(0.0, 30.0 * np.sqrt(d)) / np.linalg.norm(A, 2)
            ref = scipy_expm(A)
            worst = max(worst, np.linalg.norm(expm(A) - ref) / np.linalg.norm(ref))
        assert worst <= 1e-11

    def test_matches_scipy_on_lag_steps(self):
        # the lag tables exponentiate delta * A with delta a solver step
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            dA = float(rng.uniform(1e-4, 1e-3)) * rng.normal(size=(d, d))
            ref = scipy_expm(dA)
            assert np.linalg.norm(expm(dA) - ref) <= 1e-14 * np.linalg.norm(ref)


class TestMatrixBackend:
    def test_identity_at_zero(self):
        T = MatrixSemigroup(np.array([[0.3, 1.0], [0.0, -0.2]]))
        v = np.array([1.0, -2.0])
        assert np.array_equal(T.apply(0.0, v), v)
        assert np.array_equal(T.apply_adjoint(0.0, v), v)

    def test_scalar_exponential(self):
        a = -0.7
        T = MatrixSemigroup([[a]])
        for t in (0.1, 0.5, 1.3):
            assert T.apply(t, np.array([1.0]))[0] == pytest.approx(np.exp(a * t),
                                                                   rel=1e-13)

    def test_semigroup_law(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        A *= 1.5 / np.linalg.norm(A, 2)
        T = MatrixSemigroup(A)
        for _ in range(25):
            s, t = rng.uniform(0, 0.5, size=2)
            v = rng.normal(size=6)
            err = np.linalg.norm(T.apply(s + t, v) - T.apply(s, T.apply(t, v)))
            assert err <= 1e-10 * np.linalg.norm(v)

    def test_adjoint_is_transpose_action(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5, 5)) / 3.0
        T = MatrixSemigroup(A)
        for _ in range(25):
            u, v = rng.normal(size=5), rng.normal(size=5)
            t = float(rng.uniform(0, 1))
            gap = abs(T.apply(t, u) @ v - u @ T.apply_adjoint(t, v))
            assert gap <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_symmetric_generator_self_adjoint(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(4, 4))
        A = 0.5 * (S + S.T)
        T = MatrixSemigroup(A)
        v = rng.normal(size=4)
        np.testing.assert_allclose(T.apply(0.4, v), T.apply_adjoint(0.4, v),
                                   rtol=1e-12)

    def test_rejects_bad_input(self):
        T = MatrixSemigroup(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            T.apply(-0.1, np.zeros(3))
        with pytest.raises(ValueError):
            T.apply(0.5, np.zeros(4))
        with pytest.raises(ValueError):
            MatrixSemigroup(np.zeros((2, 3)))

    def test_strong_continuity_proxy(self):
        T = MatrixSemigroup(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        v = np.array([1.0, 0.5])
        gaps = [np.linalg.norm(T.apply(d, v) - v) for d in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("scale", [0.5, 1.0, 5.0, 50.0])
    def test_bound_skips_only_runs_below_the_max(self, scale):
        # the norms skipped in runs of 16 samples change no bit of K: it is
        # the formula over every one of the 1025 samples
        rng = np.random.default_rng(int(scale * 10))
        for d in range(2, 7):
            A = scale * rng.normal(size=(d, d)) / np.sqrt(d)
            mu = max(0.0, np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
            M = powers(expm(A / 1024), 1024, np.eye(d))
            every = np.sqrt(np.linalg.eigvalsh(M.transpose(0, 2, 1) @ M)[:, -1]).max()
            want = min(np.exp(mu), every * (1.0 + 1e-9) * np.exp(mu / 1024))
            assert MatrixSemigroup(A).bound(1.0) == want

    def test_bound_is_computed_once_per_horizon(self, monkeypatch):
        from evosteer import semigroups
        calls = []
        monkeypatch.setattr(semigroups, "expm",
                            lambda A: calls.append(A) or expm(A))
        T = MatrixSemigroup(np.array([[-5.0, 100.0], [0.0, -5.0]]))
        K = T.bound(1.0)
        assert (T.bound(1.0), len(calls)) == (K, 1)
        assert T.bound(0.5) < K and len(calls) == 2

    def test_declared_bound_never_exceeded(self):
        # the logarithmic-norm bound e^{t mu_2(A)}, the whole-horizon branch
        # of MatrixSemigroup.bound
        rng = np.random.default_rng(15)
        for _ in range(5):
            A = rng.normal(size=(5, 5)) / 2.0
            T = MatrixSemigroup(A)
            mu = np.linalg.eigvalsh(0.5 * (A + A.T))[-1]
            for t in np.linspace(0.0, 1.0, 257):
                measured = np.linalg.norm(T.propagator(float(t)), 2)
                assert measured <= np.exp(t * max(0.0, mu)) * (1 + 1e-12)


class TestShiftBackend:
    def test_grid_aligned_shift(self):
        T = ShiftSemigroup(4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(T.apply(np.pi / 4, v), [2.0, 3.0, 4.0, 0.0])

    def test_grid_aligned_adjoint(self):
        T = ShiftSemigroup(4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(T.apply_adjoint(np.pi / 4, v),
                                   [0.0, 1.0, 2.0, 3.0])

    def test_identity_and_nilpotent_horizon(self):
        T = ShiftSemigroup(64)
        rng = np.random.default_rng(5)
        v = rng.normal(size=64)
        np.testing.assert_array_equal(T.apply(0.0, v), v)
        np.testing.assert_array_equal(T.apply(np.pi, v), np.zeros(64))

    def test_duality_with_interpolation(self):
        T = ShiftSemigroup(16)
        rng = np.random.default_rng(6)
        for _ in range(30):
            u, v = rng.normal(size=16), rng.normal(size=16)
            t = float(rng.uniform(0, np.pi))
            lhs = T.weight * (T.apply(t, u) @ v)
            rhs = T.weight * (u @ T.apply_adjoint(t, v))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_contraction(self):
        T = ShiftSemigroup(32)
        rng = np.random.default_rng(7)
        for _ in range(30):
            v = rng.normal(size=32)
            t = float(rng.uniform(0, 1.2))
            assert np.linalg.norm(T.apply(t, v)) <= np.linalg.norm(v) + 1e-12
        for t in np.linspace(0, 1, 9):
            M = np.column_stack([T.apply(t, e) for e in np.eye(32)])
            assert np.linalg.norm(M, 2) <= 1.0 + 1e-12

    def test_bound_is_a_true_bound(self):
        # K = 1 bounds |T(g delta)|_2 at every lag of an N = 16 table, whole
        # and fractional shifts and shifts past pi alike
        T = ShiftSemigroup(16)
        table = T.lag_table(0.037, 100)
        assert T.bound(3.7) == 1.0
        for g in range(table.m + 1):
            dense = np.column_stack([table.apply(g, e) for e in np.eye(16)])
            assert np.linalg.norm(dense, 2) <= 1.0

    def test_aligned_composition_exact(self):
        T = ShiftSemigroup(8)
        h = np.pi / 8
        v = np.arange(8.0)
        lhs = T.apply(3 * h, v)
        rhs = T.apply(h, T.apply(2 * h, v))
        np.testing.assert_array_equal(lhs, rhs)

    def test_strong_continuity_proxy(self):
        T = ShiftSemigroup(64)
        nodes = np.arange(64) * np.pi / 64
        v = np.sin(nodes)
        gaps = [np.linalg.norm(T.apply(d, v) - v) for d in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestLagTables:
    def test_matrix_table_matches_direct_powers(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(4, 4)) / 2.0
        T = MatrixSemigroup(A)
        table = T.lag_table(0.05, 20)
        v = rng.normal(size=4)
        for g in (0, 1, 7, 20):
            np.testing.assert_allclose(table.apply(g, v), T.apply(0.05 * g, v),
                                       rtol=1e-11, atol=1e-12)

    def test_shift_table_matches_direct(self):
        T = ShiftSemigroup(16)
        table = T.lag_table(0.013, 40)
        rng = np.random.default_rng(9)
        v = rng.normal(size=16)
        for g in (0, 1, 17, 40):
            assert np.array_equal(table.apply(g, v), T.apply(0.013 * g, v))
        F = rng.normal(size=(41, 16))
        ev = table.convolve(v, np.zeros_like(F))    # the free path from v
        adj = table.adjoint_evolve(v)
        for g in (0, 3, 40):
            np.testing.assert_allclose(ev[g], T.apply(0.013 * g, v), atol=1e-14)
            np.testing.assert_allclose(adj[g], T.apply_adjoint(0.013 * g, v),
                                       atol=1e-14)
        lags = 40 - np.arange(41)
        w = trapezoid_weights(40, 0.013)
        expected = sum(w[k] * T.apply(0.013 * lags[k], F[k]) for k in range(41))
        np.testing.assert_allclose(table.end_integral(F), expected, atol=1e-12)

    @pytest.mark.parametrize("N, m", [(256, 300), (64, 1200), (16, 10)])
    def test_shift_gathers_match_index_arrays(self, N, m):
        # adjoint_evolve, end_integral and the tests' evolve read windows of
        # the padded vector; the same bits as gathering through index arrays
        table = ShiftSemigroup(N).lag_table(0.45 / m, m)
        assert np.count_nonzero(table.frac) > m // 2
        rng = np.random.default_rng(14)
        v, F, w = rng.normal(size=N), rng.normal(size=(m + 1, N)), table.weights
        off, c, P = table.off[:, None], table.frac[:, None], table.pad
        cols = np.arange(N)[None, :]
        Vp = np.pad(v, (0, P))
        assert np.array_equal(evolve(table, v), (1.0 - c) * Vp[off + cols]
                              + c * Vp[off + cols + 1])
        Vp = np.pad(v, (P, 0))
        assert np.array_equal(table.adjoint_evolve(v), (1.0 - c) * Vp[P + cols - off]
                              + c * Vp[P + cols - off - 1])
        lags = m - np.arange(m + 1)
        Fp = np.pad(w[:, None] * F, ((0, 0), (0, P)))
        idx = table.off[lags][:, None] + cols
        cl = table.frac[lags][:, None]
        want = np.sum((1.0 - cl) * np.take_along_axis(Fp, idx, axis=1)
                      + cl * np.take_along_axis(Fp, idx + 1, axis=1), axis=0)
        assert np.array_equal(table.end_integral(F), want)

    @pytest.mark.parametrize("backend, d, m", [
        ("matrix", 2, 8), ("matrix", 5, 37), ("matrix", 17, 300),
        ("matrix", 3, 1501), ("shift", 16, 8), ("shift", 64, 1200),
        ("shift", 256, 300), ("shift", 16, 1501)])
    def test_own_weights_match_explicit_weights(self, backend, d, m):
        # a table's Gramian and end integral, on its own trapezoid weights,
        # are the bits of the explicit-weight formulas they replace
        rng = np.random.default_rng(d * m)
        delta = rng.uniform(0.2, 1.2) / m
        if backend == "matrix":
            table = MatrixSemigroup(rng.normal(size=(d, d))).lag_table(delta, m)
            B = rng.normal(size=(d, max(1, d - 1)))
        else:
            table, B = ShiftSemigroup(d).lag_table(delta, m), np.eye(d)
        w = trapezoid_weights(m, delta)
        assert np.array_equal(table.weights, w)
        want = explicit_weight_gramian(table, B, w[::-1])
        got = table.gramian(B if backend == "matrix" else None)
        for a, b in (zip(got, want) if backend == "shift" else [(got, want)]):
            assert np.array_equal(a, b)
        F = rng.normal(size=(m + 1, d)) * np.exp(rng.normal(size=(m + 1, 1)))
        assert np.array_equal(table.end_integral(F),
                              lagged_weighted_sum(table, m - np.arange(m + 1), F, w))

    def test_convolution_matches_quadrature(self):
        # matrix backend: trapezoid sum built lag-by-lag equals the fused sweep
        rng = np.random.default_rng(10)
        A = rng.normal(size=(3, 3)) / 2.0
        T = MatrixSemigroup(A)
        m, delta = 24, 0.02
        table = T.lag_table(delta, m)
        F, start = rng.normal(size=(m + 1, 3)), rng.normal(size=3)
        out = table.convolve(start, F)
        for i in (1, 5, m):
            w = np.full(i + 1, delta)
            w[0] = w[-1] = delta / 2
            direct = table.apply(i, start) + sum(w[k] * table.apply(i - k, F[k])
                                                 for k in range(i + 1))
            np.testing.assert_allclose(out[i], direct, rtol=1e-11, atol=1e-13)
        assert np.array_equal(out[0], start)

    @pytest.mark.parametrize("A, m, delta", [
        ([[-0.7]], 8, 0.1),
        (None, 1500, 3e-4),                         # random 6 x 6
        ([[-5.0, 100.0], [0.0, -5.0]], 5000, 2e-4),  # non-normal hump
        ([[-400.0, 0.0], [0.0, -1.0]], 1500, 1e-3),  # stiff
        ([[35.0, 1.0], [0.0, -1.0]], 1500, 1 / 1500),  # |E^m| about e^35
    ], ids=["d1-m8", "random6-m1500", "non-normal", "stiff", "growing"])
    def test_matrix_convolution_matches_recurrence(self, A, m, delta):
        # The FFT's round-off is relative to the largest term it sums; the
        # tilt keeps every row within 1e-12 of its own absolute sum
        # |E^g|_2 |s| + delta * sum_k |E^{g-k}|_2 |F_k|.  Without the tilt
        # the growing case misses by 0.31.
        rng = np.random.default_rng(13)
        A = rng.normal(size=(6, 6)) / 2.0 if A is None else np.array(A)
        table = MatrixSemigroup(A).lag_table(delta, m)
        F, start = rng.normal(size=(m + 1, A.shape[0])), rng.normal(size=A.shape[0])
        got = table.convolve(start, F)
        want = evolve(table, start) + recurrence_reference(table, F, delta)
        err = np.linalg.norm(got - want, axis=1)
        norms = np.linalg.norm(table.stack, 2, axis=(1, 2))
        size = (norms * np.linalg.norm(start)
                + delta * np.convolve(norms, np.linalg.norm(F, axis=1))[:m + 1])
        assert np.all(err[1:] <= 1e-12 * size[1:])
        assert np.array_equal(got[0], start)

    def test_matrix_convolution_reads_its_growth_once(self, monkeypatch):
        rng = np.random.default_rng(14)
        table = MatrixSemigroup(rng.normal(size=(3, 3))).lag_table(1e-2, 50)
        F, start = rng.normal(size=(51, 3)), rng.normal(size=3)
        want = table.convolve(start, F)
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: pytest.fail("norm"))
        assert np.array_equal(table.convolve(start, F), want)

    def test_shift_convolution_matches_quadrature(self):
        T = ShiftSemigroup(12)
        m, delta = 18, 0.04
        table = T.lag_table(delta, m)
        rng = np.random.default_rng(11)
        F, start = rng.normal(size=(m + 1, 12)), rng.normal(size=12)
        out = table.convolve(start, F)
        for i in (1, 9, m):
            w = np.full(i + 1, delta)
            w[0] = w[-1] = delta / 2
            direct = T.apply(delta * i, start) + sum(
                w[k] * T.apply(delta * (i - k), F[k]) for k in range(i + 1))
            np.testing.assert_allclose(out[i], direct, atol=1e-13)
        assert np.array_equal(out[0], start)

    @pytest.mark.parametrize("N, m, delta, rows", [
        (12, 30, 0.04, None),       # offset reaches 4, delta / h not integer
        (12, 40, 0.1, None),        # last offset 15 >= N
        (97, 300, 0.003, None),     # N + pad not 5-smooth
        (64, 5000, 1e-4, [0, 1, 2, 1237, 2500, 4999, 5000]),
    ], ids=["N12-m30", "offset-past-N", "N97", "N64-m5000"])
    def test_shift_convolution_matches_per_lag_padding(self, N, m, delta, rows):
        # The FFT sums in another order than the per-lag loop, so agreement
        # is to a stated round-off tolerance, not bit for bit.
        table = ShiftSemigroup(N).lag_table(delta, m)
        assert table.frac[7] != 0.0 and table.off[-1] > 2
        rng = np.random.default_rng(12)
        F, start = rng.normal(size=(m + 1, N)), rng.normal(size=N)
        rows = np.arange(m + 1) if rows is None else np.asarray(rows)
        conv = F[rows].copy()
        ev0 = np.array([table.apply(r, F[0]) for r in rows])
        for g in range(1, m + 1):
            o, c = table.off[g], table.frac[g]
            hit = rows >= g
            Fp = np.pad(F[rows[hit] - g], ((0, 0), (0, o + 2)))
            conv[hit] += (1.0 - c) * Fp[:, o:o + N] + c * Fp[:, o + 1:o + 1 + N]
        expected = delta * (conv - 0.5 * (ev0 + F[rows]))
        expected += np.array([table.apply(r, start) for r in rows])
        expected[rows == 0] = start
        got = table.convolve(start, F)[rows]
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(got[rows == 0], expected[rows == 0])


class TestMinEnergyPath:
    """The bands of the discrete steered window path, the path of the
    minimum-energy control from a start to a target."""

    CASES = [(16, 0.3 / 150, 150), (64, 0.5 / 250, 250), (64, 0.3, 8),
             (32, np.pi / 32, 20), (256, 0.45 / 1000, 1000)]

    @pytest.mark.parametrize("N, delta, m", CASES)
    def test_derivative_is_the_difference_of_two_paths(self, N, delta, m):
        # the discrete steered path from s to z, unforced: the feedback on
        # the Gramian preimage y of r = z - T(L) s, convolved from s.  It is
        # affine in s, so moving s by v moves row g by D_g v = T(g delta) v
        # - C_g G^-1 T(L) v, from the bands of lag_band and cross_gramian:
        # read as nu reads it, at row j (an on-grid instant) and at (1 - f)
        # row j + f row j + 1 (an off-grid one), within 1e-14 of the rows'
        # largest |value| (measured: at most 4.7e-16 of it).  C_g y alone is
        # row g of the feedback's path from a zero start (measured: 9.1e-16
        # of its largest |value|), and C_g has at most 4 diagonals, at g =
        # m the Gramian's 3 (measured: 2.1e-16 of its largest entry).  Each
        # row of D v is at most 2 |v|_inf (measured: 0.99)
        from evosteer.gramian import factor_gramian, gramian_solve
        table = ShiftSemigroup(N).lag_table(delta, m)
        block = factor_gramian(0, table.gramian(None))

        def feedback_path(start, residual):
            y = gramian_solve(block, residual)
            return table.convolve(start, table.adjoint_evolve(y)[::-1]), y

        start, v, target = np.random.default_rng(N + 2 * m).normal(size=(3, N))
        moved, _ = feedback_path(start + v, target - table.apply(m, start + v))
        path, _ = feedback_path(start, target - table.apply(m, start))
        diff = moved - path
        feedback, y = feedback_path(np.zeros(N), -table.apply(m, v))    # y = -G^-1 T(L) v
        scale = max(np.abs(moved).max(), np.abs(path).max())
        j = m // 3
        for rows, weights in (([j, j + 1], [1.0, 0.0]), ([j, j + 1], [0.63, 0.37]),
                              ([1, 2], [0.5, 0.5]), ([m - 2, m - 1], [0.2, 0.8])):
            cross = table.cross_gramian(rows, weights)
            got = band_product(table.lag_band(rows, weights), v) + band_product(cross, y)
            want = sum(w * diff[g] for g, w in zip(rows, weights))
            assert np.abs(got - want).max() <= 1e-14 * scale
            assert np.abs(band_product(cross, y)
                          - sum(w * feedback[g] for g, w in zip(rows, weights))).max() \
                <= 1e-14 * np.abs(feedback).max()
        assert all(len(table.cross_gramian([g], [1.0])[0]) <= 4 for g in (1, j, m - 1))
        offsets, diagonals = table.cross_gramian([m], [1.0])
        diag, off = table.gramian(None)
        assert offsets.tolist() == [-1, 0, 1]
        assert np.abs(diagonals[1] - diag).max() <= 1e-14 * diag.max()
        assert np.abs(diagonals[2, :-1] - off).max() <= 1e-14 * diag.max()
        assert np.abs(diff[1:-1]).max() <= 2.0 * np.abs(v).max()

    @pytest.mark.parametrize("N", [16, 256])
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    def test_predicted_reads_are_the_steered_path(self, N, forced):
        # the chord step reads nu off window 0's discrete steered path from
        # s with forcing F, predicted at nu's rows as Lag s + R(F) + C G^-1
        # (z - T(L) s - I_F) from lag_band, row_integral, cross_gramian and
        # end_integral, with the LDL^T solve of the window's Gramian.
        # Formed the long way -- the residual, gramian_solve,
        # synthesize_control, then convolve of F plus the control -- and
        # read as nu reads it, at an on-grid instant (row j) and an
        # off-grid one ((1 - f) row j + f row j + 1), the path's reads are
        # the prediction within 1e-14 of the path's largest |value|: the
        # weights sum to 0.1, so the rows' FFT rounding in convolve
        # (table.fft_error: 6.1e-14 and 7.8e-14) moves a read by at most
        # 7.8e-15 of it, and the prediction's banded sums round far below
        # that (measured: at most 5.9e-17)
        from evosteer.discretize import interval_times
        from evosteer.gramian import (assemble_all, steering_residual,
                                      synthesize_control)
        from evosteer.problems import Numerics
        from evosteer.transport import build_case1
        problem, numerics = build_case1(N=N), Numerics(time_step=1e-3)
        tables, blocks = assemble_all(problem,
                                      interval_times(problem.mesh, numerics)[::2])
        table, block, m = tables[0], blocks[0], tables[0].m
        rng = np.random.default_rng(N)
        s, z = rng.normal(size=(2, N))
        F = (0.3 * rng.normal(size=(m + 1, N)) if forced else np.zeros((m + 1, N)))
        integral = table.end_integral(F)
        samples, _ = synthesize_control(problem, table, block,
                                        steering_residual(s, z, table, integral))
        path = table.convolve(s, F + samples)
        j = 2 * m // 3
        end = table.lag_band([m], [1.0])
        y = block.solve(z - band_product(end, s) - integral)
        for rows, weights in (([j, j + 1], [0.1, 0.0]), ([j, j + 1], [0.063, 0.037])):
            want = sum(w * path[g] for g, w in zip(rows, weights))
            got = (band_product(table.lag_band(rows, weights), s)
                   + table.row_integral(F, rows, weights)
                   + band_product(table.cross_gramian(rows, weights), y))
            assert np.abs(got - want).max() <= 1e-14 * np.abs(path).max()


def test_shift_kernel_spectrum_is_formed_once(monkeypatch):
    # the two-tap kernel's transform is taken on the first convolve only;
    # later calls give what a fresh table gives, bit for bit, and each is
    # returned as its own compact array, not a view of the transform
    N, m, delta = 12, 30, 0.04
    rng = np.random.default_rng(13)
    inputs = [(rng.normal(size=N), rng.normal(size=(m + 1, N))) for _ in range(3)]
    fresh = [ShiftSemigroup(N).lag_table(delta, m).convolve(s, F) for s, F in inputs]
    calls = []
    rfft2 = np.fft.rfft2
    monkeypatch.setattr(np.fft, "rfft2",
                        lambda *args, **kwargs: calls.append(1) or rfft2(*args, **kwargs))
    table = ShiftSemigroup(N).lag_table(delta, m)
    assert calls == []
    paths = [table.convolve(s, F) for s, F in inputs]
    for path, want in zip(paths, fresh):
        assert path.tobytes() == want.tobytes()
        assert path.shape == (m + 1, N) and path.flags.c_contiguous
        assert path.base is None
    assert len(calls) == 1


def test_matrix_spectrum_is_formed_once(monkeypatch):
    # the tilted kernel's transform is taken on a table's first convolve
    # only; every convolve gives what the per-call transform gives, bit for
    # bit
    rng = np.random.default_rng(15)
    m, delta = 40, 2.5e-2
    table = MatrixSemigroup(rng.normal(size=(3, 3))).lag_table(delta, m)
    inputs = [(rng.normal(size=3), rng.normal(size=(m + 1, 3))) for _ in range(3)]
    wants = [folded_matrix_reference(table, s, F) for s, F in inputs]
    stack_ffts = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kwargs:
                        stack_ffts.append(np.ndim(a) == 3) or rfft(a, *args, **kwargs))
    for (s, F), want in zip(inputs, wants):
        assert np.array_equal(table.convolve(s, F), want)
    assert sum(stack_ffts) == 1


def test_matrix_spectrum_once_per_table_over_a_run(monkeypatch):
    # a sweep transforms each convolving table's stack once, however many
    # sweeps convolve with it: the solve stops after one sweep, so three
    # sweeps from a new first iterate follow it, solving both windows again
    from evosteer.solver import Sweep, picard_solve
    cfg = load_config(str(CONFIGS / "linear-2d.ini"))
    stack_ffts, tables = [], Counter()
    rfft, convolve = np.fft.rfft, MatrixLagTable.convolve
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kwargs:
                        stack_ffts.append(np.ndim(a) == 3) or rfft(a, *args, **kwargs))
    monkeypatch.setattr(MatrixLagTable, "convolve", lambda self, start, F:
                        tables.update([id(self)]) or convolve(self, start, F))
    sweep = Sweep(cfg.problem, cfg.numerics)
    picard_solve(sweep, cfg.targets)
    traj = sweep.initial_iterate(cfg.targets)
    for _ in range(3):
        sweep.apply(traj, cfg.targets)
    assert list(tables.values()) == [2, 2]
    assert sum(stack_ffts) == len(tables)


@pytest.mark.parametrize("preset", ["transport-case1", "transport-case2", "linear-2d"])
def test_folded_path_matches_evolve_plus_convolve(preset):
    # the start passes through the transform with the forcing: on every
    # window grid of the preset the path lies within 1e-14 of its largest
    # |value| from the evolved start plus the unfolded trapezoid sums, and
    # row 0 is the start itself
    from evosteer.discretize import interval_times
    from evosteer.gramian import assemble_all
    cfg = load_config(str(CONFIGS / f"{preset}.ini"))
    rng = np.random.default_rng(16)
    window_times = interval_times(cfg.problem.mesh, cfg.numerics)[::2]
    tables, _ = assemble_all(cfg.problem, window_times)
    for times, table in zip(window_times, tables):
        dim = cfg.problem.dim
        assert isinstance(table, ShiftLagTable if preset.startswith("transport")
                          else MatrixLagTable)
        for scale in (1.0, 1.0 / (times[-1] - times[0])):
            start = rng.normal(size=dim)
            F = scale * rng.normal(size=(table.m + 1, dim))
            got, want = table.convolve(start, F), unfolded_path(table, start, F)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.array_equal(got[0], start)


@pytest.mark.parametrize("preset", ["transport-case1", "transport-case2", "linear-2d"])
def test_preset_files_within_round_off_of_the_unfolded_path(tmp_path, monkeypatch,
                                                            preset):
    # folding the start into the transform moves a run's states and
    # controls by round-off only: every value of trajectory.csv and
    # control.csv within 1e-14 of its file's largest |value| from the
    # evolve-plus-convolve path, with the time column and text fields
    # identical
    from test_gramian import _csv_values
    from evosteer.cli import main
    for name in ("folded", "unfolded"):
        if name == "unfolded":
            for cls in (MatrixLagTable, ShiftLagTable):
                monkeypatch.setattr(cls, "convolve", unfolded_path)
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / name))
        assert main(["solve", str(CONFIGS / f"{preset}.ini"), "--no-timing"]) == 0
    for file in ("trajectory.csv", "control.csv"):
        text, got = _csv_values(tmp_path / "folded" / file)
        want_text, want = _csv_values(tmp_path / "unfolded" / file)
        assert text == want_text
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
