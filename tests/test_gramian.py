import math

import numpy as np
import pytest
from scipy.linalg import expm

from evosteer.core import build_time_mesh
from evosteer.discretize import (KernelDiscretization, build_window_grids,
                                 eta_values)
from evosteer.gramian import (GramianBlock, NotInvertibleError, assemble_all,
                              assemble_gramian, control_bound, gramian_solve,
                              steering_residual, synthesize_control,
                              window_start)
from evosteer.problems import (AssumptionConstants, ConvolutionKernel,
                               Numerics, Problem, WeightedSampleNonlocal)
from evosteer.semigroups import MatrixSemigroup, ShiftSemigroup


def linear_problem(A, B, mesh, phi0, beta=1.0, impulses=(), constants=None,
                   **kwargs):
    phi0 = np.asarray(phi0, dtype=float)
    return Problem(semigroup=MatrixSemigroup(A), control_matrix=B, mesh=mesh,
                   beta=beta, history=lambda s: phi0, impulses=impulses,
                   constants=constants or AssumptionConstants(), **kwargs)


class TestAssembly:
    def test_identity_semigroup_unit_window(self):
        blk = assemble_gramian(MatrixSemigroup(np.zeros((3, 3))), np.eye(3),
                               (0.0, 1.0), 100)
        np.testing.assert_allclose(blk.matrix, np.eye(3), atol=1e-14)
        assert blk.min_eig == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [-1.0, 0.5])
    def test_scalar_closed_form(self, a):
        width = 0.05
        blk = assemble_gramian(MatrixSemigroup([[a]]), [[1.0]], (0.0, width), 1000)
        exact = (math.exp(2 * a * width) - 1.0) / (2 * a)
        assert blk.matrix[0, 0] == pytest.approx(exact, rel=1e-8)

    def test_shift_diagonal_closed_form(self):
        # grid-aligned lags: the Gramian is exactly the trapezoid-weighted
        # per-node count of shifts that stay inside the domain, which
        # approximates min(width, pi - node) to one cell
        N = 16
        h = np.pi / N
        steps = 4
        width = steps * h
        T = ShiftSemigroup(N)
        blk = assemble_gramian(T, np.eye(N), (0.0, width), steps)
        w = np.full(steps + 1, h)
        w[0] = w[-1] = h / 2
        expected = np.array([sum(w[g] for g in range(steps + 1)
                                 if i + g <= N - 1) for i in range(N)])
        np.testing.assert_allclose(np.diag(blk.matrix), expected, atol=1e-13)
        off = blk.matrix - np.diag(np.diag(blk.matrix))
        assert np.abs(off).max() <= 1e-13
        nodes = np.arange(N) * h
        assert np.abs(expected - np.minimum(width, np.pi - nodes)).max() <= 1.5 * h

    def test_symmetry_and_psd_random(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            A = rng.normal(size=(d, d)) / np.sqrt(d)
            B = rng.normal(size=(d, d)) / np.sqrt(d)
            blk = assemble_gramian(MatrixSemigroup(A), B, (0.0, 0.7), 150)
            rel = np.linalg.norm(blk.matrix - blk.matrix.T) / np.linalg.norm(blk.matrix)
            assert rel <= 1e-12
            assert blk.min_eig >= -1e-12

    def test_quadrature_second_order(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(4, 4)) / 2.0
        B = rng.normal(size=(4, 2))
        T = MatrixSemigroup(A)
        ref = assemble_gramian(T, B, (0.0, 1.0), 3200).matrix
        e1 = np.linalg.norm(assemble_gramian(T, B, (0.0, 1.0), 200).matrix - ref)
        e2 = np.linalg.norm(assemble_gramian(T, B, (0.0, 1.0), 400).matrix - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_monotone_in_window_length(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(5, 5)) / 2.0
        B = rng.normal(size=(5, 3))
        T = MatrixSemigroup(A)
        eigs = [assemble_gramian(T, B, (0.0, L), 300).min_eig
                for L in (0.4, 0.6, 0.9)]
        assert eigs[0] <= eigs[1] + 1e-12 <= eigs[2] + 2e-12

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            assemble_gramian(MatrixSemigroup([[0.0]]), [[1.0]], (0.5, 0.5), 10)


class TestSolve:
    def test_identity(self):
        blk = GramianBlock(index=0, matrix=np.eye(3), min_eig=1.0)
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(gramian_solve(blk, v), v, atol=1e-14)

    def test_diagonal(self):
        blk = GramianBlock(index=0, matrix=np.diag([2.0, 4.0]), min_eig=2.0)
        np.testing.assert_allclose(gramian_solve(blk, np.array([2.0, 4.0])),
                                   [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(23)
        R = rng.normal(size=(8, 8))
        G = R @ R.T + 0.05 * np.eye(8)
        blk = GramianBlock(index=0, matrix=G,
                           min_eig=float(np.linalg.eigvalsh(G)[0]))
        for _ in range(10):
            v = rng.normal(size=8)
            w = gramian_solve(blk, v)
            assert np.linalg.norm(G @ w - v) <= 1e-10 * np.linalg.norm(v)

    def test_singular_raises_with_diagnostics(self):
        blk = GramianBlock(index=2, matrix=np.zeros((2, 2)), min_eig=0.0)
        with pytest.raises(NotInvertibleError) as err:
            gramian_solve(blk, np.ones(2))
        assert err.value.window == 2
        assert err.value.min_eig == 0.0

    def test_ridge_is_reported_and_used(self):
        blk = GramianBlock(index=0, matrix=np.zeros((2, 2)), min_eig=0.0,
                           ridge=0.5)
        assert blk.floor_used == pytest.approx(0.5)
        np.testing.assert_allclose(gramian_solve(blk, np.array([1.0, 0.0])),
                                   [2.0, 0.0], atol=1e-12)


class TestResiduals:
    def test_zero_defect_when_target_is_free_evolution(self):
        rng = np.random.default_rng(24)
        A = rng.normal(size=(3, 3)) / 2.0
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        phi0 = rng.normal(size=3)
        prob = linear_problem(A, np.eye(3), mesh, phi0)
        num = Numerics(time_step=1e-3)
        grids = build_window_grids(prob, num)
        traj = _flat_traj(prob, num)
        target = expm(A) @ phi0
        r = steering_residual(prob, 0, traj, target, grids[0],
                              _eta(prob, traj, grids[0], num))
        assert np.linalg.norm(r) <= 1e-10

    def test_constant_forcing_closed_form(self):
        # A = 0, phi(0) = 0, eta == c on (0, 1]: residual = z - c
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        c = np.array([0.3])
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.0],
                              nonlinearity=lambda t, seg: c)
        num = Numerics(time_step=1e-2, history_samples=16)
        grids = build_window_grids(prob, num)
        traj = _flat_traj(prob, num)
        r = steering_residual(prob, 0, traj, np.array([2.0]), grids[0],
                              _eta(prob, traj, grids[0], num))
        assert r[0] == pytest.approx(2.0 - 0.3, abs=1e-13)

    def test_impulse_window_residual(self):
        # j = 1 with the time-scaled impulse: residual subtracts
        # T(theta_2 - lam_1) applied to lam_1 * x(theta_1-)
        rng = np.random.default_rng(25)
        A = rng.normal(size=(2, 2)) / 2.0
        mesh = build_time_mesh([0.0, 0.3, 0.5, 1.0], 1.0)
        nu = lambda th, x: th * np.asarray(x, dtype=float)
        prob = linear_problem(A, np.eye(2), mesh, [0.1, -0.2], impulses=(nu,),
                              constants=AssumptionConstants(
                                  impulse_lipschitz=(0.5,), impulse_sup=(1.0,)))
        num = Numerics(time_step=1e-3)
        grids = build_window_grids(prob, num)
        traj = _flat_traj(prob, num)
        x_minus = traj.left_value_at_theta(1)
        target = rng.normal(size=2)
        r = steering_residual(prob, 1, traj, target, grids[1],
                              _eta(prob, traj, grids[1], num))
        manual = target - expm(0.5 * A) @ (0.5 * x_minus)
        np.testing.assert_allclose(r, manual, atol=1e-11)

    def test_kernel_residual_closed_form(self):
        # kappa == 1, q == 1, A = 0, window (0, 1]: inner integral tau,
        # outer integral 1/2
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        kernel = ConvolutionKernel(kappa=lambda s: np.ones_like(np.asarray(s)),
                                   q=lambda t, seg: np.array([1.0]))
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.25],
                              kernel=kernel)
        num = Numerics(time_step=1e-2, history_samples=16)
        grids = build_window_grids(prob, num)
        traj = _flat_traj(prob, num)
        r = steering_residual(prob, 0, traj, np.array([2.0]), grids[0],
                              _inner(prob, traj, num))
        assert r[0] == pytest.approx(2.0 - 0.25 - 0.5, abs=1e-12)

    def test_kernel_residual_zero_integrand(self):
        # q == 0: the residual is target minus the free evolution of phi(0)
        rng = np.random.default_rng(26)
        A = rng.normal(size=(2, 2)) / 2.0
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        phi0 = rng.normal(size=2)
        kernel = ConvolutionKernel(kappa=lambda s: np.asarray(s, dtype=float),
                                   q=lambda t, seg: np.zeros(2))
        prob = linear_problem(A, np.eye(2), mesh, phi0, kernel=kernel)
        num = Numerics(time_step=1e-3, history_samples=8)
        grids = build_window_grids(prob, num)
        traj = _flat_traj(prob, num)
        target = rng.normal(size=2)
        r = steering_residual(prob, 0, traj, target, grids[0],
                              _inner(prob, traj, num))
        np.testing.assert_allclose(r, target - expm(A) @ phi0, atol=1e-11)


class TestControl:
    def test_zero_residual_zero_control(self):
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = linear_problem(np.zeros((2, 2)), np.eye(2), mesh, [0.0, 0.0])
        grids, blocks = assemble_all(prob, Numerics(time_step=1e-2))
        u = synthesize_control(prob, grids, blocks, [np.zeros(2)]).value(0.5)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)

    def test_scalar_constant_control(self):
        # A = 0, B = 1, window (0, 1]: Gramian is 1, so u == residual
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.0])
        grids, blocks = assemble_all(prob, Numerics(time_step=1e-3))
        control = synthesize_control(prob, grids, blocks, [np.array([2.5])])
        for theta in (0.1, 0.5, 1.0):
            assert control.value(theta)[0] == pytest.approx(2.5, rel=1e-12)

    def test_zero_off_control_windows(self):
        mesh = build_time_mesh([0.0, 0.4, 0.6, 1.0], 1.0)
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.0],
                              impulses=(lambda th, x: 0.0 * np.asarray(x),),
                              constants=AssumptionConstants(
                                  impulse_lipschitz=(0.0,), impulse_sup=(0.0,)))
        grids, blocks = assemble_all(prob, Numerics(time_step=1e-2))
        control = synthesize_control(prob, grids, blocks,
                                     [np.ones(1), np.ones(1)])
        for theta in (0.0, 0.5):
            np.testing.assert_array_equal(control.value(theta), np.zeros(1))
        assert control.value(0.2)[0] != 0.0


class TestWindowStart:
    @pytest.mark.parametrize("case, j, expected", [
        ("first-nonlocal", 0, [0.6, 0.05]),   # phi(0) + 0.1 * x(0.2)
        ("first-integro", 0, [0.5, 0.25]),    # phi(0) alone
        ("impulse", 1, [0.5, -1.0]),          # lam_1 * x(theta_1-)
    ], ids=["first-nonlocal", "first-integro", "impulse"])
    def test_window_start(self, case, j, expected):
        mesh = build_time_mesh([0.0, 0.3, 0.5, 1.0], 1.0)
        kwargs = {}
        if case == "first-nonlocal":
            kwargs["nonlocal_term"] = WeightedSampleNonlocal([0.1], [0.2])
        elif case == "first-integro":
            kwargs["kernel"] = ConvolutionKernel(
                kappa=lambda s: np.ones_like(np.asarray(s)),
                q=lambda t, seg: np.ones(2))
        prob = linear_problem(np.zeros((2, 2)), np.eye(2), mesh, [0.5, 0.25],
                              impulses=(lambda th, x: th * np.asarray(x),),
                              constants=AssumptionConstants(
                                  impulse_lipschitz=(0.5,), impulse_sup=(1.0,)),
                              **kwargs)
        flat = _flat_traj(prob, Numerics(time_step=1e-2, history_samples=8))
        x = np.array([1.0, -2.0])
        traj = flat.with_values([np.tile(x, (len(t), 1)) for t in flat.seg_times])
        np.testing.assert_allclose(window_start(prob, traj, j), expected,
                                   rtol=1e-15)


class TestControlBound:
    def _problem(self, nonlin_sup=0.0, nonlocal_sup=0.0, impulse_sup=()):
        mesh = (build_time_mesh([0.0, 0.4, 0.6, 1.0], 1.0) if impulse_sup
                else build_time_mesh([0.0, 1.0], 1.0))
        impulses = ((lambda th, x: np.asarray(x, dtype=float) * 0.0,)
                    if impulse_sup else ())
        constants = AssumptionConstants(
            semigroup_bound=1.0, control_op_norm=1.0, nonlin_sup=nonlin_sup,
            nonlocal_sup=nonlocal_sup,
            impulse_lipschitz=tuple(0.0 for _ in impulse_sup),
            impulse_sup=impulse_sup)
        return linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [1.0],
                              impulses=impulses, constants=constants)

    def test_all_zero(self):
        prob = self._problem()
        prob_zero = linear_problem(np.zeros((1, 1)), prob.control_matrix,
                                   prob.mesh, [0.0])
        assert control_bound(prob_zero, 0, np.array([0.0]), 1.0) == 0.0

    def test_first_window_substitution(self):
        # M = K = 1, floor 1, |target| = 1, |phi(0)| = 1, sup eta = 1, b = 1
        prob = self._problem(nonlin_sup=1.0)
        q = control_bound(prob, 0, np.array([1.0]), 1.0)
        assert q == pytest.approx(3.0, abs=1e-14)

    def test_later_window_substitution(self):
        prob = self._problem(nonlin_sup=1.0, impulse_sup=(0.2,))
        q = control_bound(prob, 1, np.array([1.0]), 0.5)
        # (M K / floor) (|target| + K * impulse_sup + K N b)
        assert q == pytest.approx((1.0 / 0.5) * (1.0 + 0.2 + 1.0), abs=1e-13)


def _flat_traj(problem, numerics):
    from evosteer.solver import Sweep
    return Sweep(problem, numerics).initial_iterate()


def _eta(problem, traj, grid, numerics):
    return eta_values(problem, traj, grid.times, numerics)


def _inner(problem, traj, numerics):
    kern = KernelDiscretization(problem, numerics)
    return kern.inner_convolution(traj)[kern.block_slice(0)]
