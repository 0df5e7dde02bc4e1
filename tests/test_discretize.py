import numpy as np
import pytest

from evosteer.core import build_time_mesh
from evosteer.discretize import (KernelDiscretization, build_window_grids,
                                 eta_values, trapezoid_weights)
from evosteer.problems import AssumptionConstants, ConvolutionKernel, Numerics, Problem
from evosteer.semigroups import MatrixSemigroup
from evosteer.solver import picard_solve


def test_trapezoid_weights_sum_to_length():
    w = trapezoid_weights(10, 0.1)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == w[-1] == pytest.approx(0.05)


def test_window_grids_share_breakpoints():
    mesh = build_time_mesh([0.0, 0.3, 0.5, 1.0], 1.0)
    prob = Problem(semigroup=MatrixSemigroup(np.zeros((2, 2))),
                   control_matrix=np.eye(2), mesh=mesh, beta=1.0,
                   history=lambda s: np.zeros(2),
                   impulses=((lambda th, x: 0 * np.asarray(x)),),
                   constants=AssumptionConstants(impulse_lipschitz=(0.0,),
                                                 impulse_sup=(0.0,)))
    grids = build_window_grids(prob, Numerics(time_step=1e-2))
    assert [g.index for g in grids] == [0, 1]
    assert grids[0].times[0] == 0.0 and grids[0].times[-1] == 0.3
    assert grids[1].times[0] == 0.5 and grids[1].times[-1] == 1.0
    assert grids[0].weights.sum() == pytest.approx(0.3)


def _kernel_problem(kappa, q, mesh=None, dim=1):
    mesh = mesh or build_time_mesh([0.0, 0.4, 0.5, 1.0], 1.0)
    impulses = tuple((lambda th, x: th * np.asarray(x, dtype=float))
                     for _ in range(mesh.n_impulses))
    constants = AssumptionConstants(
        impulse_lipschitz=tuple(0.5 for _ in range(mesh.n_impulses)),
        impulse_sup=tuple(1.0 for _ in range(mesh.n_impulses)))
    return Problem(semigroup=MatrixSemigroup(np.zeros((dim, dim))),
                   control_matrix=np.eye(dim), mesh=mesh, beta=1.0,
                   history=lambda s: np.zeros(dim), impulses=impulses,
                   kernel=ConvolutionKernel(kappa=kappa, q=q),
                   constants=constants)


class TestKernelDiscretization:
    def test_inner_convolution_closed_form(self):
        # kappa == 1, q == 1: the inner convolution at t is exactly t
        prob = _kernel_problem(lambda s: np.ones_like(np.asarray(s)),
                               lambda t, seg: np.array([1.0]))
        num = Numerics(time_step=1e-2, history_samples=8)
        kern = KernelDiscretization(prob, num)
        traj = picard_solve(prob, None, num).trajectory
        inner = kern.inner_convolution(traj)
        np.testing.assert_allclose(inner[:, 0], kern.times, atol=1e-12)

    def test_linear_kernel_closed_form(self):
        # kappa(s) = s, q == 1: int_0^t (t - s) ds = t^2 / 2, exact for the
        # trapezoid rule applied to a piecewise-linear integrand? the
        # integrand is linear in s per fixed t, so yes
        prob = _kernel_problem(lambda s: np.asarray(s, dtype=float),
                               lambda t, seg: np.array([1.0]))
        num = Numerics(time_step=1e-2, history_samples=8)
        kern = KernelDiscretization(prob, num)
        traj = picard_solve(prob, None, num).trajectory
        inner = kern.inner_convolution(traj)
        np.testing.assert_allclose(inner[:, 0], kern.times ** 2 / 2.0, atol=1e-12)

    def test_inner_convolution_at_nodes(self):
        # kappa == 1: q == 1 gives t at t = 0.5, q == 0 gives exactly 0 at 0.7
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        num = Numerics(time_step=1e-2, history_samples=8)
        ones = lambda s: np.ones_like(np.asarray(s))
        prob = _kernel_problem(ones, lambda t, seg: np.array([1.0]), mesh=mesh)
        kern = KernelDiscretization(prob, num)
        traj = picard_solve(prob, None, num).trajectory
        i, k = (int(np.argmin(np.abs(kern.times - t))) for t in (0.5, 0.7))
        assert kern.inner_convolution(traj)[i, 0] == pytest.approx(0.5, abs=1e-12)
        prob0 = _kernel_problem(ones, lambda t, seg: np.array([0.0]), mesh=mesh)
        assert KernelDiscretization(prob0, num).inner_convolution(traj)[k, 0] == 0.0

    def test_block_slices_tile_the_grid(self):
        prob = _kernel_problem(lambda s: np.asarray(s, dtype=float),
                               lambda t, seg: np.array([0.0]))
        num = Numerics(time_step=5e-2, history_samples=8)
        kern = KernelDiscretization(prob, num)
        total = sum(kern.block_slice(i).stop - kern.block_slice(i).start
                    for i in range(len(kern.block_times)))
        assert total == len(kern.times)
        assert kern.block_slice(0).start == 0

    def test_requires_kernel(self):
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = Problem(semigroup=MatrixSemigroup(np.zeros((1, 1))),
                       control_matrix=[[1.0]], mesh=mesh, beta=1.0,
                       history=lambda s: np.zeros(1))
        with pytest.raises(ValueError):
            KernelDiscretization(prob, Numerics(time_step=0.1))


def test_eta_values_zero_without_nonlinearity():
    mesh = build_time_mesh([0.0, 1.0], 1.0)
    prob = Problem(semigroup=MatrixSemigroup(np.zeros((2, 2))),
                   control_matrix=np.eye(2), mesh=mesh, beta=1.0,
                   history=lambda s: np.zeros(2))
    num = Numerics(time_step=0.1, history_samples=8)
    traj = picard_solve(prob, None, num).trajectory
    vals = eta_values(prob, traj, np.linspace(0, 1, 5), num)
    np.testing.assert_array_equal(vals, np.zeros((5, 2)))
