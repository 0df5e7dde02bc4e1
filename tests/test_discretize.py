import dataclasses
import math

import numpy as np
import pytest

from evosteer import discretize
from evosteer.core import build_time_mesh
from evosteer.discretize import (KernelDiscretization, build_window_grids,
                                 eta_values, interval_times, trapezoid_weights)
from evosteer.oracle import oracle_linear
from evosteer.problems import AssumptionConstants, ConvolutionKernel, Numerics, Problem
from evosteer.semigroups import MatrixSemigroup
from evosteer.solver import Sweep, picard_solve


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

    @pytest.mark.parametrize("kappa", [
        lambda s: np.exp(-np.asarray(s, dtype=float)),
        lambda s: math.exp(-s),     # scalar only: the np.vectorize fallback
    ], ids=["vector", "scalar"])
    def test_chunked_build_matches_dense_build(self, kappa, monkeypatch):
        # two impulses, unequal steps; chunks of 7 rows cross block edges
        mesh = build_time_mesh([0.0, 0.32, 0.4, 0.55, 0.85, 1.0], 1.0)
        prob = _kernel_problem(kappa, lambda t, seg: seg.samples[0], mesh=mesh)
        num = Numerics(time_step=0.03, history_samples=8)
        monkeypatch.setattr(discretize, "KERNEL_CHUNK_ROWS", 7)
        kern = KernelDiscretization(prob, num)
        times, blocks = kern.times, kern.block_times
        assert len(times) % 7 != 0 and len(blocks[0]) % 7 != 0
        diff = np.maximum(times[:, None] - times[None, :], 0.0)
        try:
            kap = np.asarray(kappa(diff), dtype=float)
        except TypeError:
            kap = np.vectorize(kappa)(diff).astype(float)
        G = len(times)
        M = np.zeros((G, G))
        offsets = np.cumsum([0] + [len(t) for t in blocks])
        for bi, t in enumerate(blocks):
            lo, hi = offsets[bi], offsets[bi + 1]
            m = len(t) - 1
            delta = (t[-1] - t[0]) / m
            for i in range(lo + 1, hi):
                M[i, lo:i + 1] = delta
                M[i, lo] = M[i, i] = 0.5 * delta
            M[hi:, lo:hi] = trapezoid_weights(m, delta)[None, :]
        assert np.array_equal(kern.KW, kap * M)

    def test_kernel_size_limit(self, monkeypatch):
        prob = _kernel_problem(lambda s: np.asarray(s, dtype=float),
                               lambda t, seg: np.array([0.0]))
        num = Numerics(time_step=1e-2, history_samples=8)
        G = len(KernelDiscretization(prob, num).times)
        monkeypatch.setattr(discretize, "KERNEL_BYTES_LIMIT", 8 * G * G)
        KernelDiscretization(prob, num)
        monkeypatch.setattr(discretize, "KERNEL_BYTES_LIMIT", 8 * G * G - 1)
        with pytest.raises(ValueError, match=rf"numerics\.time_step .* G = {G}"):
            KernelDiscretization(prob, num)

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


@pytest.mark.parametrize("variant", ["semilinear", "integro"])
def test_one_grid_per_interval(variant):
    # two impulses; unequal step counts, three of them raised to min_steps = 8
    mesh = build_time_mesh([0.0, 0.32, 0.4, 0.55, 0.85, 1.0], 1.0)
    prob = _kernel_problem(lambda s: np.exp(-np.asarray(s, dtype=float)),
                           lambda t, seg: seg.samples[0], mesh=mesh, dim=2)
    if variant == "semilinear":
        prob = dataclasses.replace(prob, kernel=None)
    num = Numerics(time_step=0.03, history_samples=8)
    expected = interval_times(mesh, num)
    assert [len(t) - 1 for t in expected] == [11, 8, 8, 10, 8]
    sweep = Sweep(prob, num)
    assert len(sweep.seg_times) == len(expected)
    for got, ref in zip(sweep.seg_times, expected):
        assert np.array_equal(got, ref)
    for j, grid in enumerate(build_window_grids(prob, num)):
        assert np.array_equal(grid.times, sweep.seg_times[2 * j])
    if variant == "integro":
        others = KernelDiscretization(prob, num).block_times
    else:
        targets = [np.ones(2), -np.ones(2), np.zeros(2)]
        _, control, _ = sweep.apply(sweep.initial_iterate(), targets)
        others = oracle_linear(prob, control, targets, num).trajectory.seg_times
    assert len(others) == len(expected)
    for got, ref in zip(others, sweep.seg_times):
        assert np.array_equal(got, ref)
