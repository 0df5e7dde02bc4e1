from pathlib import Path

import numpy as np
import pytest

from evosteer.config import load_config
from evosteer.core import TimeMesh
from evosteer.discretize import interval_times
from evosteer.oracle import oracle_linear
from evosteer.problems import Numerics, Problem
from evosteer.runner import run
from evosteer.semigroups import MatrixSemigroup, expm
from evosteer.solver import Sweep, picard_solve


def rk4_reference(problem, control, numerics):
    """Per-window sample paths of classical RK4, stage by stage, on the
    augmented system x' = A x + B B* w, w' = -A^T w."""
    from scipy.linalg import expm
    A, d = problem.semigroup.A, problem.dim
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = A
    M[:d, d:] = problem.control_matrix @ problem.control_matrix.T
    M[d:, d:] = -A.T
    refine = numerics.oracle_refine
    x = problem.phi0().copy()
    paths = []
    for a, end, kind, j in problem.mesh.intervals():
        m = numerics.steps_for(end - a)
        if kind == "impulse":
            vals = np.outer(np.linspace(a, end, m + 1), x)
        else:
            z = np.concatenate([x, expm(A.T * (end - a)) @ control.preimages[j]])
            h = (end - a) / (m * refine)
            vals = [x]
            for _ in range(m):
                for _ in range(refine):
                    k1 = M @ z
                    k2 = M @ (z + 0.5 * h * k1)
                    k3 = M @ (z + 0.5 * h * k2)
                    k4 = M @ (z + h * k3)
                    z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                vals.append(z[:d])
            vals = np.array(vals)
        paths.append(vals)
        x = vals[-1].copy()
    return paths


CONFIGS = Path(__file__).parents[1] / "configs"


def per_node_reference(problem, control, numerics):
    """Per-window sample paths of the oracle as it advanced before batched
    doubling: the same RK4 step matrix, applied once per solver node."""
    A, d, refine = problem.semigroup.A, problem.dim, numerics.oracle_refine
    M = np.zeros((2 * d, 2 * d))
    M[:d, :d] = A
    M[:d, d:] = problem.control_matrix @ problem.control_matrix.T
    M[d:, d:] = -A.T
    eye = np.eye(2 * d)
    x = problem.phi0().copy()
    paths = []
    for times, (a, end, kind, j) in zip(interval_times(problem.mesh, numerics),
                                        problem.mesh.intervals()):
        m = len(times) - 1
        if kind == "impulse":
            vals = problem.impulse_path(j, times, x)
        else:
            z = np.concatenate([x, expm(A.T * (end - a)) @ control.preimages[j]])
            hM = (end - a) / (m * refine) * M
            P = eye + hM @ (eye + hM @ (eye + hM @ (eye + hM / 4.0) / 3.0) / 2.0)
            step = np.linalg.matrix_power(P, refine)
            vals = np.empty((m + 1, d))
            vals[0] = x
            for i in range(m):
                z = step @ z
                vals[i + 1] = z[:d]
        paths.append(vals)
        x = vals[-1].copy()
    return paths


def linear_problem(A, mesh, phi0, B=None):
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    return Problem(semigroup=MatrixSemigroup(A),
                   control_matrix=np.eye(d) if B is None else B, mesh=mesh,
                   beta=1.0, history=lambda s: np.asarray(phi0, dtype=float))


class TestOracle:
    def test_constant_control_integral(self):
        # A = 0, B = 1, u == z on (0, 1]: x(1) = z
        mesh = TimeMesh([0.0, 1.0])
        prob = linear_problem(np.zeros((1, 1)), mesh, [0.0])
        num = Numerics(time_step=1e-3)
        report = picard_solve(Sweep(prob, num), [np.array([2.5])])
        res = oracle_linear(prob, report.control, [np.array([2.5])], num)
        assert abs(res.trajectory.seg_values[0][-1, 0] - 2.5) <= 1e-10

    def test_free_scalar_exponential(self):
        mesh = TimeMesh([0.0, 1.0])
        a = -0.8
        prob = linear_problem([[a]], mesh, [1.0])
        num = Numerics(time_step=2e-3)
        # steer to the free endpoint: the control is (numerically) zero
        target = np.array([np.exp(a)])
        report = picard_solve(Sweep(prob, num), [target])
        res = oracle_linear(prob, report.control, [target], num)
        t = res.trajectory.seg_times[0]
        np.testing.assert_allclose(res.trajectory.seg_values[0][:, 0],
                                   np.exp(a * t), atol=1e-8)

    def test_rotation_preserves_norm_with_zero_control(self):
        mesh = TimeMesh([0.0, 1.0])
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        prob = linear_problem(A, mesh, [1.0, 0.0])
        num = Numerics(time_step=1e-3)
        from scipy.linalg import expm
        target = expm(A) @ np.array([1.0, 0.0])
        report = picard_solve(Sweep(prob, num), [target])
        res = oracle_linear(prob, report.control, [target], num)
        norms = np.linalg.norm(res.trajectory.seg_values[0], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-8)

    def test_agrees_with_solver_through_impulse(self):
        rng = np.random.default_rng(60)
        A = rng.normal(size=(3, 3)) / 2.0
        mesh = TimeMesh([0.0, 0.4, 0.6, 1.0])
        prob = linear_problem(A, mesh, rng.normal(size=3) / 2.0)
        num = Numerics(time_step=2e-4)
        targets = [rng.normal(size=3), rng.normal(size=3)]
        result = run(prob, targets, num, with_oracle=True)
        assert result.oracle_distance <= 1e-6
        assert max(result.oracle.defects) <= 1e-6

    def test_step_matrix_matches_rk4_stages(self):
        rng = np.random.default_rng(61)
        A = rng.normal(size=(3, 3)) / 2.0
        mesh = TimeMesh([0.0, 0.4, 0.6, 1.0])
        prob = linear_problem(A, mesh, rng.normal(size=3) / 2.0)
        # coarse steps, so that a wrong Taylor coefficient shows above 1e-11
        num = Numerics(time_step=0.05, oracle_refine=2)
        targets = [rng.normal(size=3), rng.normal(size=3)]
        report = picard_solve(Sweep(prob, num), targets)
        res = oracle_linear(prob, report.control, targets, num)
        paths = rk4_reference(prob, report.control, num)
        assert len(paths) == len(res.trajectory.seg_values) == 3
        for ref, got in zip(paths, res.trajectory.seg_values):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("case", ["linear-2d", "non-normal"])
    def test_matches_per_node_stepping(self, case):
        # every node state within 1e-12 of the paths' largest entry
        # (measured at most 3.2e-14)
        if case == "linear-2d":
            cfg = load_config(str(CONFIGS / "linear-2d.ini"))
            prob, targets, num = cfg.problem, cfg.targets, cfg.numerics
        else:
            mesh = TimeMesh([0.0, 0.4, 0.6, 1.0])
            prob = linear_problem([[-5.0, 100.0], [0.0, -5.0]], mesh, [1.0, -0.5])
            targets = [np.array([0.5, 0.2]), np.array([-0.3, 0.1])]
            num = Numerics(time_step=2e-4)
        report = picard_solve(Sweep(prob, num), targets)
        got = oracle_linear(prob, report.control, targets, num).trajectory.seg_values
        want = per_node_reference(prob, report.control, num)
        scale = max(np.abs(w).max() for w in want)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * scale

    def test_rejects_nonlinear(self):
        mesh = TimeMesh([0.0, 1.0])
        prob = linear_problem(np.zeros((1, 1)), mesh, [0.0])
        prob.nonlinearity = lambda t, v: np.zeros_like(v)
        num = Numerics(time_step=1e-2)
        with pytest.raises(ValueError, match="linear"):
            oracle_linear(prob, None, None, num)

    def test_rejects_kernel_and_shift_backend(self):
        mesh = TimeMesh([0.0, 1.0])
        prob = linear_problem(np.zeros((1, 1)), mesh, [0.0])
        prob.nonlinearity = lambda t, v: np.zeros_like(v)
        prob.kernel = (0.0, 1.0)
        with pytest.raises(ValueError):
            oracle_linear(prob, None, None, Numerics(time_step=1e-2))
        from evosteer.transport import build_case1
        shift_prob = build_case1(N=8, k0=0.0, alphas=(), instants=())
        shift_prob.nonlinearity = None
        with pytest.raises(ValueError, match="generator"):
            oracle_linear(shift_prob, None, None, Numerics(time_step=1e-2))
