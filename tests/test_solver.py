import numpy as np
import pytest

from evosteer.core import build_time_mesh, path_sup_norm, sup_distance
from evosteer.gramian import NotInvertibleError, window_start
from evosteer.problems import (AssumptionConstants, ConvolutionKernel,
                               Numerics, Problem, WeightedSampleNonlocal)
from evosteer.semigroups import MatrixSemigroup
from evosteer.solver import (NonConvergenceError, Sweep, picard_solve,
                             verify_targets)
from evosteer.transport import TransportConfig, build_case1


def theta_x(th, x):
    return th * np.asarray(x, dtype=float)


def make_problem(A=None, dim=2, mesh=None, phi0=None, beta=1.0, impulses=None,
                 **kwargs):
    A = np.zeros((dim, dim)) if A is None else np.asarray(A, dtype=float)
    dim = A.shape[0]
    mesh = mesh or build_time_mesh([0.0, 0.4, 0.6, 1.0], 1.0)
    phi0 = np.zeros(dim) if phi0 is None else np.asarray(phi0, dtype=float)
    if impulses is None:
        impulses = tuple(theta_x for _ in range(mesh.n_impulses))
    constants = kwargs.pop("constants", AssumptionConstants(
        impulse_lipschitz=tuple(mesh.lam[j] for j in range(1, mesh.n_impulses + 1)),
        impulse_sup=tuple(2.0 for _ in range(mesh.n_impulses))))
    return Problem(semigroup=MatrixSemigroup(A), control_matrix=np.eye(dim),
                   mesh=mesh, beta=beta, history=lambda s: phi0,
                   impulses=impulses, constants=constants, **kwargs)


class TestOperator:
    def test_linear_operator_is_state_independent(self):
        # eta == 0, nu == 0, no impulses: one application is already the
        # steered solution, a second changes nothing
        rng = np.random.default_rng(30)
        A = rng.normal(size=(3, 3)) / 2.0
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = make_problem(A, mesh=mesh, phi0=rng.normal(size=3))
        targets = [rng.normal(size=3)]
        num = Numerics(time_step=2e-3)
        report = picard_solve(prob, targets, num)
        sweep = Sweep(prob, num)
        once = sweep.apply(report.trajectory, targets)[0]
        twice = sweep.apply(once, targets)[0]
        assert sup_distance(twice, once) <= 1e-10

    def test_impulse_branch_replays_left_limit(self):
        rng = np.random.default_rng(31)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.4, -0.1])
        num = Numerics(time_step=2e-3)
        targets = [rng.normal(size=2), rng.normal(size=2)]
        report = picard_solve(prob, targets, num)
        traj = report.trajectory
        x_minus = traj.left_value_at_theta(1)
        times = traj.seg_times[1]
        expected = np.array([theta_x(t, x_minus) for t in times])
        np.testing.assert_array_equal(traj.seg_values[1], expected)

    def test_uncontrolled_constant_forcing(self):
        # A = 0, phi == 1, eta == c, no impulse, no control: x(t) = 1 + c t
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        c = 0.25
        prob = make_problem(dim=1, mesh=mesh, phi0=[1.0],
                            nonlinearity=lambda t, seg: np.array([c]))
        num = Numerics(time_step=1e-3, history_samples=16)
        report = picard_solve(prob, targets=None, numerics=num)
        t = report.trajectory.seg_times[0]
        np.testing.assert_allclose(report.trajectory.seg_values[0][:, 0],
                                   1.0 + c * t, atol=1e-12)
        assert report.per_window_defect == []

    def test_fixed_point_residual(self):
        cfg = TransportConfig(N=16)
        prob = build_case1(cfg)
        num = Numerics(time_step=4e-3, history_samples=48, tol=1e-10)
        report = picard_solve(prob, cfg.resolved_targets(), num)
        again = Sweep(prob, num).apply(report.trajectory,
                                       cfg.resolved_targets())[0]
        assert sup_distance(again, report.trajectory) <= 2.0 * 1e-10 * max(
            1.0, path_sup_norm(report.trajectory))


class TestPicard:
    def test_linear_converges_fast(self):
        rng = np.random.default_rng(32)
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = make_problem(rng.normal(size=(4, 4)) / 2.0, mesh=mesh,
                            phi0=rng.normal(size=4))
        report = picard_solve(prob, [rng.normal(size=4)],
                              Numerics(time_step=1e-3))
        assert report.converged
        assert report.iterations <= 2
        assert max(report.per_window_defect) <= 1e-8

    def test_case1_small_grid(self):
        cfg = TransportConfig(N=24)
        prob = build_case1(cfg)
        num = Numerics(time_step=2e-3, history_samples=64)
        report = picard_solve(prob, cfg.resolved_targets(), num)
        assert report.converged
        assert max(report.per_window_defect) <= 1e-3
        assert 0.0 < report.measured_ratio < 1.0

    def test_nonconvergence_carries_ratio(self):
        cfg = TransportConfig(N=12)
        prob = build_case1(cfg)
        num = Numerics(time_step=5e-3, history_samples=32, max_iter=2)
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(prob, cfg.resolved_targets(), num)
        assert err.value.report.iterations == 2
        assert err.value.measured_ratio >= 0.0
        report = picard_solve(prob, cfg.resolved_targets(), num,
                              raise_on_fail=False)
        assert not report.converged

    def test_history_is_preserved_and_nonlocal_selfconsistent(self):
        cfg = TransportConfig(N=16)
        prob = build_case1(cfg)
        num = Numerics(time_step=4e-3, history_samples=48)
        report = picard_solve(prob, cfg.resolved_targets(), num)
        traj = report.trajectory
        np.testing.assert_array_equal(traj.history,
                                      prob.sample_history(num.history_samples))
        x0_plus = traj.seg_values[0][0]
        expected = prob.phi0() + prob.nonlocal_term(traj)
        assert prob.norm(x0_plus - expected) <= 1e-7


class TestPieces:
    def test_zero_impulse(self):
        prob = make_problem(impulses=((lambda th, x: 0.0 * np.asarray(x)),),
                            phi0=np.ones(2))
        traj = Sweep(prob, Numerics(time_step=1e-2)).initial_iterate()
        np.testing.assert_array_equal(window_start(prob, traj, 1), np.zeros(2))

    def test_control_vanishes_off_control_windows(self):
        rng = np.random.default_rng(36)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.2, 0.0])
        targets = [rng.normal(size=2), rng.normal(size=2)]
        report = picard_solve(prob, targets, Numerics(time_step=2e-3))
        for t in (0.45, 0.5, 0.55, 0.0):
            np.testing.assert_array_equal(report.control.value(t), np.zeros(2))
        assert np.any(report.control.value(0.2) != 0.0)

    def test_nonlocal_zero_and_weighted(self):
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = make_problem(dim=1, mesh=mesh, phi0=[2.0])
        num = Numerics(time_step=1e-2, history_samples=8)
        report = picard_solve(prob, None, num)
        assert window_start(prob, report.trajectory, 0)[0] == 2.0
        nl = WeightedSampleNonlocal([0.1], [0.5])
        assert nl(report.trajectory)[0] == pytest.approx(0.2, rel=1e-12)

    def test_weighted_nonlocal_lipschitz(self):
        rng = np.random.default_rng(33)
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        nl = WeightedSampleNonlocal([0.1, -0.3, 0.05], [0.2, 0.5, 0.9])
        assert nl.lipschitz == pytest.approx(0.45)
        prob = make_problem(dim=2, mesh=mesh)
        num = Numerics(time_step=1e-2, history_samples=8)
        base = picard_solve(prob, None, num).trajectory
        for _ in range(10):
            vx = [rng.normal(size=v.shape) for v in base.seg_values]
            vy = [rng.normal(size=v.shape) for v in base.seg_values]
            x, y = base.with_values(vx), base.with_values(vy)
            gap = np.linalg.norm(nl(x) - nl(y))
            assert gap <= nl.lipschitz * sup_distance(x, y) + 1e-12

    def test_nonlocal_instant_validation(self):
        mesh = build_time_mesh([0.0, 1.0], 1.0)
        prob = make_problem(dim=1, mesh=mesh)
        base = picard_solve(prob, None, Numerics(time_step=1e-2,
                                                 history_samples=8)).trajectory
        nl = WeightedSampleNonlocal([1.0], [1.5])
        with pytest.raises(ValueError, match="instant"):
            nl(base)


class TestVerifyTargets:
    def test_all_hit_and_corollary(self):
        rng = np.random.default_rng(34)
        prob = make_problem(rng.normal(size=(3, 3)) / 2.0, dim=3,
                            phi0=rng.normal(size=3))
        targets = [rng.normal(size=3), rng.normal(size=3)]
        report = picard_solve(prob, targets, Numerics(time_step=1e-3))
        verdict = verify_targets(report, targets, tol_hit=1e-6)
        assert verdict.totally_controllable
        assert verdict.exactly_controllable
        assert verdict.failed_windows() == []

    def test_refuses_nonconverged(self):
        cfg = TransportConfig(N=12)
        prob = build_case1(cfg)
        report = picard_solve(prob, cfg.resolved_targets(),
                              Numerics(time_step=5e-3, history_samples=32,
                                       max_iter=1),
                              raise_on_fail=False)
        with pytest.raises(NonConvergenceError):
            verify_targets(report, cfg.resolved_targets())

    def test_exact_without_total(self):
        # spoiling only the first window leaves the final-state conclusion
        # intact while the all-windows verdict fails
        rng = np.random.default_rng(37)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
        targets = [rng.normal(size=2), rng.normal(size=2)]
        num = Numerics(time_step=1e-3, ridge=[0.5, 0.0])
        report = picard_solve(prob, targets, num)
        verdict = verify_targets(report, targets, tol_hit=1e-6)
        assert verdict.exactly_controllable
        assert not verdict.totally_controllable

    def test_two_impulse_pipeline(self):
        rng = np.random.default_rng(38)
        mesh = build_time_mesh([0.0, 0.2, 0.3, 0.6, 0.7, 1.0], 1.0)
        A = rng.normal(size=(3, 3)) / 2.0
        prob = make_problem(A, mesh=mesh, phi0=rng.normal(size=3) / 2.0)
        targets = [rng.normal(size=3) for _ in range(3)]
        num = Numerics(time_step=5e-4)
        report = picard_solve(prob, targets, num)
        assert report.converged
        assert max(report.per_window_defect) <= 1e-8
        verdict = verify_targets(report, targets)
        assert verdict.totally_controllable
        traj = report.trajectory
        for j, k in ((1, 1), (2, 3)):
            x_minus = traj.left_value_at_theta(j)
            expected = np.array([theta_x(t, x_minus) for t in traj.seg_times[k]])
            np.testing.assert_array_equal(traj.seg_values[k], expected)
        from evosteer.oracle import oracle_linear
        oracle = oracle_linear(prob, report.control, targets, num)
        assert sup_distance(report.trajectory, oracle.trajectory) <= 1e-6

    def test_two_impulse_transport_case1(self):
        from evosteer.transport import TransportConfig, build_case1
        mesh = build_time_mesh([0.0, 0.2, 0.3, 0.6, 0.7, 1.0], 1.0)
        cfg = TransportConfig(N=16, mesh=mesh)
        prob = build_case1(cfg)
        assert len(prob.impulses) == 2
        num = Numerics(time_step=4e-3, history_samples=32)
        report = picard_solve(prob, cfg.resolved_targets(), num)
        assert report.converged
        assert max(report.per_window_defect) <= 1e-3

    def test_integro_small_solve(self):
        from evosteer.transport import TransportConfig, build_case2
        cfg = TransportConfig(N=16)
        prob = build_case2(cfg)
        num = Numerics(time_step=4e-3, history_samples=32)
        report = picard_solve(prob, cfg.resolved_targets(), num)
        assert report.converged
        assert max(report.per_window_defect) <= 1e-6
        traj = report.trajectory
        x_minus = traj.left_value_at_theta(1)
        expected = np.array([theta_x(t, x_minus) for t in traj.seg_times[1]])
        np.testing.assert_array_equal(traj.seg_values[1], expected)

    def test_large_ridge_spoils_one_window(self):
        # heavy diagonal loading on window 1's Gramian biases its steering;
        # that window misses while window 0 still hits
        rng = np.random.default_rng(35)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
        targets = [rng.normal(size=2), rng.normal(size=2)]
        num = Numerics(time_step=1e-3, ridge=[0.0, 0.5])
        report = picard_solve(prob, targets, num)
        verdict = verify_targets(report, targets, tol_hit=1e-6)
        assert not verdict.totally_controllable
        assert verdict.failed_windows() == [1]
        assert verdict.hits[0]

    def test_zero_control_matrix_not_invertible(self):
        prob = make_problem(dim=2)
        prob.control_matrix = np.zeros((2, 2))
        with pytest.raises(NotInvertibleError):
            picard_solve(prob, [np.ones(2), np.ones(2)],
                         Numerics(time_step=1e-2))


@pytest.mark.parametrize("entry", ["run", "certify"])
def test_one_gramian_assembly_per_run(monkeypatch, entry):
    from evosteer import gramian, runner, solver
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gramian.assemble_all(*args, **kwargs)

    for module in (runner, solver):
        monkeypatch.setattr(module, "assemble_all", counting)
    rng = np.random.default_rng(39)
    prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
    targets = [rng.normal(size=2), rng.normal(size=2)]
    getattr(runner, entry)(prob, targets, Numerics(time_step=2e-3))
    assert len(calls) == 1
