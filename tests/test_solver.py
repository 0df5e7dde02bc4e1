import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from evosteer.core import (PiecewiseTrajectory, TimeMesh, path_sup_norm,
                           sup_distance)
from evosteer.discretize import eta_values
from evosteer.gramian import (ControlSignal, NotInvertibleError, gramian_solve,
                              steering_residual, window_start)
from evosteer.problems import (AssumptionConstants, ConvolutionKernel,
                               Numerics, Problem, WeightedSampleNonlocal)
from evosteer.semigroups import MatrixSemigroup, trapezoid_weights
from evosteer.solver import (NonConvergenceError, Sweep, picard_solve,
                             verify_targets)
from evosteer.transport import TransportConfig, build_case1
from test_core import rebuilt

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def per_sample_impulse(times, x):
    """The time-scaled impulse as the per-sample loop it replaced: one
    product per time."""
    return np.array([float(t) * np.asarray(x, dtype=float) for t in times])


def make_problem(A=None, dim=2, mesh=None, phi0=None, beta=1.0, impulses=None,
                 **kwargs):
    A = np.zeros((dim, dim)) if A is None else np.asarray(A, dtype=float)
    dim = A.shape[0]
    mesh = mesh or TimeMesh([0.0, 0.4, 0.6, 1.0])
    phi0 = np.zeros(dim) if phi0 is None else np.asarray(phi0, dtype=float)
    if impulses is None:
        impulses = tuple(np.outer for _ in range(mesh.n_impulses))
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
        mesh = TimeMesh([0.0, 1.0])
        prob = make_problem(A, mesh=mesh, phi0=rng.normal(size=3))
        targets = [rng.normal(size=3)]
        num = Numerics(time_step=2e-3)
        sweep = Sweep(prob, num)
        report = picard_solve(sweep, targets)
        once = swept(sweep, report.trajectory, targets)[0]
        twice = swept(sweep, once, targets)[0]
        assert sup_distance(twice, once) <= 1e-10

    def test_impulse_branch_replays_left_limit(self):
        rng = np.random.default_rng(31)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.4, -0.1])
        num = Numerics(time_step=2e-3)
        targets = [rng.normal(size=2), rng.normal(size=2)]
        report = picard_solve(Sweep(prob, num), targets)
        traj = report.trajectory
        x_minus = traj.left_value_at_theta(1)
        times = traj.seg_times[1]
        expected = per_sample_impulse(times, x_minus)
        np.testing.assert_array_equal(traj.seg_values[1], expected)

    def test_uncontrolled_constant_forcing(self):
        # A = 0, phi == 1, eta == c, no impulse, steered to the free path's
        # end 1 + c b: the residual and so the control are 0, and x(t) =
        # 1 + c t
        mesh = TimeMesh([0.0, 1.0])
        c = 0.25
        prob = make_problem(dim=1, mesh=mesh, phi0=[1.0],
                            nonlinearity=lambda t, v: np.full_like(v, c))
        num = Numerics(time_step=1e-3, history_samples=16)
        report = picard_solve(Sweep(prob, num), [np.array([1.0 + c * mesh.b])])
        t = report.trajectory.seg_times[0]
        np.testing.assert_allclose(report.trajectory.seg_values[0][:, 0],
                                   1.0 + c * t, atol=1e-12)
        assert np.abs(report.control.samples[0]).max() <= 1e-12
        assert report.per_window_defect[0] <= 1e-12

    def test_fixed_point_residual(self):
        cfg = TransportConfig(N=16)
        prob = build_case1(cfg)
        num = Numerics(time_step=4e-3, history_samples=48, tol=1e-10)
        sweep = Sweep(prob, num)
        report = picard_solve(sweep, cfg.resolved_targets())
        again = swept(sweep, report.trajectory, cfg.resolved_targets())[0]
        assert sup_distance(again, report.trajectory) <= 2.0 * 1e-10 * max(
            1.0, path_sup_norm(report.trajectory))


class TestPicard:
    def test_linear_converges_fast(self):
        rng = np.random.default_rng(32)
        mesh = TimeMesh([0.0, 1.0])
        prob = make_problem(rng.normal(size=(4, 4)) / 2.0, mesh=mesh,
                            phi0=rng.normal(size=4))
        report = picard_solve(Sweep(prob, Numerics(time_step=1e-3)),
                              [rng.normal(size=4)])
        assert report.converged
        assert report.iterations <= 2
        assert max(report.per_window_defect) <= 1e-8

    def test_case1_small_grid(self):
        # at beta = b the chord step lands window 0's start in the first
        # sweep and the second keeps every window, so there is one nonzero
        # update and the measured ratio is 0.0; at beta = 0.25 the live
        # forcing rows leave a contraction to measure (measured: 0.0047)
        num = Numerics(time_step=2e-3, history_samples=64)
        for beta, contracts in ((1.0, False), (0.25, True)):
            cfg = TransportConfig(N=24, beta=beta)
            report = picard_solve(Sweep(build_case1(cfg), num), cfg.resolved_targets())
            assert report.converged
            assert max(report.per_window_defect) <= 1e-3
            if contracts:
                assert 0.0 < report.measured_ratio < 1.0
            else:
                assert report.measured_ratio == 0.0

    def test_nonconvergence_carries_ratio(self):
        cfg = TransportConfig(N=12)
        prob = build_case1(cfg)
        num = Numerics(time_step=5e-3, history_samples=32, max_iter=1)
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(Sweep(prob, num), cfg.resolved_targets())
        assert err.value.report.iterations == 1
        assert err.value.report.measured_ratio >= 0.0
        assert not err.value.report.converged

    def test_history_is_preserved_and_nonlocal_selfconsistent(self):
        cfg = TransportConfig(N=16)
        prob = build_case1(cfg)
        num = Numerics(time_step=4e-3, history_samples=48)
        report = picard_solve(Sweep(prob, num), cfg.resolved_targets())
        traj = report.trajectory
        np.testing.assert_array_equal(traj.history,
                                      prob.sample_history(num.history_samples))
        x0_plus = traj.seg_values[0][0]
        expected = prob.phi0() + prob.nonlocal_term(traj)
        assert prob.norm(x0_plus - expected) <= 1e-7


class TestPieces:
    def test_zero_impulse(self):
        prob = make_problem(impulses=((lambda th, x: 0.0 * np.outer(th, x)),),
                            phi0=np.ones(2))
        sweep = Sweep(prob, Numerics(time_step=1e-2))
        targets = [np.ones(2)] * 2
        new, _ = swept(sweep, sweep.initial_iterate(targets), targets)
        np.testing.assert_array_equal(new.seg_values[2][0], np.zeros(2))

    @pytest.mark.parametrize("source", ["linear-config", "case1", "case2", "corpus"])
    def test_impulse_path_matches_per_sample_loop(self, source):
        # every shipped impulse map, on a whole window in one call, gives the
        # per-sample products bit for bit
        from evosteer.acceptance import _random_linear_instance
        from evosteer.config import load_config
        from evosteer.transport import build_case2
        if source == "linear-config":
            prob = load_config(str(CONFIGS / "linear-2d.ini")).problem
        elif source == "corpus":
            prob, _ = _random_linear_instance(np.random.default_rng(40), 4)
        else:
            build = build_case1 if source == "case1" else build_case2
            prob = build(TransportConfig(N=16))
        rng = np.random.default_rng(41)
        for j in range(1, prob.mesh.n_impulses + 1):
            times = np.sort(rng.uniform(0.0, 1.0, size=37))
            x = rng.normal(size=prob.dim)
            assert np.array_equal(prob.impulse_path(j, times, x),
                                  per_sample_impulse(times, x))

    def test_each_impulse_is_evaluated_once_per_sweep(self):
        # the sweep takes window j's start from impulse window j's last
        # sample: one call of each impulse map, on its whole window
        calls = []

        def impulse(times, x):
            calls.append(len(times))
            return np.outer(times, x)

        mesh = TimeMesh([0.0, 0.2, 0.3, 0.6, 0.7, 1.0])
        prob = make_problem(mesh=mesh, phi0=[0.3, 0.1], impulses=(impulse, impulse))
        sweep = Sweep(prob, Numerics(time_step=1e-2))
        targets = [np.ones(2)] * 3
        traj = sweep.initial_iterate(targets)
        calls.clear()
        sweep.apply(traj, targets)
        assert calls == [len(sweep.seg_times[1]), len(sweep.seg_times[3])]

    def test_impulse_map_of_wrong_shape_is_refused(self):
        prob = make_problem(impulses=((lambda th, x: 0.5 * np.asarray(x)),))
        with pytest.raises(ValueError, match=r"impulse map 1 returned shape "
                                             r"\(2,\) for 5 times, expected \(5, 2\)"):
            prob.impulse_path(1, np.linspace(0.3, 0.5, 5), np.ones(2))

    def test_control_vanishes_off_control_windows(self):
        rng = np.random.default_rng(36)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.2, 0.0])
        targets = [rng.normal(size=2), rng.normal(size=2)]
        report = picard_solve(Sweep(prob, Numerics(time_step=2e-3)), targets)
        for t in (0.45, 0.5, 0.55, 0.0):
            np.testing.assert_array_equal(report.control.value(t), np.zeros(2))
        assert np.any(report.control.value(0.2) != 0.0)

    def test_nonlocal_zero_and_weighted(self):
        mesh = TimeMesh([0.0, 1.0])
        prob = make_problem(dim=1, mesh=mesh, phi0=[2.0])
        num = Numerics(time_step=1e-2, history_samples=8)
        flat = flat_extension(Sweep(prob, num))
        assert window_start(prob, flat)[0] == 2.0
        nl = WeightedSampleNonlocal([0.1], [0.5])
        assert nl(flat)[0] == pytest.approx(0.2, rel=1e-12)

    def test_weighted_nonlocal_lipschitz(self):
        rng = np.random.default_rng(33)
        mesh = TimeMesh([0.0, 1.0])
        nl = WeightedSampleNonlocal([0.1, -0.3, 0.05], [0.2, 0.5, 0.9])
        assert nl.lipschitz == pytest.approx(0.45)
        prob = make_problem(dim=2, mesh=mesh)
        num = Numerics(time_step=1e-2, history_samples=8)
        base = flat_extension(Sweep(prob, num))
        for _ in range(10):
            vx = [rng.normal(size=v.shape) for v in base.seg_values]
            vy = [rng.normal(size=v.shape) for v in base.seg_values]
            x, y = rebuilt(base, vx), rebuilt(base, vy)
            gap = np.linalg.norm(nl(x) - nl(y))
            assert gap <= nl.lipschitz * sup_distance(x, y) + 1e-12

    def test_nonlocal_instant_validation(self):
        mesh = TimeMesh([0.0, 1.0])
        prob = make_problem(dim=1, mesh=mesh)
        num = Numerics(time_step=1e-2, history_samples=8)
        base = flat_extension(Sweep(prob, num))
        for instant in (1.5, np.nan):
            nl = WeightedSampleNonlocal([1.0], [instant])
            with pytest.raises(ValueError, match="instant"):
                nl(base)


class TestVerifyTargets:
    def test_all_hit_and_corollary(self):
        rng = np.random.default_rng(34)
        prob = make_problem(rng.normal(size=(3, 3)) / 2.0, dim=3,
                            phi0=rng.normal(size=3))
        targets = [rng.normal(size=3), rng.normal(size=3)]
        report = picard_solve(Sweep(prob, Numerics(time_step=1e-3)), targets)
        verdict = verify_targets(report, targets, Numerics().target_tol)
        assert verdict.totally_controllable
        assert verdict.exactly_controllable
        assert verdict.hits == [True, True]

    def test_refuses_nonconverged(self):
        cfg = TransportConfig(N=12)
        prob = build_case1(cfg)
        num = Numerics(time_step=5e-3, history_samples=32, max_iter=1)
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(Sweep(prob, num), cfg.resolved_targets())
        with pytest.raises(NonConvergenceError):
            verify_targets(err.value.report, cfg.resolved_targets(),
                           Numerics().target_tol)

    def test_exact_without_total(self):
        # a converged solve that misses only the first window keeps the
        # final-state conclusion while the all-windows verdict fails
        import dataclasses
        rng = np.random.default_rng(37)
        prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
        targets = [rng.normal(size=2), rng.normal(size=2)]
        report = picard_solve(Sweep(prob, Numerics(time_step=1e-3)), targets)
        missed = dataclasses.replace(report, per_window_defect=[1.0, 0.0])
        verdict = verify_targets(missed, targets, Numerics().target_tol)
        assert verdict.hits == [False, True]
        assert verdict.exactly_controllable
        assert not verdict.totally_controllable

    def test_two_impulse_pipeline(self):
        rng = np.random.default_rng(38)
        mesh = TimeMesh([0.0, 0.2, 0.3, 0.6, 0.7, 1.0])
        A = rng.normal(size=(3, 3)) / 2.0
        prob = make_problem(A, mesh=mesh, phi0=rng.normal(size=3) / 2.0)
        targets = [rng.normal(size=3) for _ in range(3)]
        num = Numerics(time_step=5e-4)
        report = picard_solve(Sweep(prob, num), targets)
        assert report.converged
        assert max(report.per_window_defect) <= 1e-8
        verdict = verify_targets(report, targets, Numerics().target_tol)
        assert verdict.totally_controllable
        traj = report.trajectory
        for j, k in ((1, 1), (2, 3)):
            x_minus = traj.left_value_at_theta(j)
            expected = per_sample_impulse(traj.seg_times[k], x_minus)
            np.testing.assert_array_equal(traj.seg_values[k], expected)
        from evosteer.oracle import oracle_linear
        oracle = oracle_linear(prob, report.control, targets, num)
        assert sup_distance(report.trajectory, oracle.trajectory) <= 1e-6

    def test_two_impulse_transport_case1(self):
        from evosteer.transport import TransportConfig, build_case1
        mesh = TimeMesh([0.0, 0.2, 0.3, 0.6, 0.7, 1.0])
        cfg = TransportConfig(N=16, mesh=mesh)
        prob = build_case1(cfg)
        assert len(prob.impulses) == 2
        num = Numerics(time_step=4e-3, history_samples=32)
        report = picard_solve(Sweep(prob, num), cfg.resolved_targets())
        assert report.converged
        assert max(report.per_window_defect) <= 1e-3

    def test_integro_small_solve(self):
        from evosteer.transport import TransportConfig, build_case2
        cfg = TransportConfig(N=16)
        prob = build_case2(cfg)
        num = Numerics(time_step=4e-3, history_samples=32)
        report = picard_solve(Sweep(prob, num), cfg.resolved_targets())
        assert report.converged
        assert max(report.per_window_defect) <= 1e-6
        traj = report.trajectory
        x_minus = traj.left_value_at_theta(1)
        expected = per_sample_impulse(traj.seg_times[1], x_minus)
        np.testing.assert_array_equal(traj.seg_values[1], expected)

    def test_zero_control_matrix_not_invertible(self):
        prob = make_problem(dim=2)
        prob.control_matrix = np.zeros((2, 2))
        with pytest.raises(NotInvertibleError):
            Sweep(prob, Numerics(time_step=1e-2))


@pytest.mark.parametrize("entry", ["run", "certify"])
def test_one_gramian_assembly_per_run(monkeypatch, entry):
    from evosteer import gramian, runner, solver
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gramian.assemble_all(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_all", counting)
    rng = np.random.default_rng(39)
    prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
    targets = [rng.normal(size=2), rng.normal(size=2)]
    getattr(runner, entry)(prob, targets, Numerics(time_step=2e-3))
    assert len(calls) == 1


@pytest.mark.parametrize("entry", ["run", "certify"])
def test_run_result_releases_the_sweep(monkeypatch, entry):
    # the CLI writes its outputs from the result; the sweep's grids, lag
    # tables and kernel are freed before that, only its blocks are kept
    import dataclasses
    import gc
    import weakref
    from evosteer import runner
    made = []

    class Tracked(Sweep):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(runner, "Sweep", Tracked)
    rng = np.random.default_rng(39)
    prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
    targets = [rng.normal(size=2), rng.normal(size=2)]
    result = getattr(runner, entry)(prob, targets, Numerics(time_step=2e-3))
    assert not any(isinstance(getattr(result, f.name), Sweep)
                   for f in dataclasses.fields(result))
    assert result.problem is prob and len(result.blocks) == 2
    gc.collect()
    assert len(made) == 1 and made[0]() is None


@pytest.mark.parametrize("entry", ["run", "certify"])
def test_singular_gramian_refused_before_the_kernel(monkeypatch, entry):
    # both commands prepare through one Sweep, which checks every Gramian
    # before it builds the Volterra kernel; the shift backend takes B = I
    # only, so its Gramians are held below an invertibility floor above
    # their certified floors (at most pi/N)
    from evosteer import discretize, runner
    from evosteer.transport import TransportConfig, build_case2
    calls = []
    monkeypatch.setattr(discretize.KernelDiscretization, "__init__",
                        lambda self, *args: calls.append(args))
    cfg = TransportConfig(N=8)
    with pytest.raises(NotInvertibleError):
        getattr(runner, entry)(build_case2(cfg), cfg.resolved_targets(),
                               Numerics(time_step=1e-2, history_samples=16,
                                        delta_floor=1.0))
    assert calls == []


@pytest.mark.parametrize("entry", ["run", "certify"])
def test_one_kernel_build_per_run(monkeypatch, entry):
    # the certificate reads its kernel mass from the sweep's kernel
    from evosteer import discretize, runner
    from evosteer.transport import TransportConfig, build_case2
    calls = []
    init = discretize.KernelDiscretization.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(discretize.KernelDiscretization, "__init__", counting)
    cfg = TransportConfig(N=8)
    result = getattr(runner, entry)(build_case2(cfg), cfg.resolved_targets(),
                                    Numerics(time_step=1e-2, history_samples=16))
    assert len(calls) == 1
    assert result.certificate.kernel_mass == pytest.approx(0.5, abs=1e-12)


def window_start_reference(problem, traj, j):
    """The start of control window j as it was formed before the sweep took
    a later window's start from the impulse window before it: phi(0) +
    nu(x) on the first window, the impulse map at lam_j alone on later
    ones."""
    if j == 0:
        return window_start(problem, traj)
    x_minus = traj.left_value_at_theta(j)
    return problem.impulse_path(j, [problem.mesh.lam[j]], x_minus)[0]


def synthesize_reference(problem, grid, block, residual):
    """The control on one window, as one synthesis made it before the
    Gramian solve and the adjoint product were folded into the sweep:
    (samples, preimage)."""
    y = gramian_solve(block, residual)
    U = grid.table.adjoint_evolve(y)[grid.m - np.arange(grid.m + 1)]
    if not problem.identity_control:
        U = U @ problem.control_adjoint().T
    return U, y


def swept(sweep, traj, targets):
    """``sweep.apply`` as a pure operator: the sweep advances a copy of
    ``traj``; (that copy, the control)."""
    new = rebuilt(traj)
    return new, sweep.apply(new, targets)[2]


def reference_sweep(self, traj, targets, forward=False):
    """``Sweep.apply`` as a pure operator, as it was before history-only
    forcing and unchanged windows were kept and before it became one pass
    over the mesh: every sweep reads the whole forcing, runs the Volterra
    product, takes each forcing integral with explicit trapezoid weights,
    solves every control window and evaluates each impulse twice, once for
    its window and once at lam_j for the next window's start.  Both impulse
    reads take x(theta_j-) from ``traj``, as the sweep did before it ran
    forward; with ``forward``, from the new path, as the sweep does now.
    Window 0 starts where the sweep starts it (``Sweep._first_start``).
    Gives the new path and the control."""
    from test_semigroups import lagged_weighted_sum
    problem = self.problem
    if self.kern is not None:
        inner_all = self.kern.inner_convolution(self.kern.q_values(traj, slice(None)))
    seg_values, samples, preimages = [], [], []

    def left(j):
        return seg_values[2 * j - 2][-1] if forward else traj.left_value_at_theta(j)

    for k, (a, end, kind, j) in enumerate(self.intervals):
        if kind == "impulse":
            seg_values.append(problem.impulse_path(j, self.seg_times[k], left(j)))
            continue
        grid = self.grids[j]
        if j == 0:
            forcing = self._forcings(traj)[0]
            start = self._first_start(traj, targets, forcing, self._integral(0, forcing))
        else:
            start = problem.impulse_path(j, [problem.mesh.lam[j]], left(j))[0]
        if self.kern is not None:
            F = inner_all[self.kern.block_slice(2 * j)].copy()
        else:
            F = eta_values(problem, traj, grid.times)
        m, delta = grid.m, (grid.times[-1] - grid.times[0]) / grid.m
        integral = lagged_weighted_sum(grid.table, m - np.arange(m + 1), F,
                                       trapezoid_weights(m, delta))
        U, y = synthesize_reference(
            problem, grid, self.blocks[j],
            steering_residual(start, targets[j], grid, integral))
        samples.append(U)
        preimages.append(y)
        F += U @ problem.control_matrix.T
        seg_values.append(grid.table.convolve(start, F))
    control = ControlSignal(problem=problem, window_times=[g.times for g in self.grids],
                            samples=samples, preimages=preimages)
    return rebuilt(traj, seg_values), control


def reference_apply(self, traj, targets):
    """:func:`reference_sweep`, forward, in ``Sweep.apply``'s form: ``traj``
    advanced in place, and the update, the new path's norm and the control."""
    new, control = reference_sweep(self, traj, targets, forward=True)
    update, norm = sup_distance(new, traj), path_sup_norm(new)
    traj.sample_stack()[...] = new.sample_stack()
    return update, norm, control


def reference_solve(sweep, targets):
    """The Picard solve as it was before the sweep ran forward, on the
    backward :func:`reference_sweep`: from ``sweep``'s first iterate until
    the update drops below the tolerance, with no other stop.  Gives the
    path, the control and the number of sweeps."""
    num = sweep.numerics
    traj = sweep.initial_iterate(targets)
    for it in range(1, num.max_iter + 1):
        new, control = reference_sweep(sweep, traj, targets)
        update = sup_distance(new, traj)
        traj = new
        if update <= num.tol * max(1.0, path_sup_norm(traj)):
            return traj, control, it
    raise AssertionError("the reference solve did not converge")


def assert_same_apply(got, want):
    (path, control), (ref_path, ref_control) = got, want
    assert np.array_equal(path.sample_stack(), ref_path.sample_stack())
    assert path.sample_stack().tobytes() == ref_path.sample_stack().tobytes()
    for name in ("samples", "preimages"):
        for a, b in zip(getattr(control, name), getattr(ref_control, name)):
            assert a.tobytes() == b.tobytes()


def assert_close_apply(got, want, eps):
    """Every path, control sample and preimage value within ``eps`` times
    the largest |value| of its array in ``want``."""
    (path, control), (ref_path, ref_control) = got, want
    pairs = [(path.sample_stack(), ref_path.sample_stack())]
    pairs += list(zip(control.samples + control.preimages,
                      ref_control.samples + ref_control.preimages))
    for a, b in pairs:
        assert np.abs(a - b).max() <= eps * np.abs(b).max()


def _mixed_forcing(t, v):
    return 0.2 * v * (1.0 - 0.1 * v) + 0.05 * t[:, None]


def _equivalence_case(name):
    """(problem, numerics, targets, window solves per iteration count)."""
    from test_discretize import _mixed_delay_case
    if name.startswith("transport"):
        from evosteer.transport import build_case2
        cfg = TransportConfig(N=16)
        build = build_case1 if name == "transport-case1" else build_case2
        num = Numerics(time_step=4e-3, history_samples=48)
        # Case 1's first sweep lands window 0's nonlocal start (the chord
        # step) and its second keeps both windows, window 1's start having
        # moved by round-off only; Case 2's start stays phi(0), so one sweep
        # solves both windows and is the last: each window is solved once
        return build(cfg), num, cfg.resolved_targets(), lambda it: 2
    if name.startswith("mixed"):
        prob, num, _, _ = _mixed_delay_case(name.split("-")[1], _mixed_forcing)
        # window 1 reads the live path every sweep
        return prob, num, [np.ones(2), -np.ones(2)], lambda it: 1 + it
    rng = np.random.default_rng(42)
    prob = make_problem(rng.normal(size=(3, 3)) / 2.0, phi0=rng.normal(size=3))
    return prob, Numerics(time_step=2e-3), [rng.normal(size=3) for _ in range(2)], \
        lambda it: 2


EQUIVALENCE_CASES = ["transport-case1", "transport-case2", "mixed-semilinear",
                     "mixed-integro", "linear-impulse"]


def _solve(sweep, targets):
    try:
        return picard_solve(sweep, targets)
    except NonConvergenceError as err:
        return err.report


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_kept_forcing_and_windows_give_the_reference_solve(monkeypatch, name):
    # reading history-only forcing once and keeping unchanged windows
    # changes no bit of the forward Picard solve, except where window 1 is
    # kept while its start moves by round-off (Case 1, whose nonlocal start
    # moves window 0 and so window 0's steered end): there every path,
    # control and preimage value lies within eps (the largest
    # table.fft_error: 5.6e-14) of its array's largest |value|, and Case
    # 1's last sweep keeps both windows, an update of exactly 0 and so a
    # measured ratio of 0.0, where the reference re-solves them to
    # round-off.  Case 2 and linear-impulse stop after their one sweep in
    # both runs, with an update of exactly 0
    prob, num, targets, solves = _equivalence_case(name)
    sweep = Sweep(prob, num)
    report = _solve(sweep, targets)
    with monkeypatch.context() as m:
        m.setattr(Sweep, "apply", reference_apply)
        ref = _solve(Sweep(prob, num), targets)
    assert report.converged and ref.converged
    got, want = (report.trajectory, report.control), (ref.trajectory, ref.control)
    eps = max(g.table.fft_error for g in sweep.grids)
    if name == "transport-case1":
        assert_close_apply(got, want, eps)
        scale = np.abs(ref.trajectory.sample_stack()).max()
        assert np.allclose(report.per_window_defect, ref.per_window_defect,
                           rtol=0.0, atol=eps * scale)
    else:
        assert_same_apply(got, want)
        assert report.per_window_defect == ref.per_window_defect
    assert report.iterations == ref.iterations
    if name == "transport-case1":
        assert report.final_update == 0.0 < ref.final_update <= eps * scale
        assert report.measured_ratio == 0.0 < ref.measured_ratio == \
            ref.final_update / ref.updates[0]
    else:
        assert report.final_update == ref.final_update
        assert report.measured_ratio == ref.measured_ratio
    assert (report.final_update == 0.0) == (name in ("transport-case1", "transport-case2",
                                                     "linear-impulse"))
    assert report.window_solves == solves(report.iterations)


def flat_extension(self):
    """The path that holds phi(0) on every interval of ``self``'s mesh."""
    problem = self.problem
    return PiecewiseTrajectory(
        problem.mesh, problem.beta,
        problem.sample_history(self.numerics.history_samples), self.seg_times,
        [np.tile(problem.phi0(), (len(t), 1)) for t in self.seg_times],
        weight=problem.state_weight)


def flat_start(self, targets):
    """``Sweep.initial_iterate`` as it was before the targets shaped it: every
    control window at phi(0) + nu(flat extension of phi(0)) and each impulse
    window its impulse map of that value, whatever the targets."""
    problem = self.problem
    flat = flat_extension(self)
    v0 = window_start(problem, flat)
    seg_values = [np.tile(v0, (len(t), 1)) for t in self.seg_times]
    for k, (a, end, kind, j) in enumerate(self.intervals):
        if kind == "impulse":
            seg_values[k] = problem.impulse_path(j, self.seg_times[k], v0)
    return rebuilt(flat, seg_values)


def steered_start(self, targets):
    """``Sweep.initial_iterate`` as it was before the straight-line start:
    :func:`flat_start`, with each control window that an impulse follows
    ending on its target and each impulse window its impulse map of that
    end."""
    traj = flat_start(self, targets)
    for k, (a, end, kind, j) in enumerate(self.intervals):
        if kind == "impulse":
            traj.seg_values[k - 1][-1] = targets[j - 1]
            traj.seg_values[k][...] = self.problem.impulse_path(
                j, self.seg_times[k], traj.seg_values[k - 1][-1])
    return traj


def plain_first_start(self, traj, targets, *window_0):
    """``Sweep._first_start`` as it was before the chord step: phi(0) +
    nu(x) in every sweep."""
    return window_start(self.problem, traj)


def iterate_chord_start(self, traj, targets, *window_0):
    """``Sweep._first_start`` as it was before it read nu off the predicted
    steered path of the sweep's forcing: the chord step s + (I - J)^-1
    (phi(0) + nu(x) - s), with the same J, its residual read off the
    iterate's window 0."""
    from evosteer.semigroups import band_product
    start = window_start(self.problem, traj)
    if not self._chord:
        return start
    table = self.grids[0].table
    if self._jacobian is None:
        alphas, instants = self._chord
        _, j, f = traj.locate(instants)
        rows = np.concatenate((j, j + 1))
        weights = np.concatenate((alphas * (1.0 - f), alphas * f))
        self._jacobian = (table.lag_band(rows, weights),
                          table.cross_gramian(rows, weights),
                          self.blocks[0]._tridiagonal.solve)
    lag, cross, solve = self._jacobian
    s = traj.seg_values[0][0]
    bound = table.fft_error * max(np.abs(s).max(), np.abs(start).max())
    term = step = start - s
    size = np.abs(term).max()
    while size > bound:
        term = (band_product(lag, term)
                - band_product(cross, solve(table.apply(table.m, term))))
        step = step + term
        size, last = np.abs(term).max(), size
        if size >= last:
            return start
    return s + step


def _start_case(name):
    """(problem, numerics, targets): a preset at beta = b, or Case 1 or 2 at
    N = 16 with beta = 0.25, where the forcing reads the live path."""
    if name.endswith(".ini"):
        from evosteer.config import load_config
        cfg = load_config(str(CONFIGS / name))
        return cfg.problem, cfg.numerics, cfg.targets
    from evosteer.transport import build_case2
    cfg = TransportConfig(N=16, beta=0.25)
    build = build_case1 if name == "case1-beta0.25" else build_case2
    return build(cfg), Numerics(time_step=4e-3, history_samples=48), \
        cfg.resolved_targets()


# per start case: the sweeps of the solve from the first iterate and from
# :func:`flat_start`
_START_SWEEPS = {"transport-case1.ini": (2, 2), "transport-case2.ini": (1, 1),
                 "linear-2d.ini": (1, 1), "case1-beta0.25": (5, 5),
                 "case2-beta0.25": (4, 4)}


@pytest.mark.parametrize("name", ["transport-case1.ini", "transport-case2.ini",
                                  "linear-2d.ini", "case1-beta0.25",
                                  "case2-beta0.25"])
def test_steered_start_gives_the_flat_start_solve(monkeypatch, name):
    # the first iterate, each control window on the straight line to its
    # target, against the flat start, whose control windows hold phi(0) +
    # nu(flat extension of phi(0)) whatever the targets.  They differ only
    # inside the control windows.  Without a nonlocal term at beta = b a
    # sweep reads nothing of the first iterate but the history and phi(0),
    # so both solves stop after that one sweep, bit for bit the same,
    # update and measured ratio (exactly 0) included; at beta = 0.25 every
    # path, control and preimage value lies within eps (the largest
    # table.fft_error) of its array's largest |value|.  Case 1's nonlocal
    # term reads window 0's interior, which each first iterate fills
    # differently, so the solves stop at different sweeps of one
    # contraction: within the Picard tolerance tol * max(1, norm) of each
    # other (measured, as fractions of max(1, norm): at most 3.6e-16 at
    # beta = b and 2.6e-13 at beta = 0.25, against tol = 1e-9), with
    # defects at round-off.  A later window whose forcing rows are all
    # frozen is solved once, not twice
    from collections import Counter
    from evosteer import solver
    prob, num, targets = _start_case(name)
    solves = Counter()
    synthesize = solver.synthesize_control

    def counted(problem, grid, *args):
        solves[grid.index] += 1
        return synthesize(problem, grid, *args)

    with monkeypatch.context() as m:
        m.setattr(solver, "synthesize_control", counted)
        sweep = Sweep(prob, num)
        report = picard_solve(sweep, targets)
    with monkeypatch.context() as m:
        m.setattr(Sweep, "initial_iterate", flat_start)
        ref = picard_solve(Sweep(prob, num), targets)
    assert (report.iterations, ref.iterations) == _START_SWEEPS[name]
    eps = max(g.table.fft_error for g in sweep.grids)
    scale = np.abs(ref.trajectory.sample_stack()).max()
    got, want = (report.trajectory, report.control), (ref.trajectory, ref.control)
    nonlocal_start = prob.nonlocal_term is not None
    assert nonlocal_start == name.startswith(("transport-case1", "case1"))
    if nonlocal_start:
        assert sup_distance(report.trajectory, ref.trajectory) <= \
            num.tol * max(1.0, path_sup_norm(ref.trajectory))
        assert max(report.per_window_defect + ref.per_window_defect) <= eps * scale
    elif prob.beta == prob.mesh.b:
        assert_same_apply(got, want)
        assert report.per_window_defect == ref.per_window_defect
        assert (report.final_update, report.measured_ratio) == \
            (ref.final_update, ref.measured_ratio) == (0.0, 0.0)
        assert report.window_solves == ref.window_solves
    else:
        assert_close_apply(got, want, eps)
        assert np.allclose(report.per_window_defect, ref.per_window_defect,
                           rtol=0.0, atol=eps * scale)
    frozen = [g.times[-1] <= prob.beta for g in sweep.grids]
    assert all(frozen) == (prob.beta == prob.mesh.b)
    assert [solves[j] for j in range(1, len(frozen)) if frozen[j]] == \
        [1] * sum(frozen[1:])
    assert sum(solves.values()) == report.window_solves


@pytest.mark.parametrize("name, iterations", [
    ("transport-case1.ini", (2, 2)), ("transport-case2.ini", (1, 1)),
    ("linear-2d.ini", (1, 1)), ("case1-beta0.25", (5, 5)),
    ("case2-beta0.25", (4, 4))])
def test_straight_start_gives_the_steered_start_solve(monkeypatch, name,
                                                      iterations):
    # the straight-line first iterate differs from the steered one only
    # inside the control windows.  Where nothing reads those (no nonlocal
    # term, every forcing row frozen: Case 2 and linear-2d at beta = b) the
    # forward sweep reads of either only the history and phi(0): both
    # solves stop after that one sweep, bit for bit the same, measured
    # ratio and update included.  Case 2 at beta = 0.25 stays within eps
    # (the largest table.fft_error) of it.  Case 1's nonlocal term reads
    # window 0's interior, which the chord step reads off the predicted
    # steered path instead, so both solves take the same sweeps and lie
    # within the Picard tolerance tol * max(1, norm) of a solve at tol =
    # 1e-14 (measured, as fractions of max(1, norm): at most 3.6e-16 at
    # beta = b and 2.6e-13 at beta = 0.25, against tol = 1e-9), with
    # defects at round-off
    import dataclasses
    prob, num, targets = _start_case(name)
    sweep = Sweep(prob, num)
    report = picard_solve(sweep, targets)
    with monkeypatch.context() as m:
        m.setattr(Sweep, "initial_iterate", steered_start)
        ref = picard_solve(Sweep(prob, num), targets)
    assert (report.iterations, ref.iterations) == iterations
    eps = max(g.table.fft_error for g in sweep.grids)
    got, want = (report.trajectory, report.control), (ref.trajectory, ref.control)
    if prob.nonlocal_term is not None:
        fine = picard_solve(Sweep(prob, dataclasses.replace(num, tol=1e-14)), targets)
        bound = num.tol * max(1.0, path_sup_norm(fine.trajectory))
        assert sup_distance(report.trajectory, fine.trajectory) <= bound
        assert sup_distance(ref.trajectory, fine.trajectory) <= bound
        scale = np.abs(fine.trajectory.sample_stack()).max()
        assert max(report.per_window_defect) <= eps * scale
    elif prob.beta == prob.mesh.b:
        assert_same_apply(got, want)
        assert report.per_window_defect == ref.per_window_defect
        assert (report.final_update, report.measured_ratio, report.window_solves) == \
            (0.0, 0.0, ref.window_solves)
        assert (ref.final_update, ref.measured_ratio) == (0.0, 0.0)
    else:
        assert_close_apply(got, want, eps)


@pytest.mark.parametrize("name", ["transport-case1.ini", "case2-beta0.25",
                                  "transport-case2.ini", "linear-2d.ini",
                                  "mixed-semilinear"])
def test_first_iterate_runs_on_the_straight_line(name):
    # on both backends, in a run of one sweep or of more, each control
    # window of the first iterate is the straight line (1 - s) start + s
    # target, s = (t - a) / (end - a), bit for bit: window 0 from phi(0) +
    # nu of the flat extension of phi(0), a later window from the last
    # sample of the impulse window before it.  Row 0 holds the start's
    # bytes and the last row the target's
    if name.startswith("mixed"):
        prob, num, targets, _ = _equivalence_case(name)
    else:
        prob, num, targets = _start_case(name)
    sweep = Sweep(prob, num)
    traj = sweep.initial_iterate(targets)
    flat = flat_extension(sweep)
    assert traj.history.tobytes() == flat.history.tobytes()
    for k, (a, end, kind, j) in enumerate(sweep.intervals):
        if kind == "impulse":
            assert traj.seg_values[k].tobytes() == prob.impulse_path(
                j, sweep.seg_times[k], traj.seg_values[k - 1][-1]).tobytes()
            continue
        start = (window_start(prob, flat) if j == 0 else traj.seg_values[k - 1][-1])
        target = np.asarray(targets[j], dtype=float)
        s = ((sweep.seg_times[k] - a) / (end - a))[:, None]
        piece = traj.seg_values[k]
        assert piece.tobytes() == ((1.0 - s) * start + s * target).tobytes()
        assert piece[0].tobytes() == start.tobytes()
        assert piece[-1].tobytes() == target.tobytes()


# per ladder case: the preset, nu's weights and instants in place of the
# preset's, and the sweeps the plain start takes at N = 16 ... 512
_LADDER = {
    "transport-case1": ("transport-case1", None, [8, 7, 7, 7, 7, 7]),
    "transport-case2": ("transport-case2", None, [1] * 6),
    "case1-alpha0.3-at-0.1": ("transport-case1", ("0.3", "0.1"), [13] * 6),
    "case1-instant-in-window-1": ("transport-case1", ("0.1 0.2", "0.2 0.7"),
                                  [9, 8, 8, 8, 8, 8]),
}


@pytest.mark.parametrize("preset, sweeps, ratios", [
    ("transport-case1", [2] * 6, [0.0] * 6),
    ("transport-case2", [1] * 6, [0.0] * 6),
    ("case1-alpha0.3-at-0.1", [2] * 6, [0.0] * 6),
    ("case1-instant-in-window-1", [3] * 6,
     [0.2025, 0.1974, 0.1953, 0.1953, 0.1952, 0.1952])])
def test_sweep_count_ladder(monkeypatch, tmp_path, preset, sweeps, ratios):
    # the presets at their step 1e-3 from N = 16 to 512, Case 1 also with
    # nu = 0.3 x(0.1) and nu = 0.1 x(0.2) + 0.2 x(0.7), against the start
    # before the chord step (``_LADDER``'s plain sweeps) and the chord step
    # with its residual read off the iterate (:func:`iterate_chord_start`,
    # 3 sweeps at every N on all three Case-1 variants).  Reading nu off
    # the predicted steered path of the sweep's own forcing lands Case 1 on
    # the start nu reproduces in its first sweep, and its second keeps
    # every window: 2 sweeps at every N, one nonzero update and a measured
    # ratio of 0.0, where the plain start took 13 at alpha = 0.3.  The
    # instant in window 1 reads a window the target fixes, so the step is
    # taken over the instant in window 0 alone, and nu's read of window 1
    # in the first sweep is of the first iterate's straight line there, not
    # of the steered path the sweep writes: 3 sweeps, the second update
    # about 0.2 of the first.  Every solve lies within 2 tol max(1, norm)
    # of the other two (each within tol max(1, norm) of the fixed point,
    # every ratio being below 1/2; measured: at most 6.3e-15 of max(1,
    # norm) from the iterate-read chord's and 1.9e-10 from the plain
    # start's, against 2e-9) and takes no more sweeps than either.  Case
    # 2's one sweep is its last at every N
    from evosteer.config import load_config
    got, measured = [], []
    name, nonlocal_term, plain = _LADDER[preset]
    for n, plain_sweeps in zip((16, 32, 64, 128, 256, 512), plain):
        text = (CONFIGS / f"{name}.ini").read_text()
        edits = [("n = 64\n", f"n = {n}\n")]
        if nonlocal_term is not None:
            edits += [("alphas = 0.1\n", f"alphas = {nonlocal_term[0]}\n"),
                      ("instants = 0.2\n", f"instants = {nonlocal_term[1]}\n")]
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        ini = tmp_path / f"{n}.ini"
        ini.write_text(text)
        cfg = load_config(str(ini))
        report = picard_solve(Sweep(cfg.problem, cfg.numerics), cfg.targets)
        with monkeypatch.context() as m:
            m.setattr(Sweep, "_first_start", iterate_chord_start)
            chord = picard_solve(Sweep(cfg.problem, cfg.numerics), cfg.targets)
            m.setattr(Sweep, "_first_start", plain_first_start)
            ref = picard_solve(Sweep(cfg.problem, cfg.numerics), cfg.targets)
        assert report.converged and ref.iterations == plain_sweeps
        for other in (chord, ref):
            assert report.iterations <= other.iterations
            assert max(report.measured_ratio, other.measured_ratio) < 0.5
            assert sup_distance(report.trajectory, other.trajectory) <= \
                2.0 * cfg.numerics.tol * max(1.0, path_sup_norm(other.trajectory))
        got.append(report.iterations)
        measured.append(report.measured_ratio)
    assert got == sweeps
    assert measured == pytest.approx(ratios, rel=0.02, abs=0.0)


def _chord_case(name, tmp_path, monkeypatch):
    """(problem, numerics, targets) of a Case-1 run: the preset at beta =
    0.25, 0.5, 0.75 or its own 1 ("beta<beta>"), or an instance of the
    benchmark's transport-semilinear workload ("bench-<seed>-<index>"),
    generated as the benchmark generates it."""
    import importlib
    from evosteer.config import load_config
    if name.startswith("bench"):
        _, seed, index = name.split("-")
        monkeypatch.syspath_prepend(str(CONFIGS.parent / "bench"))
        workload = importlib.import_module("workloads").WORKLOADS["transport-semilinear"]
        text = workload.instance(int(seed), int(index), tmp_path).ini
    else:
        text = (CONFIGS / "transport-case1.ini").read_text()
        assert "beta = 1.0\n" in text
        text = text.replace("beta = 1.0\n", f"beta = {name[4:]}\n")
    ini = tmp_path / "case.ini"
    ini.write_text(text)
    cfg = load_config(str(ini))
    return cfg.problem, cfg.numerics, cfg.targets


@pytest.mark.parametrize("name, iterations", [
    ("beta0.25", (5, 6, 7)), ("beta0.5", (3, 4, 7)), ("beta0.75", (3, 4, 7)),
    ("beta1.0", (2, 3, 7)), ("bench-1-0", (2, 3, 7)), ("bench-1-1", (2, 3, 7)),
    ("bench-2-0", (2, 3, 7)), ("bench-2-1", (2, 3, 7)), ("bench-3-0", (2, 3, 7)),
    ("bench-3-1", (2, 3, 7))])
def test_chord_start_gives_the_plain_start_solve(monkeypatch, tmp_path, name,
                                                 iterations):
    # Case 1 at N = 64 and the benchmark's instances at N = 256, from the
    # chord step, from the chord step with its residual read off the
    # iterate (:func:`iterate_chord_start`) and from the start before
    # either (:func:`plain_first_start`), all from the same first iterate.
    # The step changes only how the iteration reaches the start nu
    # reproduces, so the solves stop near one fixed point: each within tol
    # max(1, norm) of it, every ratio being below 1/2, so within 2 tol
    # max(1, norm) of each other (measured, as fractions of max(1, norm): at
    # most 5.5e-16 at N = 64 with beta >= 0.5, 7.3e-13 at beta = 0.25 and
    # 9.2e-16 on the instances from the iterate-read chord's, 2.5e-11 from
    # the plain start's, against 2e-9), with defects at round-off; the chord
    # step never takes more sweeps than either.  ``updates`` holds every
    # sweep's update, the last the final one, and the largest ratio of
    # consecutive ones is the measured ratio
    prob, num, targets = _chord_case(name, tmp_path, monkeypatch)
    sweep = Sweep(prob, num)
    assert sweep._chord
    report = picard_solve(sweep, targets)
    with monkeypatch.context() as m:
        m.setattr(Sweep, "_first_start", iterate_chord_start)
        chord = picard_solve(Sweep(prob, num), targets)
        m.setattr(Sweep, "_first_start", plain_first_start)
        ref = picard_solve(Sweep(prob, num), targets)
    assert (report.iterations, chord.iterations, ref.iterations) == iterations
    for other in (chord, ref):
        assert max(report.measured_ratio, other.measured_ratio) < 0.5
        assert sup_distance(report.trajectory, other.trajectory) <= \
            2.0 * num.tol * max(1.0, path_sup_norm(other.trajectory))
    eps = max(g.table.fft_error for g in sweep.grids)
    scale = np.abs(ref.trajectory.sample_stack()).max()
    assert max(report.per_window_defect) <= eps * scale
    updates = report.updates
    assert len(updates) == report.iterations and updates[-1] == report.final_update
    assert report.measured_ratio == max(b / a for a, b in zip(updates, updates[1:]))


@pytest.mark.parametrize("name", [f"bench-{seed}-{index}" for seed in (1, 2, 3)
                                  for index in (0, 1)])
def test_bench_instances_end_on_a_sweep_that_solves_no_window(monkeypatch, tmp_path,
                                                              name):
    # every frozen-forcing instance of the benchmark's transport-semilinear
    # workload takes 2 sweeps: the first solves both windows, window 0 from
    # the chord step's start, which lands on the start nu reproduces, and
    # the second moves that start by less than the keep rule's bound
    # (measured: 2.6e-3 to 7.1e-3 of it), so it keeps both windows and its
    # update is exactly 0
    prob, num, targets = _chord_case(name, tmp_path, monkeypatch)
    report = picard_solve(Sweep(prob, num), targets)
    assert report.iterations == 2
    assert report.window_solves_per_sweep == [2, 0]
    assert report.updates[-1] == report.final_update == 0.0 < report.updates[-2]


def test_chord_step_lands_on_the_start_nu_reproduces(monkeypatch, tmp_path):
    # with every forcing row frozen, window 0's path is affine in its start
    # with the Jacobian J the chord step inverts, and the step reads nu off
    # that path as predicted from the iterate's start with the sweep's own
    # forcing, so the first sweep's start s' is the start whose path nu
    # maps back to it, up to the Neumann series' tail and the rounding of
    # the rows nu reads.  With q = 2 sum |alpha_i| bounding |J|_inf, eps
    # the table's fft_error and S the largest |value| of the first
    # iterate's starts and of window 0's path, the series stops at a term
    # of at most eps S, so its tail is at most q / (1 - q) eps S and (I -
    # J) of it at most (1 + q) q / (1 - q) eps S; the rows add q eps S: in
    # all 2 q / (1 - q) eps S, 3.4e-14 to 2.8e-13 (measured: 5.2e-16 to
    # 9.1e-15, the plain step being 0.12 to 0.17)
    for name in ("beta1.0", "n16", "alpha0.3-at-0.1", "off-grid-instant", "bench-1-0"):
        case_dir = tmp_path / name
        case_dir.mkdir()
        _check_chord_step_lands(monkeypatch, case_dir, name)


def _check_chord_step_lands(monkeypatch, tmp_path, name):
    """Run one sweep of case ``name`` and check its start against the
    start nu reproduces (see the test above)."""
    if name in ("n16", "alpha0.3-at-0.1", "off-grid-instant"):
        text = (CONFIGS / "transport-case1.ini").read_text()
        edits = {"n16": [("n = 64\n", "n = 16\n")],
                 "alpha0.3-at-0.1": [("alphas = 0.1\n", "alphas = 0.3\n"),
                                     ("instants = 0.2\n", "instants = 0.1\n")],
                 # halfway between two samples of the step 1e-3
                 "off-grid-instant": [("instants = 0.2\n", "instants = 0.2005\n")]}[name]
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        from evosteer.config import load_config
        (tmp_path / "case.ini").write_text(text)
        cfg = load_config(str(tmp_path / "case.ini"))
        prob, num, targets = cfg.problem, cfg.numerics, cfg.targets
    else:
        prob, num, targets = _chord_case(name, tmp_path, monkeypatch)
    sweep = Sweep(prob, num)
    traj = sweep.initial_iterate(targets)
    s, start = traj.seg_values[0][0].copy(), window_start(prob, traj)
    sweep.apply(traj, targets)
    moved = traj.seg_values[0][0]
    scale = max(np.abs(s).max(), np.abs(start).max(), np.abs(traj.seg_values[0]).max())
    residual = window_start(prob, traj) - moved
    q = 2.0 * prob.nonlocal_term.lipschitz
    eps = sweep.grids[0].table.fft_error
    assert np.abs(moved - s).max() > 1e-3
    assert np.abs(residual).max() <= 2.0 * q / (1.0 - q) * eps * scale


def _fallback_case(name):
    """(problem, numerics, targets) of a run whose sweeps take no chord
    step, the nonlocal term being read as the chord step would read it
    where one is present."""
    num = Numerics(time_step=4e-3, history_samples=48)
    if name == "matrix":
        rng = np.random.default_rng(44)
        prob = make_problem(rng.normal(size=(3, 3)) / 2.0, phi0=rng.normal(size=3),
                            nonlocal_term=WeightedSampleNonlocal([0.1], [0.2]))
        return prob, num, [rng.normal(size=3) for _ in range(2)]
    if name == "one-sweep":
        from evosteer.transport import build_case2
        cfg = TransportConfig(N=16)
        return build_case2(cfg), num, cfg.resolved_targets()
    alphas, instants = {"instant-at-0": ((0.1, 0.1), (0.0, 0.2)),
                        "instant-at-theta-1": ((0.1, 0.1), (0.2, 0.3)),
                        "instant-in-window-1": ((0.1, 0.2), (0.2, 0.7)),
                        "weights-too-large": ((0.25, 0.25), (0.1, 0.2))}.get(
                            name, ((0.1,), (0.2,)))
    # beside one inside window 0, an instant outside it with live forcing
    # rows, which carry window 0 into the later windows
    beta = 0.25 if name.startswith("instant") else 1.0
    cfg = TransportConfig(N=16, beta=beta, alphas=alphas, instants=instants)
    prob = build_case1(cfg)
    if name == "other-nu":
        prob.nonlocal_term = lambda traj: 0.1 * traj.value(0.2)
    return prob, num, cfg.resolved_targets()


@pytest.mark.parametrize("name", ["matrix", "one-sweep", "other-nu",
                                  "instant-at-0", "instant-at-theta-1",
                                  "instant-in-window-1", "weights-too-large"])
def test_runs_without_the_chord_step_keep_the_plain_start(monkeypatch, name):
    # the chord step is taken only in a sweep on the shift backend whose nu
    # is weighted samples with an instant in (0, theta_1), 2 sum |alpha_i|
    # < 1 over those instants, and every instant there unless no forcing
    # row is live.  Every other run starts each sweep's window 0 at phi(0)
    # + nu(x), so from the same first iterate its solve is the plain
    # start's bit for bit: the matrix backend, a run one sweep ends,
    # another nu, an instant at 0, at theta_1 or in window 1
    # beside one inside window 0 at beta = 0.25, and weights too large for
    # the series
    prob, num, targets = _fallback_case(name)
    sweep = Sweep(prob, num)
    report = picard_solve(sweep, targets)
    with monkeypatch.context() as m:
        m.setattr(Sweep, "_first_start", plain_first_start)
        ref = picard_solve(Sweep(prob, num), targets)
    assert (report.iterations > 1) == (name != "one-sweep")
    assert_same_apply((report.trajectory, report.control),
                      (ref.trajectory, ref.control))
    assert (report.updates, report.final_update, report.measured_ratio,
            report.per_window_defect) == (ref.updates, ref.final_update,
                                          ref.measured_ratio, ref.per_window_defect)


def test_chord_step_leaves_a_series_that_does_not_shrink():
    # a Jacobian of inf-norm 2 (J v = 2 v in place of the steered path's)
    # makes the Neumann series' second term larger than its first, so the
    # sweep starts window 0 at phi(0) + nu(x), bit for bit
    prob, num, targets = _start_case("case1-beta0.25")
    sweep = Sweep(prob, num)
    traj = sweep.initial_iterate(targets)
    N, none = prob.dim, (np.array([], dtype=int), np.zeros((0, prob.dim)))
    sweep._jacobian = ((np.array([0]), np.full((1, N), 2.0)), none, lambda v: v)
    start = window_start(prob, traj)
    assert np.abs(start - traj.seg_values[0][0]).max() > 0.0
    forcing = sweep._forcings(traj)[0]
    assert sweep._first_start(traj, targets, forcing,
                              sweep._integral(0, forcing)).tobytes() == start.tobytes()


@pytest.mark.parametrize("alphas, instants, iterations", [
    ((0.1, 0.1), (0.0, 0.2), (2, 8)), ((0.1, 0.1), (0.2, 0.3), (2, 8)),
    ((0.1, 0.2), (0.2, 0.7), (3, 9)), ((0.1, 0.1, 0.2), (0.5, 0.2, 0.9), (3, 8))],
    ids=["instant-at-0", "instant-at-theta-1", "instant-in-window-1",
         "instants-at-lambda-1-and-in-window-1"])
def test_chord_step_leaves_out_instants_the_start_does_not_move(monkeypatch, alphas,
                                                                instants, iterations):
    # with every forcing row frozen (beta = b) an instant at 0, at theta_1
    # or past it reads the history, the target or a window the target
    # fixes, so J sums over the instants inside window 0 only, and the
    # step is taken: the solve lies within 2 tol max(1, norm) of the plain
    # start's (each within tol max(1, norm) of the fixed point, every ratio
    # being below 1/2) and takes fewer sweeps.  An instant in window 1 reads
    # the first iterate's straight line there in the first sweep, not the
    # steered path the sweep writes, so those runs take a sweep more than
    # the others
    cfg = TransportConfig(N=16, alphas=alphas, instants=instants)
    prob, num, targets = build_case1(cfg), Numerics(time_step=4e-3, history_samples=48), \
        cfg.resolved_targets()
    sweep = Sweep(prob, num)
    assert [t.tolist() for t in sweep._chord] == [[0.1], [0.2]]
    report = picard_solve(sweep, targets)
    with monkeypatch.context() as m:
        m.setattr(Sweep, "_first_start", plain_first_start)
        ref = picard_solve(Sweep(prob, num), targets)
    assert (report.iterations, ref.iterations) == iterations
    assert max(report.measured_ratio, ref.measured_ratio) < 0.5
    assert sup_distance(report.trajectory, ref.trajectory) <= \
        2.0 * num.tol * max(1.0, path_sup_norm(ref.trajectory))


@pytest.mark.parametrize("name, iterations", [
    ("linear-2d.ini", (1, 2)), ("transport-case1.ini", (2, 2)),
    ("transport-case2.ini", (1, 2)), ("case1-beta0.25", (5, 5)),
    ("case2-beta0.25", (4, 4))])
def test_forward_sweep_moves_the_backward_solve_by_round_off(name, iterations):
    # reading each x(theta_j-) from the path the sweep advances, instead of
    # from the old iterate, moves every path, control and preimage value by
    # at most eps (the largest table.fft_error: 4.8e-14 on linear-2d, 7.3e-14
    # on the transport presets, 5.6e-14 at N = 16) of its array's largest
    # |value|, and each window defect by at most eps times the largest
    # |state| (measured: at most 1.4e-16, on Case 2 at beta = 0.25).  Linear-2d and Case 2
    # stop one sweep earlier, on the bits of the backward solve's second
    # sweep, which reads the left values the forward one reads; the runs
    # whose forcing reads the live path keep their sweep counts
    from evosteer.solver import _window_defects
    prob, num, targets = _start_case(name)
    sweep = Sweep(prob, num)
    report = picard_solve(sweep, targets)
    path, control, sweeps = reference_solve(Sweep(prob, num), targets)
    assert (report.iterations, sweeps) == iterations
    eps = max(g.table.fft_error for g in sweep.grids)
    assert_close_apply((report.trajectory, report.control), (path, control), eps)
    scale = np.abs(path.sample_stack()).max()
    assert np.allclose(report.per_window_defect, _window_defects(prob, path, targets),
                       rtol=0.0, atol=eps * scale)
    assert report.trajectory.history.tobytes() == path.history.tobytes()


@pytest.mark.parametrize("name", ["transport-case1.ini", "case1-beta0.25"])
def test_nonlocal_term_is_read_once_per_sweep(monkeypatch, name):
    # nu reads each iterate once, in its sweep, the chord step included,
    # and for the first iterate the flat extension of phi(0) once
    prob, num, targets = _start_case(name)
    call, reads = WeightedSampleNonlocal.__call__, []
    monkeypatch.setattr(WeightedSampleNonlocal, "__call__",
                        lambda self, traj: reads.append(1) or call(self, traj))
    sweep = Sweep(prob, num)
    assert sweep._chord
    report = picard_solve(sweep, targets)
    assert len(reads) == report.iterations + 1


@pytest.mark.parametrize("name", ["linear-2d.ini", "transport-case2.ini"])
def test_window_after_an_impulse_starts_on_its_last_sample(name):
    # each impulse window is its impulse map of the left value the path
    # holds, and the control window after it starts bit for bit at its last
    # sample
    prob, num, targets = _start_case(name)
    traj = picard_solve(Sweep(prob, num), targets).trajectory
    for j in range(1, prob.mesh.n_impulses + 1):
        impulse = traj.seg_values[2 * j - 1]
        assert impulse.tobytes() == prob.impulse_path(
            j, traj.seg_times[2 * j - 1], traj.left_value_at_theta(j)).tobytes()
        assert traj.seg_values[2 * j][0].tobytes() == impulse[-1].tobytes()


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_frozen_window_forcing_integral_is_computed_once(monkeypatch, name):
    # a window whose forcing rows are all frozen takes its forcing integral
    # once per run, however often it is solved; a live window, every sweep
    from collections import Counter
    from evosteer.semigroups import MatrixLagTable, ShiftLagTable
    calls = Counter()
    for cls in (MatrixLagTable, ShiftLagTable):
        def counted(self, *args, original=cls.end_integral):
            calls[id(self)] += 1
            return original(self, *args)
        monkeypatch.setattr(cls, "end_integral", counted)
    prob, num, targets, _ = _equivalence_case(name)
    sweep = Sweep(prob, num)
    report = _solve(sweep, targets)
    frozen = [g.times[-1] <= prob.beta for g in sweep.grids]
    assert any(frozen)
    assert [calls[id(g.table)] for g in sweep.grids] == \
        [1 if f else report.iterations for f in frozen]


def test_all_frozen_volterra_product_runs_once(monkeypatch):
    # with every q row frozen (beta = b) the Volterra product is formed on
    # the first sweep only, and the q rows are not kept after it; the
    # solve stops after that sweep, so three sweeps are run directly
    from evosteer.discretize import KernelDiscretization
    calls = []
    original = KernelDiscretization.inner_convolution

    def counted(self, q):
        calls.append(len(q))
        return original(self, q)

    monkeypatch.setattr(KernelDiscretization, "inner_convolution", counted)
    prob, num, targets, _ = _equivalence_case("transport-case2")
    sweep = Sweep(prob, num)
    assert sweep.frozen_forcing_rows == len(sweep.kern.times)
    traj = sweep.initial_iterate(targets)
    for _ in range(3):
        sweep.apply(traj, targets)
    assert calls == [len(sweep.kern.times)]
    assert sweep._rows is None


def with_left_value(path, value):
    """``path`` with x(theta_1-), the last sample of window 0, set to
    ``value``."""
    values = [v.copy() for v in path.seg_values]
    values[0][-1] = value
    return rebuilt(path, values)


def test_changed_inputs_are_solved_again():
    from evosteer.transport import build_case2
    cfg = TransportConfig(N=16)
    prob = build_case2(cfg)
    num = Numerics(time_step=4e-3, history_samples=48)
    targets = cfg.resolved_targets()
    sweep, ref = Sweep(prob, num), Sweep(prob, num)
    traj = sweep.initial_iterate(targets)
    for _ in range(3):
        sweep.apply(traj, targets)
    solves = sweep.window_solves
    # the first sweep solves both windows, and every later one starts each
    # where the first started it
    assert solves == 2
    # unchanged start and target: both windows kept
    assert_same_apply(swept(sweep, traj, targets),
                      reference_sweep(ref, traj, targets, forward=True))
    assert sweep.window_solves == solves

    end = traj.left_value_at_theta(1)
    eps = sweep.grids[1].table.fft_error
    # the sine targets vanish at node 0, where the end value is round-off
    assert 0.0 < abs(end[0]) <= eps * np.abs(end).max()
    zero = end.copy()
    zero[0] = 0.0
    negative_zero = zero.copy()
    negative_zero[0] = -0.0
    nudged = end.copy()
    nudged[1] += 1e3 * eps * np.abs(end).max()
    moved = [targets[0] + 0.25, targets[1]]
    # (the value the impulse map reads in place of x(theta_1-), which moves
    # window 1's start, targets, windows solved again, whether a kept
    # window's start moved, so that the outputs match the reference within
    # eps only).  Window 0's target moves its end, and so window 1's start
    impulse = prob.impulses[0]
    cases = [(None, moved, 2, False),                  # window 0's target
             (None, targets, 2, False),                # and back
             (zero, targets, 0, True),                 # round-off
             (negative_zero, targets, 0, True),        # -0.0
             (nudged, targets, 1, False),              # by 1e3 eps
             (1.5 * zero, targets, 1, False)]          # moved
    for value, tg, count, moved_start in cases:
        prob.impulses = ((impulse,) if value is None
                         else (lambda th, x, value=value: impulse(th, value),))
        solves = sweep.window_solves
        got, want = swept(sweep, traj, tg), reference_sweep(ref, traj, tg, forward=True)
        if moved_start:
            assert_close_apply(got, want, eps)
        else:
            assert_same_apply(got, want)
        assert sweep.window_solves == solves + count


@pytest.mark.parametrize("factor, count", [(0.99, 0), (1.01, 1)])
def test_start_kept_up_to_the_rounding_bound(factor, count):
    # window 1 is kept while its start lies within eps |s|_inf of the kept
    # start s, eps = table.fft_error, and solved again past that; the start
    # lam_1 x(theta_1-) is moved through the left value x(theta_1-)
    from evosteer.transport import build_case2
    cfg = TransportConfig(N=16)
    prob, targets = build_case2(cfg), cfg.resolved_targets()
    sweep = Sweep(prob, Numerics(time_step=4e-3, history_samples=48))
    traj = sweep.initial_iterate(targets)
    for _ in range(3):
        sweep.apply(traj, targets)
    kept = window_start_reference(prob, traj, 1)
    eps = sweep.grids[1].table.fft_error
    k = int(np.argmax(np.abs(kept)))
    x = traj.left_value_at_theta(1).copy()
    x[k] += factor * eps * abs(kept[k]) / prob.mesh.lam[1]
    path = with_left_value(traj, x)
    moved = window_start_reference(prob, path, 1)
    assert moved[k] != kept[k] and np.array_equal(np.delete(moved, k), np.delete(kept, k))
    assert (abs(moved[k] - kept[k]) <= eps * abs(kept[k])) == (count == 0)
    solves = sweep.window_solves
    sweep.apply(path, targets)
    assert sweep.window_solves == solves + count


def test_kept_state_grows_linearly_with_the_grid():
    # the frozen forcing, each window's kept control and the kernel and
    # shift spectra a Sweep keeps after a solve grow with G, not G^2: halving
    # the step about doubles them
    import gc
    import tracemalloc
    from evosteer.transport import build_case2
    cfg = TransportConfig(N=8)
    kept = []
    for time_step in (1e-3, 5e-4):
        num = Numerics(time_step=time_step, history_samples=16)
        gc.collect()
        tracemalloc.start()
        try:
            sweep = Sweep(build_case2(cfg), num)
            report = picard_solve(sweep, cfg.resolved_targets())
            assert sweep.kern.dense_blocks == {}
            del report
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del sweep
    assert 1.5 * kept[0] < kept[1] < 2.5 * kept[0]


def test_identity_control_skips_its_products(monkeypatch):
    # The transport presets steer through B = I, so B and B* are the
    # identity and the solve skips both products.  A product by I
    # adds exact zeros to x * 1: it keeps every nonzero value, and could only
    # turn a -0.0 into +0.0.  The shift adjoint's zeros come from its +0.0
    # padding, so the samples hold no -0.0 (checked below), and skipping the
    # products gives the matmul path's samples and paths byte for byte.
    from evosteer.config import load_config
    cfg = load_config(str(CONFIGS / "transport-case1.ini"))
    assert cfg.problem.identity_control
    skipped = picard_solve(Sweep(cfg.problem, cfg.numerics), cfg.targets)
    monkeypatch.setattr(Problem, "identity_control", False)
    taken = picard_solve(Sweep(cfg.problem, cfg.numerics), cfg.targets)
    assert_same_apply((skipped.trajectory, skipped.control),
                      (taken.trajectory, taken.control))
    samples = np.concatenate(skipped.control.samples)
    zeros = samples == 0.0
    assert zeros.any() and not np.signbit(samples[zeros]).any()


def test_other_control_operators_take_the_products(tmp_path):
    # a bench-style random B on linear-2d is not the identity: the control
    # steers only through the products
    from evosteer.config import load_config
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    B = Q @ np.diag(rng.uniform(0.8, 1.25, size=2))
    text = (CONFIGS / "linear-2d.ini").read_text()
    assert "control = 1 0; 0 1" in text
    ini = tmp_path / "random-b.ini"
    ini.write_text(text.replace("control = 1 0; 0 1", "control = "
                                + "; ".join(" ".join(map(repr, row)) for row in B.tolist())))
    cfg = load_config(str(ini))
    assert not cfg.problem.identity_control
    report = picard_solve(Sweep(cfg.problem, cfg.numerics), cfg.targets)
    assert max(report.per_window_defect) <= 1e-9
    assert make_problem(dim=2).identity_control


def test_reassigned_control_matrix_takes_the_products():
    # the identity flag is read from the current B: a B reassigned after
    # construction steers through its products and hits the targets, where
    # a flag kept from B = I would skip them and miss
    rng = np.random.default_rng(43)
    prob = make_problem(rng.normal(size=(2, 2)) / 2.0, phi0=[0.3, 0.1])
    assert prob.identity_control
    prob.control_matrix = np.array([[1.0, 0.3], [0.0, 0.8]])
    assert not prob.identity_control
    targets = [rng.normal(size=2), rng.normal(size=2)]
    report = picard_solve(Sweep(prob, Numerics(time_step=2e-3)), targets)
    assert max(report.per_window_defect) <= 1e-9


def test_identity_control_forms_no_identity():
    # the flag is read twice per window solve; testing it allocates no
    # N x N array (8 MiB at N = 1024)
    prob = build_case1(TransportConfig(N=1024))
    tracemalloc.start()
    try:
        assert prob.identity_control
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("preset, reads", [
    ("transport-case1", [[0, 1, 2], [1]]),
    ("transport-case2", [[0, 1, 2]]),
    ("linear-2d", [[0, 1, 2]]),
    ("case1-beta0.25", [[0, 1, 2]] * 5),
    ("case2-beta0.25", [[0, 1, 2]] * 4),
])
def test_sweep_norms_read_only_recomputed_pieces(preset, reads):
    # at every sweep the solve runs, apply's update and norm are
    # sup_distance and path_sup_norm of the advanced iterate against a copy
    # taken before the sweep, bit for bit; the sweep writes the intervals of
    # ``reads`` (its solved control windows and every impulse window), and
    # every other interval keeps its bytes.  Case 1's first sweep lands
    # window 0's start by the chord step, and its second keeps window 0 and
    # window 1, whose start moves by round-off only: that sweep's update is
    # exactly 0.  At beta = 0.25 both windows read the live path, so every
    # sweep writes every interval; the last update is above eps norm on
    # Case 1 and, on Case 2, whose third update (2.5e-9) lay just above the
    # tolerance, nonzero at round-off (measured: 2.5e-14 against eps norm =
    # 7.0e-14).  At beta = b on Case 2 and linear-2d the solve stops after
    # one sweep: the next keeps both control windows, rewrites the impulse
    # window with its bits, and its update is exactly 0
    prob, num, targets = _start_case(preset if "beta" in preset else f"{preset}.ini")
    solve = picard_solve(Sweep(prob, num), targets)
    assert solve.iterations == len(reads)
    sweep = Sweep(prob, num)
    traj = sweep.initial_iterate(targets)
    got = []
    for _ in range(solve.iterations):
        before, solved = rebuilt(traj), list(sweep._solved)
        update, norm, _ = sweep.apply(traj, targets)
        assert np.float64([update, norm]).tobytes() == \
            np.float64([sup_distance(traj, before), path_sup_norm(traj)]).tobytes()
        written = [k for k, (a, end, kind, j) in enumerate(sweep.intervals)
                   if kind == "impulse" or sweep._solved[j] is not solved[j]]
        got.append(written)
        for k in set(range(len(sweep.intervals))) - set(written):
            assert traj.seg_values[k].tobytes() == before.seg_values[k].tobytes()
    assert got == reads
    assert traj.sample_stack().tobytes() == solve.trajectory.sample_stack().tobytes()
    eps = max(g.table.fft_error for g in sweep.grids)
    assert (solve.final_update == 0.0) == (preset in ("transport-case1", "transport-case2",
                                                      "linear-2d"))
    if preset == "transport-case1":
        assert update == solve.final_update == 0.0 < eps * norm < solve.updates[-2]
    elif solve.final_update == 0.0:
        assert update > eps * norm
        assert sweep.apply(traj, targets)[0] == 0.0
        assert traj.sample_stack().tobytes() == solve.trajectory.sample_stack().tobytes()
    else:
        assert 0.0 < update == solve.final_update
        assert (eps * norm < update) == (preset == "case1-beta0.25")


def test_apply_advances_the_iterate_in_place():
    # the sweep writes the new iterate into the buffer it is given and
    # returns the step to it, its norm and the control
    from evosteer.config import load_config
    cfg = load_config(str(CONFIGS / "linear-2d.ini"))
    sweep = Sweep(cfg.problem, cfg.numerics)
    traj = sweep.initial_iterate(cfg.targets)
    stack, before = traj.sample_stack(), rebuilt(traj)
    update, norm, control = sweep.apply(traj, cfg.targets)
    assert np.shares_memory(traj.sample_stack(), stack)
    assert update > 0.0 and stack.tobytes() != before.sample_stack().tobytes()
    assert (update, norm) == (sup_distance(traj, before), path_sup_norm(traj))
    assert isinstance(control, ControlSignal)


def test_apply_refuses_a_non_finite_interval():
    prob = make_problem(impulses=((lambda th, x: np.full((len(th), len(x)), np.inf)),))
    sweep = Sweep(prob, Numerics(time_step=1e-2))
    with pytest.raises(ValueError, match="non-finite"):
        sweep.apply(flat_extension(sweep), [np.ones(2)] * 2)


def test_non_finite_impulse_map_is_refused_before_any_arithmetic():
    # the first iterate's straight line from an inf start used to raise
    # numpy's "invalid value encountered in multiply" before the refusal
    prob = make_problem(impulses=((lambda th, x: np.full((len(th), len(x)), np.inf)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^impulse map 1 returned non-finite"):
            picard_solve(Sweep(prob, Numerics(time_step=1e-2)), [np.ones(2)] * 2)
