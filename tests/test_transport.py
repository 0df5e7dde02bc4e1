import numpy as np
import pytest

from evosteer.core import FieldError, TimeMesh, sup_distance
from evosteer.discretize import KernelDiscretization, interval_times
from evosteer.problems import Numerics
from evosteer.semigroups import ShiftSemigroup
from evosteer.solver import Sweep, picard_solve
from evosteer.transport import (build_case1, build_case2, smooth_targets,
                                smooth_unit_field)


class TestConfig:
    def test_defaults(self):
        prob = build_case1()
        assert prob.dim == 64 and prob.beta == 1.0
        assert prob.constants.nonlin_lipschitz == 0.05
        assert prob.mesh.control_windows() == [(0.0, 0.3), (0.5, 1.0)]
        assert build_case2().mesh == prob.mesh
        targets = smooth_targets(prob, 7)
        assert len(targets) == 2
        h = np.pi / prob.dim
        for z in targets:
            assert np.sqrt(h) * np.linalg.norm(z) == pytest.approx(1.0, rel=1e-12)
        # deterministic given the seed
        np.testing.assert_array_equal(targets[0],
                                      smooth_targets(build_case1(), 7)[0])

    def test_validation(self):
        # each input is refused by the code that owns it, which names it
        for build, kwargs, field in ((build_case1, {"N": 2}, "N"),
                                     (build_case2, {"a": -1.0}, "a"),
                                     (build_case1, {"beta": 0.0}, "beta"),
                                     (build_case1, {"instants": (1.4,)}, "instants"),
                                     (build_case1, {"instants": (np.nan,)}, "instants"),
                                     (build_case1, {"alphas": ()}, "alphas")):
            with pytest.raises(FieldError) as err:
                build(**kwargs)
            assert err.value.field == field


class TestShiftSemigroupBuilder:
    def test_contraction_and_bound(self):
        T = ShiftSemigroup(64)
        rng = np.random.default_rng(50)
        for _ in range(20):
            v = rng.normal(size=64)
            t = float(rng.uniform(0.0, 1.0))
            assert np.linalg.norm(T.apply(t, v)) <= np.linalg.norm(v) + 1e-12

    def test_horizon_annihilates(self):
        T = ShiftSemigroup(32)
        v = np.random.default_rng(51).normal(size=32)
        np.testing.assert_array_equal(T.apply(np.pi, v), np.zeros(32))


class TestCase1:
    def test_history_matches_pointwise_formula(self):
        prob = build_case1(N=16)
        nodes = np.arange(16) * np.pi / 16
        for theta in (-1.0, -0.25, 0.0):
            np.testing.assert_allclose(prob.history(theta),
                                       np.sin(nodes) * (1.0 + theta), atol=1e-14)

    def test_declared_constants(self):
        prob = build_case1(N=16, k0=0.07, alphas=(0.1, -0.05), instants=(0.2, 0.8))
        c = prob.constants
        assert c.nonlin_lipschitz == 0.07 and c.nonlin_sup == 0.07
        assert prob.impulse_lipschitz == (0.5,)       # lam_1 of theta * x
        assert prob.nonlocal_lipschitz == pytest.approx(0.15)

    def test_forcing_reads_one_delay_back(self):
        prob = build_case1(N=8, k0=0.5)
        t = np.linspace(0.3, 0.7, 5)
        v = np.linspace(0.0, 1.0, 5)[:, None] * np.ones((1, 8))
        np.testing.assert_allclose(prob.nonlinearity(t, v), 0.5 * np.sin(v),
                                   atol=1e-15)

    def test_forcing_lipschitz_at_gain(self):
        # 33 nodes per draw, every pair of delayed states a constant shift
        # apart: each node's forcing gap stays within the gain times the
        # grid-weighted distance of its delayed states
        prob = build_case1(N=12, k0=0.3)
        rng = np.random.default_rng(52)
        t = np.full(33, 0.1)
        for _ in range(25):
            base = np.cumsum(rng.normal(size=(33, 12)), axis=0) / 5.0
            shift = rng.normal(size=12)
            gap = (prob.nonlinearity(t, base)
                   - prob.nonlinearity(t, base + shift[None, :]))
            for row in gap:
                assert prob.norm(row) <= 0.3 * prob.norm(shift) + 1e-12

    def test_zero_gain_is_linear(self):
        prob = build_case1(N=8, k0=0.0)
        np.testing.assert_array_equal(
            prob.nonlinearity(np.full(9, 0.2), np.ones((9, 8))), np.zeros((9, 8)))
        assert prob.constants.nonlin_lipschitz == 0.0

    def test_zero_gain_certificate_is_impulse_driven(self):
        from evosteer.certificates import certificate_for, contraction_constant
        prob = build_case1(N=16, k0=0.0)
        num = Numerics(time_step=5e-3, history_samples=16)
        cert = certificate_for(Sweep(prob, num), smooth_targets(prob, 7))
        # with no forcing gain the constant reduces to the impulse branches
        expected, _ = contraction_constant(
            1.0, 1.0, 1.0, 1.0, 0.0, prob.impulse_lipschitz,
            prob.nonlocal_lipschitz, list(cert.gramian_floors))
        assert cert.contraction_constant == expected

    def test_impulse_lipschitz_constant_is_horizon(self):
        # theta * x on (theta_1, lam_1] = (0.3, 0.5]: the computed constant
        # is lam_1, not the horizon b, and the map attains it at theta = lam_1
        prob = build_case1(N=8)
        lam = prob.mesh.lam[1]
        assert prob.impulse_lipschitz == (lam,) == (0.5,)
        rng = np.random.default_rng(56)
        for theta in list(rng.uniform(0.3, 0.5, size=30)) + [lam]:
            x, y = rng.normal(size=8), rng.normal(size=8)
            gap = np.linalg.norm(prob.impulse_path(1, [theta], x)
                                 - prob.impulse_path(1, [theta], y))
            assert gap <= lam * np.linalg.norm(x - y) * (1 + 1e-15)
        assert gap == pytest.approx(lam * np.linalg.norm(x - y), rel=1e-15)


class TestCase2:
    def test_kernel_and_constants(self):
        prob = build_case2(N=16, a=0.0)
        assert prob.variant == "integro"
        assert prob.constants.nonlin_lipschitz == pytest.approx(0.5)
        assert prob.constants.nonlin_sup == 1.0
        # kappa(s) = s: the trapezoid sums are exact, the largest is b^2/2
        kern = KernelDiscretization(prob, interval_times(prob.mesh,
                                                         Numerics(time_step=1e-2)))
        assert kern.kernel_mass == pytest.approx(0.5, abs=1e-10)
        assert prob.nonlocal_term is None

    def test_kernel_mass_never_below_the_exact_sum(self):
        # kappa(s) = s: the largest trapezoid sum is exactly b^2/2; the
        # running sums alone come out at 0.49999999999989814 on this grid
        prob = build_case2(N=8, a=0.0)
        kern = KernelDiscretization(prob, interval_times(prob.mesh,
                                                         Numerics(time_step=5e-5)))
        assert kern.kernel_mass >= 0.5
        assert kern.kernel_mass == pytest.approx(0.5, abs=1e-10)

    def test_integrand_bounds(self):
        prob = build_case2(N=12, a=0.0)
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(50):
            v = rng.normal(scale=3.0, size=(17, 12))
            theta = float(rng.uniform(0.0, 1.0))
            q = prob.nonlinearity(np.full(17, theta), v)
            # node-wise: e^{-t}/(a+2e^t) * |v|/(1+2|v|) <= 1/2 * 1/2
            assert q.shape == v.shape
            assert np.abs(q).max() <= 0.25 + 1e-12
            worst = max(worst, max(prob.norm(row) for row in q))
        assert worst <= prob.constants.nonlin_sup

    def test_integrand_lipschitz_at_declared_constant(self):
        prob = build_case2(N=12, a=0.0)
        rng = np.random.default_rng(54)
        t = np.zeros(17)
        for _ in range(25):
            base = rng.normal(size=(17, 12))
            shift = rng.normal(size=12)
            gap = (prob.nonlinearity(t, base)
                   - prob.nonlinearity(t, base + shift[None, :]))
            for row in gap:
                assert prob.norm(row) <= 0.5 * prob.norm(shift) + 1e-12

    def test_beta_and_mesh_reach_the_problem(self):
        mesh = TimeMesh([0.0, 0.2, 0.4, 1.0])
        prob = build_case2(N=8, beta=0.5, mesh=mesh)
        assert prob.beta == 0.5 and prob.mesh is mesh
        assert prob.sample_history(4)[0] == pytest.approx(0.5 * prob.phi0())

    def test_rejects_bad_saturation(self):
        with pytest.raises(ValueError):
            build_case2(N=8, a=-1.5)


SLOPE_GRID = np.linspace(-6.0, 6.0, 100_001)


@pytest.mark.parametrize("case, param", [
    ("case1", 0.05), ("case1", -0.05), ("case2", -0.5), ("case2", 0.0),
    ("case2", 1.0)], ids=["k0=0.05", "k0=-0.05", "a=-0.5", "a=0", "a=1"])
def test_forcing_constants_hold_on_a_sampled_grid(case, param):
    """A sampled check, not a bound: on a grid of v in [-6, 6] with spacing
    1.2e-4, every finite-difference slope in v of the shipped forcing is at
    most its declared Lipschitz constant and every value at most its
    declared sup, for Case 2's q at 11 times t in [0, b].  A grid can miss
    a steeper point between its nodes; the constants are true because
    |d/dv k0 sin v| <= |k0| and |dq/dv| <= e^{-t} / (a + 2 e^t) <= 1/(a + 2)."""
    if case == "case1":
        prob = build_case1(N=4, k0=param)
        times, fn = [0.5], prob.nonlinearity
        assert prob.constants.nonlin_lipschitz == abs(param)
    else:
        prob = build_case2(N=4, a=param)
        times, fn = np.linspace(0.0, prob.mesh.b, 11), prob.nonlinearity
        assert prob.constants.nonlin_lipschitz == 1.0 / (param + 2.0)
        assert prob.constants.nonlin_sup == 1.0
    c = prob.constants
    for t in times:
        f = fn(np.full(len(SLOPE_GRID), t), SLOPE_GRID[:, None])[:, 0]
        slopes = np.diff(f) / np.diff(SLOPE_GRID)
        assert np.abs(slopes).max() <= c.nonlin_lipschitz
        assert np.abs(f).max() <= c.nonlin_sup


class TestDelaySensitivity:
    def test_unread_history_is_inert(self):
        # beta = 2 with horizon 1: the forcing reads offsets in (-2, -1],
        # so perturbing phi inside (-1, 0) must not move the solution,
        # while perturbing near -2 must
        mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
        params = dict(N=12, beta=2.0, mesh=mesh, alphas=(), instants=())
        base = build_case1(**params)
        num = Numerics(time_step=5e-3, history_samples=64)
        targets = smooth_targets(base, 7)

        def solve_with(history_fn):
            prob = build_case1(**params)
            prob.history = history_fn
            return picard_solve(Sweep(prob, num), targets).trajectory

        ref = solve_with(base.history)

        def bump(center, width):
            def phi(theta):
                extra = 0.3 * np.exp(-((theta - center) / width) ** 2)
                return base.history(theta) + extra
            return phi

        inert = solve_with(bump(-0.5, 0.05))
        assert sup_distance(inert, ref) <= 1e-9

        read = solve_with(bump(-1.8, 0.05))
        assert sup_distance(read, ref) > 1e-4


class TestSmoothFields:
    def test_unit_norm_and_boundary_decay(self):
        rng = np.random.default_rng(55)
        z = smooth_unit_field(64, rng)
        h = np.pi / 64
        assert np.sqrt(h) * np.linalg.norm(z) == pytest.approx(1.0, rel=1e-12)
        assert abs(z[0]) <= 1e-12  # sine modes vanish at the inflow node
