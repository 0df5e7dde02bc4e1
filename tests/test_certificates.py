import numpy as np
import pytest

from evosteer.certificates import (ball_radius, certificate_for,
                                   contraction_constant, delay_ratio,
                                   operator_bounds, solution_bound)
from evosteer.core import TimeMesh
from evosteer.discretize import KernelDiscretization, interval_times
from evosteer.problems import AssumptionConstants, Numerics, Problem
from evosteer.semigroups import MatrixSemigroup
from evosteer.solver import Sweep
from evosteer.transport import build_case1, smooth_targets
from test_discretize import MIXED, UNEQUAL, kappa


class TestDelayRatio:
    @pytest.mark.parametrize("b,beta,expected", [(1.0, 1.0, 1.0),
                                                 (1.0, 2.0, 0.5),
                                                 (2.0, 0.5, 4.0)])
    def test_quotients(self, b, beta, expected):
        assert delay_ratio(b, beta) == expected

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError):
            delay_ratio(1.0, 0.0)


class TestContractionConstant:
    def test_linear_impulse_free_is_zero(self):
        lf, branch = contraction_constant(K=1.0, M=1.0, b=1.0, gamma=1.0,
                                          nonlin_lipschitz=0.0,
                                          impulse_lips=(),
                                          nonlocal_lip=0.0,
                                          floors=[1.0])
        assert lf == 0.0

    def test_worked_substitution(self):
        # M = K = b = gamma = 1, floors 1, L_eta = 0.05, L_imp = 0.1,
        # C_nonlocal = 0.1: every amplified branch gives 2 * 0.15 = 0.3
        lf, branch = contraction_constant(1.0, 1.0, 1.0, 1.0, 0.05, (0.1,),
                                          0.1, [1.0, 1.0])
        assert lf == pytest.approx(0.3, abs=1e-15)

    def test_supercritical_substitution(self):
        lf, _ = contraction_constant(1.0, 1.0, 1.0, 1.0, 0.5, (0.1,), 0.1,
                                     [1.0, 1.0])
        assert lf == pytest.approx(1.2, abs=1e-14)
        assert lf >= 1.0

    def test_monotonicity(self):
        base = dict(K=1.0, M=1.0, b=1.0, gamma=1.0, nonlin_lipschitz=0.1,
                    impulse_lips=(0.2,), nonlocal_lip=0.1,
                    floors=[0.5, 0.5])
        lf0, _ = contraction_constant(**base)
        for key, bump in (("nonlin_lipschitz", 0.05), ("nonlocal_lip", 0.05),
                          ("gamma", 0.5), ("b", 0.5)):
            kw = dict(base)
            kw[key] = kw[key] + bump
            assert contraction_constant(**kw)[0] >= lf0
        kw = dict(base)
        kw["impulse_lips"] = (0.3,)
        assert contraction_constant(**kw)[0] >= lf0
        kw = dict(base)
        kw["floors"] = [1.0, 1.0]
        assert contraction_constant(**kw)[0] <= lf0

    def test_bit_identical_recomputation(self):
        args = (1.0, 2.0, 1.5, 0.75, 0.03, (0.17, 0.21), 0.05,
                [0.4, 0.3, 0.6])
        a, _ = contraction_constant(*args)
        b, _ = contraction_constant(*args)
        assert a == b

    def test_floor_count_validated(self):
        with pytest.raises(ValueError):
            contraction_constant(1.0, 1.0, 1.0, 1.0, 0.0, (0.1,), 0.0, [1.0])


class TestIntegroConstant:
    # The integro variant is the semilinear one whose forcing Lipschitz
    # constant is L_q times the kernel mass.
    def test_zero(self):
        lf, _ = contraction_constant(1.0, 1.0, 1.0, 1.0, 0.0 * 0.5, (0.0,),
                                     0.0, [1.0, 1.0])
        assert lf == 0.0

    def test_worked_substitution(self):
        # L_q = 1/(a+2) at a = 0, kernel mass 1/2, L_imp = 0.1, floors 1:
        # max{(0.1 + 0.25) * 2, 2 * 0.25, 0.1} = 0.7
        lf, branch = contraction_constant(1.0, 1.0, 1.0, 1.0, 0.5 * 0.5, (0.1,),
                                          0.0, [1.0, 1.0])
        assert lf == pytest.approx(0.7, abs=1e-12)
        assert branch == "window_1"

    @staticmethod
    def _integro_problem(coeffs, breakpoints):
        return Problem(semigroup=MatrixSemigroup(np.zeros((1, 1))),
                       control_matrix=np.eye(1), mesh=TimeMesh(breakpoints),
                       beta=1.0, history=lambda s: np.zeros(1),
                       nonlinearity=lambda t, v: np.zeros_like(v), kernel=coeffs,
                       constants=AssumptionConstants(nonlin_lipschitz=0.5,
                                                     nonlin_sup=1.0))

    def test_constant_kernel_mass_is_horizon(self):
        prob = self._integro_problem((1.0,), [0.0, 0.3, 0.5, 0.8])
        kern = KernelDiscretization(prob, interval_times(prob.mesh,
                                                         Numerics(time_step=1e-2)))
        assert kern.kernel_mass == pytest.approx(0.8, abs=1e-12)

    def test_kernel_mass_bounds_the_solved_sum(self):
        # MIXED's sum_r |c_r| s^r is convex, so the solver's trapezoid sums
        # of it exceed its integral over [0, 1], 17/6; the certificate's mass
        # must be the largest sum actually formed, not the integral, and it
        # exceeds every sum of |kappa|, which changes sign
        prob = self._integro_problem(MIXED, UNEQUAL)
        num = Numerics(time_step=0.03)
        blocks = interval_times(prob.mesh, num)

        def largest_sum(k):
            return max(sum(np.trapezoid(k(t - s), s) for s in blocks[:bi])
                       + np.trapezoid(k(t - own[:i + 1]), own[:i + 1])
                       for bi, own in enumerate(blocks) for i, t in enumerate(own))

        bar = largest_sum(lambda s: kappa(np.abs(MIXED), s))
        assert bar > 17 / 6 + 1e-4
        cert = certificate_for(Sweep(prob, num), [np.zeros(1)] * 3)
        assert cert.kernel_mass == pytest.approx(bar, rel=1e-12)
        assert cert.kernel_mass > largest_sum(lambda s: np.abs(kappa(MIXED, s)))


class TestSolutionBound:
    def test_zero(self):
        assert solution_bound(K=1.0, M=0.0, b=1.0, control_sup=0.0,
                              phi0_norm=0.0) == 0.0

    def test_worked_substitution(self):
        # M = K = 1, Q = 3, b = 1, N = 1, |phi0| = 1, impulse sup 0.2:
        # max{3 + 1 + 1, 3 + 1 + 0.2, 0.2} = 5
        alpha = solution_bound(K=1.0, M=1.0, b=1.0, control_sup=3.0,
                               phi0_norm=1.0, forcing_sup=1.0,
                               impulse_sup=(0.2,))
        assert alpha == pytest.approx(5.0, abs=1e-14)


class TestOperatorBounds:
    def test_identity_control_is_one_without_an_svd(self, monkeypatch):
        norms = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, *a, **k: norms.append(a) or norm(x, *a, **k))
        mesh = TimeMesh([0.0, 1.0])
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = rng.normal(size=(4, 4))
        for B, M in ((np.eye(4), 1.0), (Q @ np.diag([0.8, 1.0, 1.1, 1.25]), None)):
            prob = Problem(semigroup=MatrixSemigroup(A), control_matrix=B,
                           mesh=mesh, beta=1.0, history=lambda s: np.zeros(4))
            K = prob.semigroup.bound(1.0)    # kept, so not taken again
            norms.clear()
            if M is None:
                assert operator_bounds(prob) == (K, norm(B, 2))
                assert norms == [(2,)]
            else:
                assert operator_bounds(prob) == (K, M) and norms == []


class TestCertificatePipeline:
    def test_uses_realized_floors(self):
        rng = np.random.default_rng(40)
        A = rng.normal(size=(3, 3)) / 2.0
        mesh = TimeMesh([0.0, 0.4, 0.6, 1.0])
        prob = Problem(semigroup=MatrixSemigroup(A), control_matrix=np.eye(3),
                       mesh=mesh, beta=1.0, history=lambda s: np.zeros(3))
        num = Numerics(time_step=2e-3)
        sweep = Sweep(prob, num)
        targets = [rng.normal(size=3), rng.normal(size=3)]
        cert = certificate_for(sweep, targets)
        # K is the generator's own bound, M = |I|_2 exactly
        assert cert.semigroup_bound == prob.semigroup.bound(1.0)
        assert cert.control_op_norm == 1.0
        assert cert.gramian_floors == tuple(b.min_eig for b in sweep.blocks)
        assert cert.variant == "semilinear"
        assert cert.contracts == (cert.contraction_constant < 1.0)
        assert len(cert.control_bounds) == 2
        again = certificate_for(sweep, targets)
        assert again.contraction_constant == cert.contraction_constant

    def test_default_constants_certify_every_impulse_window(self):
        # a problem built with the default constants declares no sup
        # constant: window 1's control bound takes the impulse's lam_1 R,
        # lam_1 = 0.6, R = 2 K max(1, |phi(0)|, |z_j|)
        rng = np.random.default_rng(43)
        phi0 = np.array([0.3, -1.5])
        prob = Problem(semigroup=MatrixSemigroup(rng.normal(size=(2, 2)) / 2.0),
                       control_matrix=np.eye(2),
                       mesh=TimeMesh([0.0, 0.4, 0.6, 1.0]), beta=1.0,
                       history=lambda s: phi0)
        targets = [np.array([0.6, 0.8]), np.array([-1.0, 1.0])]
        cert = certificate_for(Sweep(prob, Numerics(time_step=2e-3)), targets)
        K = prob.semigroup.bound(1.0)
        R = 2.0 * K * max(1.0, np.linalg.norm(phi0), np.sqrt(2.0))
        assert cert.ball_radius == pytest.approx(R, rel=1e-15)
        assert cert.ball_radius == ball_radius(prob, targets)
        floor = cert.gramian_floors[1]
        want = (K / floor) * (np.sqrt(2.0) + K * 0.6 * R)
        assert cert.control_bounds[1] == pytest.approx(want, rel=1e-14)

    def test_case1_certificate_structure(self):
        prob = build_case1(N=16)
        num = Numerics(time_step=4e-3, history_samples=32)
        cert = certificate_for(Sweep(prob, num), smooth_targets(prob, 7))
        assert cert.delay_ratio == 1.0
        assert cert.semigroup_bound == 1.0
        # the outflow-boundary node caps the floor at bound^2 * pi/N
        assert max(cert.gramian_floors) <= np.pi / 16 + 1e-12
        assert cert.binding_branch in ("window_0", "window_1", "impulse")


# The integro formulas as they stood before the variants shared one
# certificate path, kept as the reference the merged formulas must match.
def _reference_integro_constant(K, M, b, gamma, kernel_lipschitz, kernel_mass,
                                impulse_lipschitz, floors):
    conv_gain = K * kernel_lipschitz * kernel_mass * gamma * b
    branches = {}
    for j, (lnu, floor) in enumerate(zip(impulse_lipschitz, floors[1:]), start=1):
        amp = 1.0 + (M * M * K * K * b) / floor
        branches[f"window_{j}"] = (K * lnu + conv_gain) * amp
    amp0 = 1.0 + (M * M * K * K * b) / floors[0]
    branches["window_0"] = amp0 * conv_gain
    if impulse_lipschitz:
        branches["impulse"] = max(impulse_lipschitz)
    binding = max(branches, key=branches.get)
    return branches[binding], binding


def _reference_integro_control_bound(problem, K, M, j, target, floor, kernel_mass,
                                     impulse_sup):
    c = problem.constants
    b = problem.mesh.b
    zn = problem.norm(np.asarray(target, dtype=float))
    tail = K * c.nonlin_sup * b * kernel_mass
    head = (K * problem.norm(problem.phi0()) if j == 0
            else K * impulse_sup[j - 1])
    return (M * K / floor) * (zn + head + tail)


def _reference_integro_solution_bound(K, M, b, control_sup, phi0_norm,
                                      impulse_sup, kernel_sup, kernel_mass):
    tail = K * kernel_sup * b * kernel_mass
    candidates = [K * phi0_norm + M * K * control_sup * b + tail]
    for c in impulse_sup:
        candidates.append(M * K * control_sup * b + tail + K * c)
        candidates.append(c)
    return max(candidates)


class TestMergedIntegroCertificate:
    def test_matches_reference_formulas(self):
        mesh = TimeMesh([0.0, 0.25, 0.4, 0.6, 0.7, 0.9])
        rng = np.random.default_rng(41)
        A = rng.normal(size=(2, 2)) / 2.0
        M = 1.3
        prob = Problem(semigroup=MatrixSemigroup(A), control_matrix=M * np.eye(2),
                       mesh=mesh, beta=0.6,
                       history=lambda s: np.array([0.4, -0.3]),
                       nonlinearity=lambda t, v: 0.3 * v, kernel=MIXED,
                       constants=AssumptionConstants(
                           nonlin_lipschitz=0.3, nonlin_sup=0.8))
        num = Numerics(time_step=0.01)
        targets = [rng.normal(size=2) for _ in range(3)]
        cert = certificate_for(Sweep(prob, num), targets)
        K = prob.semigroup.bound(0.9)
        assert (cert.semigroup_bound, cert.control_op_norm) == (K, M)
        km = cert.kernel_mass
        assert km == KernelDiscretization(
            prob, interval_times(prob.mesh, num)).kernel_mass > 0.0
        c = prob.constants
        lf, branch = _reference_integro_constant(
            K, M, 0.9, 1.5, c.nonlin_lipschitz, km, prob.impulse_lipschitz,
            cert.gramian_floors)
        assert cert.delay_ratio == 1.5
        assert cert.binding_branch == branch
        assert cert.contraction_constant == pytest.approx(lf, rel=1e-15)
        # the impulse sup constants on the ball of radius
        # R = 2 K max(1, |phi(0)|, max_j |z_j|): lam_j R
        R = 2.0 * K * max([1.0, 0.5] + [np.linalg.norm(z) for z in targets])
        assert cert.ball_radius == pytest.approx(R, rel=1e-15)
        impulse_sup = [lam * R for lam in (0.4, 0.7)]
        qs = [_reference_integro_control_bound(prob, K, M, j, targets[j], floor, km,
                                               impulse_sup)
              for j, floor in enumerate(cert.gramian_floors)]
        assert cert.control_bounds == pytest.approx(qs, rel=1e-15)
        alpha = _reference_integro_solution_bound(
            K, M, 0.9, max(qs), prob.norm(prob.phi0()), impulse_sup,
            c.nonlin_sup, km)
        assert cert.solution_bound == pytest.approx(alpha, rel=1e-15)
