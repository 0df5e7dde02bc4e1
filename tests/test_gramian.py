import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, eigvalsh_tridiagonal, expm

from evosteer.certificates import ball_radius, control_bound
from evosteer.config import load_config
from evosteer.core import TimeMesh
from evosteer.discretize import KernelDiscretization, eta_values, interval_times
from evosteer.gramian import (ControlSignal, NotInvertibleError, assemble_all,
                              factor_gramian, gramian_solve,
                              smallest_eigenvalue_bracket, steering_residual,
                              sturm_count, synthesize_control, tridiagonal_floor,
                              window_start)
from evosteer.problems import Numerics, Problem, WeightedSampleNonlocal
from evosteer.semigroups import MatrixSemigroup, ShiftSemigroup, trapezoid_weights
from evosteer.solver import Sweep
from evosteer.transport import build_case1, smooth_targets
from test_core import rebuilt
from test_solver import flat_extension, window_start_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def linear_problem(A, B, mesh, phi0, beta=1.0, **kwargs):
    phi0 = np.asarray(phi0, dtype=float)
    return Problem(semigroup=MatrixSemigroup(A), control_matrix=B, mesh=mesh,
                   beta=beta, history=lambda s: phi0, **kwargs)


def dense(tridiagonal):
    """The N x N array of a (diagonal, off-diagonal) Gramian."""
    d, e = tridiagonal
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def window_gramian(semigroup, B, width, steps):
    """The Gramian of the window (0, width] with ``steps`` trapezoid steps,
    as its lag table returns it."""
    return semigroup.lag_table(width / steps, steps).gramian(np.atleast_2d(B))


def eigh_solve(block, v):
    """``gramian_solve`` of a transport Gramian as it was before the
    tridiagonal path: the dense array's eigendecomposition, refined the
    same way."""
    G = dense((block.diag, block.off))
    lam, V = np.linalg.eigh(G)
    w, r = 0.0, v
    for _ in range(4):
        w = w + V @ ((V.T @ r) / lam)
        r = v - G @ w
        if np.linalg.norm(r) <= 1e-12 * max(np.linalg.norm(v), 1e-300):
            break
    return w


def offset_loop_gramian(table, B, w):
    """``ShiftLagTable.gramian`` as the loop over offsets alone."""
    N, P, off, c = table.N, table.pad, table.off, table.frac
    diag = (np.bincount(off, w * (1.0 - c) ** 2, minlength=P)
            + np.bincount(off + 1, w * c ** 2, minlength=P))
    cross = np.bincount(off, w * (1.0 - c) * c, minlength=P)
    Cp = np.pad(B @ B.T, (0, P))
    G = np.zeros((N, N))
    for o in range(P):
        X = Cp[o:o + N, o + 1:o + 1 + N]
        G += diag[o] * Cp[o:o + N, o:o + N] + cross[o] * (X + X.T)
    return G


class TestAssembly:
    @pytest.mark.parametrize("backend, N, m, end", [
        ("matrix", 3, 13, 1.0),
        ("matrix", 6, 1500, 0.45),  # linear-oracle window; bit-exact at d >= 2
        ("shift", 12, 13, 1.0),     # offset passes 2, delta / h not integer
        ("shift", 12, 40, 4.0),     # last offset 15 >= N
        ("shift", 97, 300, 0.9),
        ("shift", 64, 5000, 0.5),
    ], ids=["matrix", "matrix-d6-m1500", "shift", "shift-offset-past-N",
            "shift-N97", "shift-N64-m5000"])
    def test_matches_per_lag_padding(self, backend, N, m, end):
        rng = np.random.default_rng(21)
        if backend == "matrix":
            T, B = MatrixSemigroup(rng.normal(size=(N, N))), rng.normal(size=(N, N - 1))
        else:
            T, B = ShiftSemigroup(N), np.eye(N)
        table = T.lag_table(end / m, m)
        if backend == "shift":
            assert table.frac[5] != 0.0 and table.off[-1] > 2
        w = trapezoid_weights(m, end / m)
        G = np.zeros((B.shape[0], B.shape[0]))
        for g in range(m + 1):
            if backend == "matrix":
                M = table.stack[g] @ B
            else:
                o, c, N = table.off[g], table.frac[g], table.N
                Bp = np.pad(B.T, ((0, 0), (0, o + 2)))
                M = ((1.0 - c) * Bp[:, o:o + N] + c * Bp[:, o + 1:o + 1 + N]).T
            G += w[m - g] * (M @ M.T)
        G = 0.5 * (G + G.T)
        got = table.gramian(B)
        if backend == "matrix":
            assert np.array_equal(0.5 * (got + got.T), G)
        else:
            # summed per offset rather than per lag: round-off differs
            assert np.abs(dense(got) - G).max() <= 1e-13 * np.abs(G).max()

    @pytest.mark.parametrize("B", [
        np.random.default_rng(21).normal(size=(12, 3)),
        np.random.default_rng(21).normal(size=(12, 12)),
        2.0 * np.eye(12), np.eye(12)[::-1], np.eye(12, 13)],
        ids=["random-12x3", "random-12x12", "scaled-identity", "permutation",
             "wide-identity"])
    def test_shift_refuses_other_control_matrices(self, B):
        # only B = I gives a tridiagonal Gramian; any other B is refused at
        # assembly, naming the control matrix
        with pytest.raises(ValueError, match="control matrix"):
            window_gramian(ShiftSemigroup(12), B, 1.0, 13)
        prob = Problem(semigroup=ShiftSemigroup(12), control_matrix=B,
                       mesh=TimeMesh([0.0, 1.0]), beta=1.0,
                       history=lambda s: np.zeros(12))
        with pytest.raises(ValueError, match="control matrix"):
            assemble_all(prob, interval_times(prob.mesh, Numerics(time_step=1e-2))[::2])

    def test_shift_identity_control_is_tridiagonal(self):
        # with B = I the Gramian is the diagonal and the off-diagonal alone,
        # which factor into a block holding them
        d, e = window_gramian(ShiftSemigroup(64), np.eye(64), 0.3, 300)
        assert d.shape == (64,) and e.shape == (63,)
        assert e[0] != 0.0
        blk = factor_gramian(0, (d, e))
        assert blk.diag is d and blk.off is e

    @pytest.mark.parametrize("N, m, length", [
        (256, 300, 0.3), (256, 500, 0.5), (64, 1200, 0.3), (64, 2000, 0.5),
        (16, 300, 0.3), (16, 40, 3.5)])     # the last shifts past pi
    def test_shift_identity_gramian_is_the_offset_loop(self, N, m, length):
        # B = I takes running sums of the per-offset weights, and gives the
        # bytes of the two diagonals of the loop over offsets, whose other
        # entries are exactly zero
        table = ShiftSemigroup(N).lag_table(length / m, m)
        w = trapezoid_weights(m, length / m)[::-1]
        d, e = table.gramian(np.eye(N))
        G = offset_loop_gramian(table, np.eye(N), w)
        assert d.tobytes() == np.diag(G).tobytes()
        assert e.tobytes() == np.diag(G, 1).tobytes() == np.diag(G, -1).tobytes()
        assert np.array_equal(G, dense((d, e)))

    def test_identity_semigroup_unit_window(self):
        blk = factor_gramian(0, window_gramian(MatrixSemigroup(np.zeros((3, 3))),
                                               np.eye(3), 1.0, 100))
        np.testing.assert_allclose(blk.matrix, np.eye(3), atol=1e-14)
        assert blk.min_eig == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [-1.0, 0.5])
    def test_scalar_closed_form(self, a):
        width = 0.05
        G = window_gramian(MatrixSemigroup([[a]]), [[1.0]], width, 1000)
        exact = (math.exp(2 * a * width) - 1.0) / (2 * a)
        assert G[0, 0] == pytest.approx(exact, rel=1e-8)

    def test_shift_diagonal_closed_form(self):
        # grid-aligned lags: the Gramian is exactly the trapezoid-weighted
        # per-node count of shifts that stay inside the domain, which
        # approximates min(width, pi - node) to one cell
        N = 16
        h = np.pi / N
        steps = 4
        width = steps * h
        T = ShiftSemigroup(N)
        d, e = window_gramian(T, np.eye(N), width, steps)
        w = np.full(steps + 1, h)
        w[0] = w[-1] = h / 2
        expected = np.array([sum(w[g] for g in range(steps + 1)
                                 if i + g <= N - 1) for i in range(N)])
        np.testing.assert_allclose(d, expected, atol=1e-13)
        assert np.abs(e).max() <= 1e-13
        nodes = np.arange(N) * h
        assert np.abs(expected - np.minimum(width, np.pi - nodes)).max() <= 1.5 * h

    def test_symmetry_and_psd_random(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            A = rng.normal(size=(d, d)) / np.sqrt(d)
            B = rng.normal(size=(d, d)) / np.sqrt(d)
            G = window_gramian(MatrixSemigroup(A), B, 0.7, 150)
            rel = np.linalg.norm(G - G.T) / np.linalg.norm(G)
            assert rel <= 1e-12
            assert np.linalg.eigvalsh(G)[0] >= -1e-12

    def test_quadrature_second_order(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(4, 4)) / 2.0
        B = rng.normal(size=(4, 2))
        T = MatrixSemigroup(A)
        ref = window_gramian(T, B, 1.0, 3200)
        e1 = np.linalg.norm(window_gramian(T, B, 1.0, 200) - ref)
        e2 = np.linalg.norm(window_gramian(T, B, 1.0, 400) - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)

    def test_monotone_in_window_length(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(5, 5)) / 2.0
        B = rng.normal(size=(5, 3))
        T = MatrixSemigroup(A)
        eigs = [factor_gramian(0, window_gramian(T, B, L, 300)).min_eig
                for L in (0.4, 0.6, 0.9)]
        assert eigs[0] <= eigs[1] + 1e-12 <= eigs[2] + 2e-12


class TestSolve:
    def test_identity(self):
        blk = factor_gramian(0, np.eye(3))
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(gramian_solve(blk, v), v, atol=1e-14)

    def test_diagonal(self):
        blk = factor_gramian(0, np.diag([2.0, 4.0]))
        np.testing.assert_allclose(gramian_solve(blk, np.array([2.0, 4.0])),
                                   [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(23)
        R = rng.normal(size=(8, 8))
        G = R @ R.T + 0.05 * np.eye(8)
        blk = factor_gramian(0, G)
        for _ in range(10):
            v = rng.normal(size=8)
            w = gramian_solve(blk, v)
            assert np.linalg.norm(G @ w - v) <= 1e-10 * np.linalg.norm(v)

    def test_matches_cholesky_on_case1_n256(self):
        # the two Case-1 window Gramians at N = 256, condition numbers about
        # 84 and 141: the LDL^T solve of the tridiagonal against scipy's
        # Cholesky solve of its dense array
        prob = build_case1(N=256)
        windows = interval_times(prob.mesh, Numerics(time_step=1e-3))[::2]
        _, blocks = assemble_all(prob, windows)
        rng = np.random.default_rng(25)
        for blk in blocks:
            G = dense((blk.diag, blk.off))
            lam = np.linalg.eigvalsh(G)[0]
            assert blk.min_eig <= lam
            assert blk.min_eig == pytest.approx(lam, rel=1e-12)
            fac = cho_factor(G, lower=True)
            for _ in range(10):
                v = rng.normal(size=256)
                ref = cho_solve(fac, v)
                err = np.linalg.norm(gramian_solve(blk, v) - ref)
                assert err <= 1e-14 * np.linalg.norm(ref)

    def test_singular_raises_with_diagnostics(self):
        with pytest.raises(NotInvertibleError) as err:
            factor_gramian(2, np.zeros((2, 2)))
        assert err.value.window == 2
        assert err.value.min_eig == 0.0
        assert err.value.floor == 1e-8

    def test_tridiagonal_singular_raises_with_diagnostics(self):
        # [[1, 1], [1, 1]] has the eigenvalues 0 and 2; its floor is
        # refused before any LDL^T factorization, which would divide by
        # its zero pivot on a longer such matrix
        with pytest.raises(NotInvertibleError) as err:
            factor_gramian(2, (np.ones(2), np.ones(1)))
        assert err.value.window == 2
        assert -1e-15 <= err.value.min_eig <= 0.0
        assert err.value.min_eig == tridiagonal_floor(np.ones(2), np.ones(1))
        with pytest.raises(NotInvertibleError):
            factor_gramian(0, (np.ones(3), np.ones(2)))

    def test_tridiagonal_non_finite_is_refused(self):
        # a NaN would leave every count 0 and the bracket unending
        with pytest.raises(ValueError, match="non-finite"):
            factor_gramian(0, (np.array([1.0, np.nan]), np.zeros(1)))


@pytest.mark.parametrize("N", [16, 64, 256, 1024])
def test_sturm_floor_is_a_lower_bound_within_2n_ulp(N):
    # the bisection ends on adjacent doubles whose counts are 0 and >= 1;
    # the floor lies 5 u max|off| and at most 2 ulp below the lower one, so
    # it is never above the smallest eigenvalue by scipy's tridiagonal
    # solver or by eigh, and within 2N ulp of scipy's (measured at most 6,
    # 31, 81 and 628 ulp at N = 16, 64, 256, 1024)
    prob = build_case1(N=N)
    windows = interval_times(prob.mesh, Numerics(time_step=1e-3))[::2]
    _, blocks = assemble_all(prob, windows)
    u = np.finfo(float).eps / 2
    for blk in blocks:
        d, e = blk.diag, blk.off
        diag, off_sq = d.tolist(), [0.0] + (e * e).tolist()
        lo, hi = smallest_eigenvalue_bracket(d, e)
        assert hi == np.nextafter(lo, np.inf)
        assert sturm_count(diag, off_sq, lo) == 0
        assert sturm_count(diag, off_sq, hi) >= 1
        assert sturm_count(diag, off_sq, blk.min_eig) == 0
        assert blk.min_eig == tridiagonal_floor(d, e)
        assert 0.0 < lo - blk.min_eig <= 5.000001 * u * np.abs(e).max() + 2 * np.spacing(lo)
        ref = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
        assert blk.min_eig <= ref
        assert ref - blk.min_eig <= 2 * N * np.spacing(ref)
        assert blk.min_eig <= np.linalg.eigvalsh(dense((d, e)))[0]


def test_transport_run_calls_no_lapack_routine(monkeypatch):
    # the tridiagonal Gramian's floor and solve run on Sturm counts and
    # LDL^T sweeps: a transport run calls none of numpy's LAPACK routines
    from evosteer.runner import run
    for name in ("eigh", "eigvalsh", "solve", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, name=name, **kwargs: pytest.fail(name))
    prob = build_case1(N=16)
    result = run(prob, smooth_targets(prob, 7),
                 Numerics(time_step=4e-3, history_samples=32))
    assert result.solve.window_solves_per_sweep == [2, 0]
    assert max(result.solve.per_window_defect) <= 1e-9


def test_linear_run_takes_one_eigh_per_window(monkeypatch):
    # on the dense path one eigh per window Gramian serves its floor, the
    # certificate and every solve of the run's sweep: the Picard iteration
    # solves each window once, and two more sweeps from a new first iterate
    # solve both windows again
    from evosteer import runner
    from evosteer.solver import picard_solve
    cfg = load_config(str(CONFIGS / "linear-2d.ini"))
    # K, the eigvalsh of A's symmetric part the semigroup keeps, is no
    # Gramian's: taken before the trap is set
    cfg.problem.semigroup.bound(cfg.problem.mesh.b)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh"))
    sweeps = []

    def solve_and_sweep_again(sweep, targets):
        report = picard_solve(sweep, targets)
        traj = sweep.initial_iterate(targets)
        for _ in range(2):
            sweep.apply(traj, targets)
        sweeps.append(sweep)
        return report

    monkeypatch.setattr(runner, "picard_solve", solve_and_sweep_again)
    result = runner.run(cfg.problem, cfg.targets, cfg.numerics, with_oracle=True)
    assert shapes == [(2, 2), (2, 2)]
    assert result.solve.window_solves == len(shapes)
    assert sweeps[0].window_solves == 2 * len(shapes)


def _csv_values(path):
    """A CSV file's text columns, and its value columns as one array."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    numeric = [i for i, name in enumerate(header) if name[0] in "xu"]
    text = [[r[i] for i in range(len(header)) if i not in numeric] for r in rows]
    return text, np.array([[float(r[i]) for i in numeric] for r in rows])


@pytest.mark.parametrize("preset", ["transport-case1", "transport-case2"])
def test_transport_files_within_round_off_of_the_eigh_solve(tmp_path, monkeypatch,
                                                            preset):
    # the LDL^T solve moves a transport run's states and controls by
    # round-off only: every value of trajectory.csv and control.csv within
    # 1e-14 of its file's largest |value| from the dense eigh solve, with
    # the time column and text fields identical
    from evosteer import gramian
    from evosteer.cli import main
    for name in ("ldl", "eigh"):
        if name == "eigh":
            monkeypatch.setattr(gramian, "gramian_solve", eigh_solve)
        monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / name))
        assert main(["solve", str(CONFIGS / f"{preset}.ini"), "--no-timing"]) == 0
    for file in ("trajectory.csv", "control.csv"):
        text, got = _csv_values(tmp_path / "ldl" / file)
        want_text, want = _csv_values(tmp_path / "eigh" / file)
        assert text == want_text
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestResiduals:
    def test_zero_defect_when_target_is_free_evolution(self):
        rng = np.random.default_rng(24)
        A = rng.normal(size=(3, 3)) / 2.0
        mesh = TimeMesh([0.0, 1.0])
        phi0 = rng.normal(size=3)
        prob = linear_problem(A, np.eye(3), mesh, phi0)
        num = Numerics(time_step=1e-3)
        sweep = Sweep(prob, num)
        traj = flat_extension(sweep)
        target = expm(A) @ phi0
        r = _residual(window_start(prob, traj), target,
                      sweep.tables[0], _eta(sweep, traj, 0))
        assert np.linalg.norm(r) <= 1e-10

    def test_constant_forcing_closed_form(self):
        # A = 0, phi(0) = 0, eta == c on (0, 1]: residual = z - c
        mesh = TimeMesh([0.0, 1.0])
        c = 0.3
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.0],
                              nonlinearity=lambda t, v: np.full_like(v, c))
        num = Numerics(time_step=1e-2, history_samples=16)
        sweep = Sweep(prob, num)
        traj = flat_extension(sweep)
        r = _residual(window_start(prob, traj), np.array([2.0]),
                      sweep.tables[0], _eta(sweep, traj, 0))
        assert r[0] == pytest.approx(2.0 - 0.3, abs=1e-13)

    def test_impulse_window_residual(self):
        # j = 1 with the time-scaled impulse: residual subtracts
        # T(theta_2 - lam_1) applied to lam_1 * x(theta_1-)
        rng = np.random.default_rng(25)
        A = rng.normal(size=(2, 2)) / 2.0
        mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
        prob = linear_problem(A, np.eye(2), mesh, [0.1, -0.2])
        num = Numerics(time_step=1e-3)
        sweep = Sweep(prob, num)
        traj = flat_extension(sweep)
        x_minus = traj.left_value_at_theta(1)
        target = rng.normal(size=2)
        r = _residual(window_start_reference(prob, traj, 1), target,
                      sweep.tables[1], _eta(sweep, traj, 1))
        manual = target - expm(0.5 * A) @ (0.5 * x_minus)
        np.testing.assert_allclose(r, manual, atol=1e-11)

    def test_kernel_residual_closed_form(self):
        # kappa == 1, q == 1, A = 0, window (0, 1]: inner integral tau,
        # outer integral 1/2
        mesh = TimeMesh([0.0, 1.0])
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.25],
                              nonlinearity=lambda t, v: np.ones_like(v),
                              kernel=(1.0,))
        num = Numerics(time_step=1e-2, history_samples=16)
        sweep = Sweep(prob, num)
        traj = flat_extension(sweep)
        r = _residual(window_start(prob, traj), np.array([2.0]),
                      sweep.tables[0], _inner(prob, traj, num))
        assert r[0] == pytest.approx(2.0 - 0.25 - 0.5, abs=1e-12)

    def test_kernel_residual_zero_integrand(self):
        # q == 0: the residual is target minus the free evolution of phi(0)
        rng = np.random.default_rng(26)
        A = rng.normal(size=(2, 2)) / 2.0
        mesh = TimeMesh([0.0, 1.0])
        phi0 = rng.normal(size=2)
        prob = linear_problem(A, np.eye(2), mesh, phi0,
                              nonlinearity=lambda t, v: np.zeros_like(v),
                              kernel=(0.0, 1.0))
        num = Numerics(time_step=1e-3, history_samples=8)
        sweep = Sweep(prob, num)
        traj = flat_extension(sweep)
        target = rng.normal(size=2)
        r = _residual(window_start(prob, traj), target,
                      sweep.tables[0], _inner(prob, traj, num))
        np.testing.assert_allclose(r, target - expm(A) @ phi0, atol=1e-11)


class TestControl:
    def test_zero_residual_zero_control(self):
        mesh = TimeMesh([0.0, 1.0])
        prob = linear_problem(np.zeros((2, 2)), np.eye(2), mesh, [0.0, 0.0])
        sweep = Sweep(prob, Numerics(time_step=1e-2))
        u = _control(sweep, [np.zeros(2)]).value(0.5)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)

    def test_scalar_constant_control(self):
        # A = 0, B = 1, window (0, 1]: Gramian is 1, so u == residual
        mesh = TimeMesh([0.0, 1.0])
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.0])
        sweep = Sweep(prob, Numerics(time_step=1e-3))
        control = _control(sweep, [np.array([2.5])])
        for theta in (0.1, 0.5, 1.0):
            assert control.value(theta)[0] == pytest.approx(2.5, rel=1e-12)

    def test_zero_off_control_windows(self):
        mesh = TimeMesh([0.0, 0.4, 0.6, 1.0])
        prob = linear_problem(np.zeros((1, 1)), [[1.0]], mesh, [0.0])
        sweep = Sweep(prob, Numerics(time_step=1e-2))
        control = _control(sweep, [np.ones(1), np.ones(1)])
        for theta in (0.0, 0.5):
            np.testing.assert_array_equal(control.value(theta), np.zeros(1))
        assert control.value(0.2)[0] != 0.0

    @pytest.mark.parametrize("backend", ["matrix", "shift"])
    def test_sup_norms_match_per_row_norms(self, backend):
        rng = np.random.default_rng(32)
        # the control space is weighted like the state space: 1 on the
        # matrix backend, h = pi/N on the shift backend
        if backend == "matrix":
            T, B = MatrixSemigroup(rng.normal(size=(6, 6))), rng.normal(size=(6, 6))
        else:
            T, B = ShiftSemigroup(64), np.eye(64)
        phi0 = rng.normal(size=T.dim)
        prob = Problem(semigroup=T, control_matrix=B,
                       mesh=TimeMesh([0.0, 0.4, 0.6, 1.0]),
                       beta=1.0, history=lambda s: phi0)
        sweep = Sweep(prob, Numerics(time_step=1e-3))
        control = _control(sweep, [rng.normal(size=T.dim) for _ in sweep.tables])
        weight = np.sqrt(T.weight)
        per_row = [max(float(weight * np.linalg.norm(u)) for u in U)
                   for U in control.samples]
        assert control.sup_norms() == per_row


class TestWindowStart:
    @pytest.mark.parametrize("case, j, expected", [
        ("first-nonlocal", 0, [0.6, 0.05]),   # phi(0) + 0.1 * x(0.2)
        ("first-integro", 0, [0.5, 0.25]),    # phi(0) alone
        ("impulse", 1, [0.5, -1.0]),          # lam_1 * x(theta_1-)
    ], ids=["first-nonlocal", "first-integro", "impulse"])
    def test_window_start(self, case, j, expected):
        mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
        kwargs = {}
        if case == "first-nonlocal":
            kwargs["nonlocal_term"] = WeightedSampleNonlocal([0.1], [0.2])
        elif case == "first-integro":
            kwargs.update(nonlinearity=lambda t, v: np.ones_like(v), kernel=(1.0,))
        prob = linear_problem(np.zeros((2, 2)), np.eye(2), mesh, [0.5, 0.25],
                              **kwargs)
        flat = _flat_traj(prob, Numerics(time_step=1e-2, history_samples=8))
        x = np.array([1.0, -2.0])
        traj = rebuilt(flat, [np.tile(x, (len(t), 1)) for t in flat.seg_times])
        start = (window_start(prob, traj) if j == 0
                 else window_start_reference(prob, traj, j))
        np.testing.assert_allclose(start, expected, rtol=1e-15)

    @pytest.mark.parametrize("backend", ["matrix", "shift"])
    def test_later_window_starts_at_the_impulse_branch(self, backend):
        # the sweep starts window 1 at the last sample of the impulse window
        # before it: the bits of the impulse map at lam_1 alone, of the left
        # value x(theta_1-) of the path the sweep has just advanced
        from evosteer.solver import Sweep
        rng = np.random.default_rng(44)
        if backend == "matrix":
            prob = linear_problem(rng.normal(size=(3, 3)), np.eye(3),
                                  TimeMesh([0.0, 0.3, 0.5, 1.0]),
                                  rng.normal(size=3))
            targets = [rng.normal(size=3) for _ in range(2)]
        else:
            prob = build_case1(N=16)
            targets = smooth_targets(prob, 7)
        sweep = Sweep(prob, Numerics(time_step=4e-3, history_samples=48))
        traj = flat_extension(sweep)
        traj = rebuilt(traj, [rng.normal(size=v.shape) for v in traj.seg_values])
        new = rebuilt(traj)
        sweep.apply(new, targets)
        want = window_start_reference(prob, new, 1)
        assert not np.array_equal(want, window_start_reference(prob, traj, 1))
        assert np.array_equal(new.seg_values[1][-1], want)
        assert np.array_equal(new.seg_values[2][0], want)


class TestControlBound:
    def _problem(self, breakpoints=(0.0, 1.0), **kwargs):
        # A = 0 and B = I: K = M = 1
        return linear_problem(np.zeros((1, 1)), [[1.0]], TimeMesh(breakpoints),
                              [1.0], **kwargs)

    def test_all_zero(self):
        prob = self._problem()
        prob_zero = linear_problem(np.zeros((1, 1)), prob.control_matrix,
                                   prob.mesh, [0.0])
        assert control_bound(prob_zero, 0, np.array([0.0]), 1.0, 2.0) == 0.0

    def test_first_window_substitution(self):
        # M = K = 1, floor 1, |target| = 1, |phi(0)| = 1, sup eta = 1, b = 1;
        # nu = 0.1 x(0.2) adds its sup constant sum |alpha_i| R, R = 2
        for nu, expected in ((None, 3.0), (WeightedSampleNonlocal([0.1], [0.2]), 3.2)):
            prob = self._problem(nonlocal_term=nu)
            q = control_bound(prob, 0, np.array([1.0]), 1.0, 2.0, forcing_sup=1.0)
            assert q == pytest.approx(expected, abs=1e-14)

    def test_later_window_substitution(self):
        # lam_1 = 0.6 and R = 2 K max(1, |phi(0)|, |target|) = 2
        prob = self._problem((0.0, 0.4, 0.6, 1.0))
        target = np.array([1.0])
        R = ball_radius(prob, [target, target])
        assert R == 2.0
        q = control_bound(prob, 1, target, 0.5, R, forcing_sup=1.0)
        # (M K / floor) (|target| + K lam_1 R + K N b)
        assert q == pytest.approx((1.0 / 0.5) * (1.0 + 0.6 * 2.0 + 1.0), abs=1e-13)


def _residual(start, target, table, forcing):
    return steering_residual(start, target, table, table.end_integral(forcing))


def _control(sweep, residuals):
    """The control signal of every window of ``sweep`` from its residual."""
    pairs = [synthesize_control(sweep.problem, t, b, r)
             for t, b, r in zip(sweep.tables, sweep.blocks, residuals)]
    return ControlSignal(problem=sweep.problem, window_times=sweep.seg_times[::2],
                         samples=[u for u, _ in pairs],
                         preimages=[y for _, y in pairs])


def _flat_traj(problem, numerics):
    return flat_extension(Sweep(problem, numerics))


def _eta(sweep, traj, j):
    """eta on control window j's grid."""
    return eta_values(sweep.problem, traj, sweep.seg_times[2 * j])


def _inner(problem, traj, numerics):
    kern = KernelDiscretization(problem, interval_times(problem.mesh, numerics))
    return kern.inner_convolution(eta_values(problem, traj, kern.times))[kern.block_slice(0)]
