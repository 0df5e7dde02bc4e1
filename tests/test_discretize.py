import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from evosteer.core import TimeMesh
from evosteer.discretize import KernelDiscretization, eta_values, interval_times
from evosteer.oracle import oracle_linear
from evosteer.problems import Numerics, Problem
from evosteer.semigroups import MatrixSemigroup, trapezoid_weights
from evosteer.solver import Sweep
from evosteer.transport import build_case2
from test_core import rebuilt
from test_solver import flat_extension

# Two impulses; ceil(length / time_step) makes the steps differ at 0.03.
UNEQUAL = [0.0, 0.32, 0.4, 0.55, 0.85, 1.0]
# Dyadic lengths and step 2^-8: every interval has the same step exactly.
EQUAL = [0.0, 0.25, 0.375, 0.625, 0.75, 1.0]
# kappa(s) = 0.5 - 3 s + s^2 + 2 s^3, lowest power first: mixed signs, and
# kappa changes sign on [0, 1], so sum |c_r| s^r exceeds |kappa| there.
MIXED = (0.5, -3.0, 1.0, 2.0)


def test_trapezoid_weights_sum_to_length():
    w = trapezoid_weights(10, 0.1)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == w[-1] == pytest.approx(0.05)


def test_window_grids_share_breakpoints():
    mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
    prob = Problem(semigroup=MatrixSemigroup(np.zeros((2, 2))),
                   control_matrix=None, mesh=mesh, beta=1.0,
                   history=lambda s: np.zeros(2))
    sweep = Sweep(prob, Numerics(time_step=1e-2))
    assert len(sweep.tables) == 2
    assert sweep.seg_times[0][0] == 0.0 and sweep.seg_times[0][-1] == 0.3
    assert sweep.seg_times[2][0] == 0.5 and sweep.seg_times[2][-1] == 1.0
    assert sweep.tables[0].weights.sum() == pytest.approx(0.3)
    assert sweep.tables[1].weights.sum() == pytest.approx(0.5)


def _kernel_problem(coeffs, q, mesh=None, dim=1):
    mesh = mesh or TimeMesh([0.0, 0.4, 0.5, 1.0])
    return Problem(semigroup=MatrixSemigroup(np.zeros((dim, dim))),
                   control_matrix=None, mesh=mesh, beta=1.0,
                   history=lambda s: np.zeros(dim),
                   nonlinearity=q, kernel=coeffs)


def _kernel(problem, numerics):
    """The kernel sums on the problem's interval grids."""
    return KernelDiscretization(problem, interval_times(problem.mesh, numerics))


def kappa(coeffs, s):
    """The polynomial kernel sum_r coeffs[r] s^r at every entry of s."""
    return np.polynomial.polynomial.polyval(s, coeffs)


def dense_kernel_reference(times, blocks, coeffs):
    """The G x G Volterra matrix, kappa(t_i - s_k) times the cumulative
    trapezoid weights, as one dense array."""
    kap = kappa(coeffs, np.maximum(times[:, None] - times[None, :], 0.0))
    G = len(times)
    M = np.zeros((G, G))
    offsets = np.cumsum([0] + [len(t) for t in blocks])
    for bi, t in enumerate(blocks):
        lo, hi = offsets[bi], offsets[bi + 1]
        m = len(t) - 1
        delta = (t[-1] - t[0]) / m
        # integrals ending inside this block: trapezoid over [t[0], t_i]
        for i in range(lo + 1, hi):
            M[i, lo:i + 1] = delta
            M[i, lo] = M[i, i] = 0.5 * delta
        # integrals ending in later blocks see the full block weights
        M[hi:, lo:hi] = trapezoid_weights(m, delta)[None, :]
    return kap * M


def volterra(problem, kern, traj):
    """The inner convolution of q read from ``traj`` at every node."""
    return kern.inner_convolution(eta_values(problem, traj, kern.times))


class TestKernelDiscretization:
    def test_inner_convolution_closed_form(self):
        # kappa == 1, q == 1: the inner convolution at t is exactly t
        prob = _kernel_problem((1.0,), lambda t, v: np.ones_like(v))
        num = Numerics(time_step=1e-2, history_samples=8)
        kern = _kernel(prob, num)
        traj = flat_extension(Sweep(prob, num))
        inner = volterra(prob, kern, traj)
        np.testing.assert_allclose(inner[:, 0], kern.times, atol=1e-12)

    def test_linear_kernel_closed_form(self):
        # kappa(s) = s, q == 1: int_0^t (t - s) ds = t^2 / 2, exact for the
        # trapezoid rule applied to a piecewise-linear integrand? the
        # integrand is linear in s per fixed t, so yes
        prob = _kernel_problem((0.0, 1.0), lambda t, v: np.ones_like(v))
        num = Numerics(time_step=1e-2, history_samples=8)
        kern = _kernel(prob, num)
        traj = flat_extension(Sweep(prob, num))
        inner = volterra(prob, kern, traj)
        np.testing.assert_allclose(inner[:, 0], kern.times ** 2 / 2.0, atol=1e-12)

    def test_inner_convolution_at_nodes(self):
        # kappa == 1: q == 1 gives t at t = 0.5, q == 0 gives exactly 0 at 0.7
        mesh = TimeMesh([0.0, 1.0])
        num = Numerics(time_step=1e-2, history_samples=8)
        prob = _kernel_problem((1.0,), lambda t, v: np.ones_like(v), mesh=mesh)
        kern = _kernel(prob, num)
        traj = flat_extension(Sweep(prob, num))
        i, k = (int(np.argmin(np.abs(kern.times - t))) for t in (0.5, 0.7))
        assert volterra(prob, kern, traj)[i, 0] == pytest.approx(0.5, abs=1e-12)
        prob0 = _kernel_problem((1.0,), lambda t, v: np.zeros_like(v), mesh=mesh)
        assert volterra(prob0, _kernel(prob0, num), traj)[k, 0] == 0.0

    def test_block_slices_tile_the_grid(self):
        prob = _kernel_problem((0.0, 1.0), lambda t, v: np.zeros_like(v))
        num = Numerics(time_step=5e-2, history_samples=8)
        kern = _kernel(prob, num)
        total = sum(kern.block_slice(i).stop - kern.block_slice(i).start
                    for i in range(len(kern.block_times)))
        assert total == len(kern.times)
        assert kern.block_slice(0).start == 0

    @pytest.mark.parametrize("breakpoints, time_step, distinct_steps", [
        (EQUAL, 2.0 ** -8, 1),
        # steps 0.32/11, 0.01, 0.15/8, 0.03, 0.15/8
        (UNEQUAL, 0.03, 4)], ids=["equal-steps", "unequal-steps"])
    def test_volterra_product_matches_dense_reference(self, breakpoints,
                                                      time_step, distinct_steps):
        # two impulses, dim 2; q differs per node and per component
        mesh = TimeMesh(breakpoints)
        num = Numerics(time_step=time_step, history_samples=8)
        assert mesh.n_impulses == 2
        for coeffs in ((1.0,), (0.0, 1.0), MIXED):
            prob = _kernel_problem(coeffs,
                                   lambda t, v: np.stack([np.sin(7.0 * t),
                                                          np.cos(3.0 * t) - t], axis=1),
                                   mesh=mesh, dim=2)
            kern = _kernel(prob, num)
            assert len({(t[-1] - t[0]) / (len(t) - 1)
                        for t in kern.block_times}) == distinct_steps
            traj = flat_extension(Sweep(prob, num))
            KW = dense_kernel_reference(kern.times, kern.block_times, coeffs)
            ref = KW @ eta_values(prob, traj, kern.times)
            new = volterra(prob, kern, traj)
            assert new.shape == ref.shape == (len(kern.times), 2)
            assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_empty_or_non_finite_coeffs_are_refused(self):
        # the problem refuses the coefficients and keeps them as floats
        for coeffs in ((), (1.0, np.nan), (np.inf,)):
            with pytest.raises(ValueError, match=r"kernel coeffs must be"):
                _kernel_problem(coeffs, lambda t, v: np.zeros_like(v))
        prob = _kernel_problem([0, np.float32(1)], lambda t, v: np.zeros_like(v))
        assert prob.kernel == (0.0, 1.0)
        assert all(type(c) is float for c in prob.kernel)

    @pytest.mark.parametrize("breakpoints, time_step", [
        (EQUAL, 2.0 ** -8), (UNEQUAL, 0.03)], ids=["equal-steps", "unequal-steps"])
    def test_kernel_mass_never_below_the_fsum_reference(self, breakpoints,
                                                        time_step):
        """kernel_mass bounds max_i sum_k w_ik |kappa(t_i - s_k)|: it is the
        same sum of sum_r |c_r| s^r, which the running sums form within
        their stated rounding bound and which is then rounded up by it.  The
        reference sums every node's terms exactly by math.fsum."""
        mesh = TimeMesh(breakpoints)
        for coeffs in ((0.0, 1.0), MIXED):
            prob = _kernel_problem(coeffs, lambda t, v: np.zeros_like(v), mesh=mesh)
            kern = _kernel(prob, Numerics(time_step=time_step))
            KW = dense_kernel_reference(kern.times, kern.block_times, (1.0,))
            lags = np.maximum(kern.times[:, None] - kern.times[None, :], 0.0)
            exact, bar = (max(math.fsum(row) for row in KW * k) for k in (
                np.abs(kappa(coeffs, lags)),
                kappa(np.abs(coeffs), lags)))
            n, u = len(kern.times) + 4 * (len(coeffs) + 1), 2.0 ** -53
            rounding = n * u / (1 - n * u) * kappa(np.abs(coeffs), 2.0)  # b = 1
            assert exact <= bar <= kern.kernel_mass <= bar + 2 * rounding
            if coeffs == MIXED:
                assert exact < 0.9 * bar

    def test_fine_equal_step_kernel_in_bounded_memory(self):
        """Case 2 at time_step 1e-5 (G = 100,003, 75 GiB as one dense kernel)
        builds in a few MiB (8.1 MiB measured).  Only construction is
        measured; inner_convolution's transient memory is a few times the
        size of q per mesh interval."""
        prob = build_case2(N=4)
        tracemalloc.start()
        try:
            kern = _kernel(prob, Numerics(time_step=1e-5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kern.times) == 100_003
        assert peak < 64 * 2 ** 20

    def test_fine_unequal_step_kernel_in_bounded_memory(self):
        """The Case-2 preset's mesh at time_step 1.3e-5: steps 0.3/23077,
        0.2/15385 and 0.5/38462 all differ, and G = 76,927 nodes build in
        6.2 MiB (measured), as equal steps do."""
        prob = build_case2(N=4)
        tracemalloc.start()
        try:
            kern = _kernel(prob, Numerics(time_step=1.3e-5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(t) - 1 for t in kern.block_times] == [23077, 15385, 38462]
        assert len(kern.times) == 76_927
        assert peak < 16 * 2 ** 20

    def test_requires_kernel(self):
        mesh = TimeMesh([0.0, 1.0])
        prob = Problem(semigroup=MatrixSemigroup(np.zeros((1, 1))),
                       control_matrix=[[1.0]], mesh=mesh, beta=1.0,
                       history=lambda s: np.zeros(1))
        with pytest.raises(ValueError):
            _kernel(prob, Numerics(time_step=0.1))


def test_eta_values_zero_without_nonlinearity():
    mesh = TimeMesh([0.0, 1.0])
    prob = Problem(semigroup=MatrixSemigroup(np.zeros((2, 2))),
                   control_matrix=None, mesh=mesh, beta=1.0,
                   history=lambda s: np.zeros(2))
    num = Numerics(time_step=0.1, history_samples=8)
    traj = flat_extension(Sweep(prob, num))
    vals = eta_values(prob, traj, np.linspace(0, 1, 5))
    np.testing.assert_array_equal(vals, np.zeros((5, 2)))


@pytest.mark.parametrize("variant", ["semilinear", "integro"])
def test_one_grid_per_interval(variant):
    # two impulses; unequal step counts, three of them raised to MIN_STEPS = 8
    mesh = TimeMesh([0.0, 0.32, 0.4, 0.55, 0.85, 1.0])
    prob = _kernel_problem(MIXED, lambda t, v: v, mesh=mesh, dim=2)
    if variant == "semilinear":
        # linear, so that the oracle integrates it
        prob = dataclasses.replace(prob, kernel=None, nonlinearity=None)
    num = Numerics(time_step=0.03, history_samples=8)
    expected = interval_times(mesh, num)
    assert [len(t) - 1 for t in expected] == [11, 8, 8, 10, 8]
    sweep = Sweep(prob, num)
    assert len(sweep.seg_times) == len(expected)
    for got, ref in zip(sweep.seg_times, expected):
        assert np.array_equal(got, ref)
    # window j's lag table steps its interval's grid: m steps of delta
    for table, t in zip(sweep.tables, sweep.seg_times[::2]):
        assert table.m == len(t) - 1
        assert table.delta == (t[-1] - t[0]) / table.m
    if variant == "integro":
        others = sweep.kern.block_times
    else:
        targets = [np.ones(2), -np.ones(2), np.zeros(2)]
        control = sweep.apply(sweep.initial_iterate(targets), targets)[2]
        others = oracle_linear(prob, control, targets, num).trajectory.seg_times
    assert len(others) == len(expected)
    for got, ref in zip(others, sweep.seg_times):
        assert np.array_equal(got, ref)


def per_node_reference(fn, traj, times, history_samples):
    """The forcing sampled one node at a time: a delayed segment read over
    [-beta, 0] per node, of which fn sees only the first sample."""
    rows = []
    for t in times:
        seg = traj.values(t + np.linspace(-traj.beta, 0.0, history_samples + 1))
        rows.append(fn(np.array([t]), seg[:1])[0])
    return np.array(rows)


def _mixed_delay_case(variant, fn, beta=0.25):
    """beta = 0.25 (by default) on mesh 0 < 0.25 < 0.5 < 1 with step 2^-8:
    nodes up to 0.25 read the history, later ones the live path, and
    t - beta hits the breakpoints 0.25 and 0.5 exactly.  The path is random
    on every interval, so each breakpoint carries a jump."""
    mesh = TimeMesh([0.0, 0.25, 0.5, 1.0])
    prob = _kernel_problem(MIXED, fn, mesh=mesh, dim=2)
    prob = dataclasses.replace(prob, beta=beta,
                               history=lambda s: np.array([1.0 + s, np.cos(5.0 * s)]))
    if variant == "semilinear":
        prob = dataclasses.replace(prob, kernel=None)
    num = Numerics(time_step=2.0 ** -8, history_samples=16)
    sweep = Sweep(prob, num)
    rng = np.random.default_rng(60)
    traj = flat_extension(sweep)
    traj = rebuilt(traj, [rng.normal(size=v.shape) for v in traj.seg_values])
    return prob, num, sweep, traj


@pytest.mark.parametrize("variant", ["semilinear", "integro"])
def test_grid_forcing_matches_per_node_reference(variant):
    def fn(t, v):
        return t[:, None] * v - 0.5 * v * v + 0.25

    prob, num, sweep, traj = _mixed_delay_case(variant, fn)
    grids = sweep.seg_times[::2] if variant == "semilinear" else [sweep.kern.times]
    got = [eta_values(prob, traj, t) for t in grids]
    delayed = np.concatenate(grids) - prob.beta
    assert np.any(delayed <= 0.0) and np.any(delayed > 0.0)
    assert {0.25, 0.5} <= set(delayed)
    for t, vals in zip(grids, got):
        ref = per_node_reference(fn, traj, t, num.history_samples)
        assert vals.shape == ref.shape == (len(t), 2)
        assert np.array_equal(vals, ref)


@pytest.mark.parametrize("variant, beta, frozen, live", [
    ("semilinear", 0.25, [65, 0], [0, 129]),
    ("integro", 0.25, [65, 1, 0], [0, 64, 129]),
    ("semilinear", 0.125, [33, 0], [32, 129])],
    ids=["semilinear", "integro", "semilinear-beta-inside-window-0"])
def test_one_forcing_call_per_grid(variant, beta, frozen, live):
    # the rows at t <= beta read only the history and take one read per
    # run; the rows after it take one read per sweep: one call of eta over
    # every live control-window node, or of q over every live node, even
    # where they span several intervals
    sizes = []

    def fn(t, v):
        sizes.append(len(t))
        return 0.1 * v

    prob, num, sweep, traj = _mixed_delay_case(variant, fn, beta)
    grids = sweep.seg_times[::2] if variant == "semilinear" else sweep.seg_times
    frozen_reads, live_reads = [sum(frozen)], [sum(live)]
    assert [int(np.sum(t <= prob.beta)) for t in grids] == frozen
    assert [len(t) for t in grids] == [k + n for k, n in zip(frozen, live)]
    assert sweep.frozen_forcing_rows == sum(frozen)
    sizes.clear()
    for first in (True, False, False):
        sweep.apply(traj, [np.ones(2), -np.ones(2)])
        reads = frozen_reads if first else []
        assert sizes == [n for n in reads + live_reads if n]
        sizes.clear()


def test_forcing_of_wrong_shape_is_refused():
    prob, num, sweep, traj = _mixed_delay_case("semilinear",
                                               lambda t, v: np.zeros(2))
    with pytest.raises(ValueError, match=r"forcing returned shape \(2,\)"):
        eta_values(prob, traj, sweep.seg_times[0])
