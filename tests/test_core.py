import numpy as np
import pytest

from evosteer.core import (PiecewiseTrajectory, TimeMesh, history_segment,
                           path_sup_norm, segment_norm, sup_distance)


def make_traj(mesh, beta, fn, steps=64, hsamples=64, dim=1, hist_fn=None):
    """Sample a scalar/vector function of time into a trajectory."""
    hist_t = np.linspace(-beta, 0.0, hsamples + 1)
    if hist_fn is None:
        hist_fn = fn
    hist = np.array([np.atleast_1d(hist_fn(t)) for t in hist_t], dtype=float)
    seg_t, seg_v = [], []
    for a, end, kind, j in mesh.intervals():
        t = np.linspace(a, end, steps + 1)
        seg_t.append(t)
        seg_v.append(np.array([np.atleast_1d(fn(x)) for x in t], dtype=float))
    return PiecewiseTrajectory(mesh, beta, hist, seg_t, seg_v)


def rebuilt(path, seg_values=None):
    """A new path on ``path``'s grids and history holding ``seg_values``, by
    default a copy of ``path``'s own samples, built by the constructor."""
    return PiecewiseTrajectory(path.mesh, path.beta, path.history, path.seg_times,
                               path.seg_values if seg_values is None else seg_values,
                               weight=path.weight)


class TestTimeMesh:
    @pytest.mark.parametrize("points, b, lam, windows, intervals", [
        ([0, 0.4], 0.4, (0.0,), [(0.0, 0.4)], [(0.0, 0.4, "control", 0)]),
        ([0, 0.3, 0.5, 1], 1.0, (0.0, 0.5), [(0.0, 0.3), (0.5, 1.0)],
         [(0.0, 0.3, "control", 0), (0.3, 0.5, "impulse", 1),
          (0.5, 1.0, "control", 1)]),
        ([0, 0.2, 0.3, 0.6, 0.7, 2], 2.0, (0.0, 0.3, 0.7),
         [(0.0, 0.2), (0.3, 0.6), (0.7, 2.0)],
         [(0.0, 0.2, "control", 0), (0.2, 0.3, "impulse", 1),
          (0.3, 0.6, "control", 1), (0.6, 0.7, "impulse", 2),
          (0.7, 2.0, "control", 2)]),
    ], ids=["no-impulse", "one-impulse", "two-impulses"])
    def test_breakpoints_give_the_windows(self, points, b, lam, windows, intervals):
        mesh = TimeMesh(points)
        assert mesh.points == tuple(float(p) for p in points)
        assert all(type(p) is float for p in mesh.points)
        assert (mesh.b, mesh.lam, mesh.n_impulses) == (b, lam, len(lam) - 1)
        assert mesh.control_windows() == windows
        assert mesh.intervals() == intervals

    def test_no_impulse(self):
        mesh = TimeMesh([0.0, 0.4])
        assert mesh.n_impulses == 0
        assert mesh.control_windows() == [(0.0, 0.4)]
        assert mesh.intervals() == [(0.0, 0.4, "control", 0)]

    def test_one_impulse(self):
        mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
        assert mesh.n_impulses == 1
        assert mesh.control_windows() == [(0.0, 0.3), (0.5, 1.0)]
        assert mesh.intervals()[1] == (0.3, 0.5, "impulse", 1)
        kinds = [kind for _, _, kind, _ in mesh.intervals()]
        assert kinds == ["control", "impulse", "control"]

    def test_interleaving_violation(self):
        with pytest.raises(ValueError, match="interleave"):
            TimeMesh([0.0, 0.5, 0.4, 1.0])

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError, match="first breakpoint must be 0"):
            TimeMesh([0.1, 0.3, 0.5, 1.0])

    def test_empty_and_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="even length"):
            TimeMesh([])
        with pytest.raises(ValueError, match="interleave"):
            TimeMesh([0.0, -1.0])

    @pytest.mark.parametrize("points, named", [
        ([0.0], "even length"),
        ([0.0, 0.3, 1.0], "even length"),
        ([0.0, 0.5, 0.5, 1.0], "interleave"),
        ([0.0, 0.0], "interleave"),
        ([0.0, 0.3, float("nan"), 1.0], "interleave"),
        ([0.0, float("inf")], "interleave"),
    ], ids=["one-point", "odd-length", "repeated", "zero-horizon", "nan", "inf"])
    def test_more_refusals(self, points, named):
        with pytest.raises(ValueError, match=named):
            TimeMesh(points)


class TestHistorySegment:
    def test_at_zero_equals_history(self):
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: 2.0 * t)
        seg = history_segment(traj, [0.0], np.linspace(-1.0, 0.0, 65))[0]
        np.testing.assert_allclose(seg[:, 0],
                                   2.0 * np.linspace(-1.0, 0.0, 65), atol=1e-12)

    def test_constant_trajectory(self):
        mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
        traj = make_traj(mesh, 0.5, lambda t: 3.0)
        segs = history_segment(traj, [0.0, 0.3, 0.41, 0.99],
                               np.linspace(-0.5, 0.0, 33))
        assert segs.shape == (4, 33, 1)
        np.testing.assert_allclose(segs, 3.0)

    def test_ramp_with_zero_history(self):
        # phi == 0 on [-1, 0], x(s) = s on [0, b]: the segment at t = 0.5 is
        # max(0, 0.5 + kappa) evaluated on the offset grid
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t, hist_fn=lambda t: 0.0, steps=1000)
        kappas = np.linspace(-1.0, 0.0, 101)
        seg = history_segment(traj, [0.5], kappas)[0]
        np.testing.assert_allclose(seg[:, 0], np.maximum(0.0, 0.5 + kappas),
                                   atol=1e-12)

    def test_offset_zero_is_left_limit(self):
        mesh = TimeMesh([0.0, 0.3, 0.5, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t)
        # overwrite the impulse interval with a jump
        traj.seg_values[1][:] = 9.0
        seg = history_segment(traj, [0.3], np.linspace(-1.0, 0.0, 17))[0]
        assert seg[-1, 0] == pytest.approx(0.3, abs=1e-12)

    def test_base_time_out_of_range(self):
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t)
        with pytest.raises(ValueError):
            history_segment(traj, [0.5, -0.1], (0.0,))
        with pytest.raises(ValueError):
            history_segment(traj, [1.5], (-1.0,))
        with pytest.raises(ValueError):
            history_segment(traj, [0.5, np.nan], (0.0,))
        with pytest.raises(ValueError):
            history_segment(traj, [0.5], (np.nan,))


class TestSegmentNorm:
    def test_zero(self):
        assert segment_norm(np.zeros((33, 2)), beta=1.0) == 0.0

    def test_constant(self):
        c = np.array([3.0, 4.0])
        assert segment_norm(np.tile(c, (65, 1)), beta=0.7) == pytest.approx(
            5.0, rel=1e-14)

    def test_ramp_closed_form(self):
        # beta = 1, phi(kappa) = kappa: (1/1) * int_{-1}^0 |kappa| = 1/2
        kappas = np.linspace(-1.0, 0.0, 129)
        assert segment_norm(kappas[:, None], beta=1.0) == pytest.approx(
            0.5, rel=1e-12)

    def test_quadrature_order(self):
        # refining the grid by 2x shrinks the error quadratically
        def val(h):
            kappas = np.linspace(-1.0, 0.0, h + 1)
            return segment_norm(np.cos(kappas)[:, None] + 2.0, beta=1.0)

        ref = val(4096)
        e1, e2 = abs(val(32) - ref), abs(val(64) - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.15)


class TestPathNorms:
    def test_zero_and_jump(self):
        mesh = TimeMesh([0.0, 0.5, 0.6, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: 0.0)
        assert path_sup_norm(traj) == 0.0
        vals = [v.copy() for v in traj.seg_values]
        vals[0][:] = 1.0
        vals[1][:] = 3.0
        vals[2][:] = 1.0
        assert path_sup_norm(rebuilt(traj, vals)) == 3.0

    def test_sine_peak(self):
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: np.sin(np.pi * t), steps=100)
        assert path_sup_norm(traj) == pytest.approx(1.0, abs=1e-12)

    def test_norm_axioms_on_random_paths(self):
        rng = np.random.default_rng(3)
        mesh = TimeMesh([0.0, 0.4, 0.5, 1.0])
        for _ in range(20):
            x = make_traj(mesh, 1.0, lambda t: rng.normal(), dim=1)
            y = make_traj(mesh, 1.0, lambda t: rng.normal(), dim=1)
            c = float(rng.normal())
            assert path_sup_norm(x) >= 0.0
            scaled = rebuilt(x, [c * v for v in x.seg_values])
            assert path_sup_norm(scaled) == pytest.approx(abs(c) * path_sup_norm(x),
                                                          rel=1e-12)
            summed = rebuilt(x, [vx + vy for vx, vy in
                                 zip(x.seg_values, y.seg_values)])
            assert (path_sup_norm(summed)
                    <= path_sup_norm(x) + path_sup_norm(y) + 1e-12)

    def test_segment_norm_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(33, 2))
            b = rng.normal(size=(33, 2))
            c = float(rng.normal())
            na = segment_norm(a, 1.0)
            nb = segment_norm(b, 1.0)
            assert segment_norm(c * a, 1.0) == pytest.approx(abs(c) * na, rel=1e-12)
            assert segment_norm(a + b, 1.0) <= na + nb + 1e-12


class TestEvaluation:
    def test_left_limit_convention_at_breakpoints(self):
        mesh = TimeMesh([0.0, 0.5, 0.6, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t)
        vals = [v.copy() for v in traj.seg_values]
        vals[1][:] = -7.0  # impulse interval carries a jump
        traj = rebuilt(traj, vals)
        assert traj.value(0.5)[0] == pytest.approx(0.5)       # left limit
        assert traj.value(0.5 + 1e-9)[0] == pytest.approx(-7.0)
        assert traj.value(0.6)[0] == pytest.approx(-7.0)
        assert traj.value(0.6 + 1e-9)[0] == pytest.approx(0.6)

    def test_history_side_of_zero(self):
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t + 1.0, hist_fn=lambda t: t)
        assert traj.value(0.0)[0] == pytest.approx(0.0)       # phi(0)
        assert traj.value(1e-9)[0] == pytest.approx(1.0)      # jump to x(0+)

    def test_out_of_domain(self):
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t)
        with pytest.raises(ValueError):
            traj.value(1.2)
        with pytest.raises(ValueError):
            traj.value(-1.5)
        with pytest.raises(ValueError):
            traj.values([0.5, np.nan])

    def test_sup_distance_matches_manual(self):
        mesh = TimeMesh([0.0, 1.0])
        x = make_traj(mesh, 1.0, lambda t: t)
        y = make_traj(mesh, 1.0, lambda t: t * t)
        manual = max(abs(t - t * t) for t in np.linspace(0, 1, 65))
        assert sup_distance(x, y) == pytest.approx(manual, rel=1e-12)

    def test_rejects_nonfinite(self):
        mesh = TimeMesh([0.0, 1.0])
        traj = make_traj(mesh, 1.0, lambda t: t)
        bad = [v.copy() for v in traj.seg_values]
        bad[0][3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rebuilt(traj, bad)


def _reference_piece(times, vals, t):
    # per-piece evaluator of the earlier per-interval storage
    m = len(times) - 1
    step = (times[-1] - times[0]) / m
    pos = np.clip((t - times[0]) / step, 0.0, m)
    j = np.minimum(pos.astype(int), m - 1)
    frac = (pos - j)[:, None]
    return (1.0 - frac) * vals[j] + frac * vals[j + 1]


def _reference_values(beta, hist, seg_times, seg_values, t):
    out = np.empty((len(t), hist.shape[1]))
    past = t <= 0.0
    H = hist.shape[0] - 1
    h = beta / H
    pos = np.clip((t[past] + beta) / h, 0.0, H)
    j = np.minimum(pos.astype(int), H - 1)
    frac = (pos - j)[:, None]
    out[past] = (1.0 - frac) * hist[j] + frac * hist[j + 1]
    ends = np.array([s[-1] for s in seg_times])
    idx = np.minimum(np.searchsorted(ends, t, side="left"), len(ends) - 1)
    for k in np.unique(idx[~past]):
        sel = ~past & (idx == k)
        out[sel] = _reference_piece(seg_times[k], seg_values[k], t[sel])
    return out


class TestOneInterpolationPath:
    """The stacked path reads exactly as the per-interval storage did."""

    beta = 0.6
    mesh = TimeMesh([0.0, 0.3, 0.45, 0.7, 0.8, 1.0])

    def _parts(self):
        rng = np.random.default_rng(5)
        steps = [7, 3, 11, 5, 9]  # unequal per interval
        seg_times = [np.linspace(a, end, m + 1) for (a, end, _, _), m
                     in zip(self.mesh.intervals(), steps)]
        seg_values = [rng.normal(size=(len(t), 3)) for t in seg_times]
        hist = rng.normal(size=(17, 3))
        return hist, seg_times, seg_values

    def _times(self):
        rng = np.random.default_rng(6)
        breaks = [0.0, 0.3, 0.45, 0.7, 0.8, 1.0]
        return np.concatenate([rng.uniform(-self.beta, 1.0, 300), breaks,
                               [-self.beta, 0.0, 1.0, 1.0 + 5e-13]])

    def test_values_and_stack_match_reference(self):
        hist, seg_times, seg_values = self._parts()
        traj = PiecewiseTrajectory(self.mesh, self.beta, hist, seg_times, seg_values)
        t = self._times()
        assert np.array_equal(
            traj.values(t), _reference_values(self.beta, hist, seg_times, seg_values, t))
        assert np.array_equal(traj.sample_stack(), np.concatenate(seg_values))

    def test_write_through_segment_view_is_seen(self):
        hist, seg_times, seg_values = self._parts()
        traj = PiecewiseTrajectory(self.mesh, self.beta, hist, seg_times, seg_values)
        traj.seg_values[2][:] = 4.0
        traj.history[-1] = 7.0
        np.testing.assert_array_equal(traj.values([0.5, 0.7]), np.full((2, 3), 4.0))
        np.testing.assert_array_equal(traj.value(0.0), np.full(3, 7.0))
        lo = len(seg_times[0]) + len(seg_times[1])
        assert np.all(traj.sample_stack()[lo:lo + len(seg_times[2])] == 4.0)
