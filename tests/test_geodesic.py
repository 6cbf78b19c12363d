import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multifinsler.connection as connection
import multifinsler.geodesic as geodesic

from multifinsler.config import load_config
from multifinsler.finsler import EPS_SLIT, SAMPLE_ERRORS, NonFiniteSampleError, SlitViolationError, finsler_norm
from multifinsler.riemann import NotPositiveDefiniteError
from multifinsler.geodesic import (
    GeodesicPath,
    action_of_path,
    integrate_geodesic,
    path_to_csv,
)

from conftest import const_field, count_calls, field, space_of


class TestIntegration:
    def test_constant_metrics_straight_line(self, bi_const):
        p = integrate_geodesic(bi_const, [0.0, 0.0], [0.6, 0.8], 1.0, 0.01)
        expect = np.outer(p.t, [0.6, 0.8])
        assert np.max(np.abs(p.x - expect)) < 1e-13
        assert np.max(np.abs(p.y - np.array([0.6, 0.8]))) < 1e-13

    def test_norm_conserved(self, bi_x):
        p = integrate_geodesic(bi_x, [0.2, -0.3], [0.8, 0.6], 1.0, 1e-3)
        assert np.max(np.abs(p.F - p.F[0])) / p.F[0] < 1e-8

    def test_time_reversal(self, bi_x):
        p = integrate_geodesic(bi_x, [0.2, -0.3], [0.8, 0.6], 1.0, 1e-3)
        back = integrate_geodesic(bi_x, p.x[-1], -p.y[-1], 1.0, 1e-3)
        assert np.max(np.abs(back.x[-1] - np.array([0.2, -0.3]))) < 1e-6
        assert np.max(np.abs(back.y[-1] + np.array([0.8, 0.6]))) < 1e-6

    def test_rk4_convergence_order(self, bi_x):
        x0, y0 = [0.2, -0.3], [0.8, 0.6]
        ref = integrate_geodesic(bi_x, x0, y0, 1.0, 1.0 / 1024)
        e1 = np.max(np.abs(integrate_geodesic(bi_x, x0, y0, 1.0, 1.0 / 32).x[-1] - ref.x[-1]))
        e2 = np.max(np.abs(integrate_geodesic(bi_x, x0, y0, 1.0, 1.0 / 64).x[-1] - ref.x[-1]))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_proportional_pair_matches_effective_riemannian(self, prop_space):
        # effective metric (1 + sqrt(1 + x1^2))^2 * identity
        eff = field("eff", [["(1+sqrt(1+x1^2))^2", "0"], ["0", "(1+sqrt(1+x1^2))^2"]])
        sp_eff = space_of(eff)
        x0, y0 = [0.1, -0.2], [0.7, 0.4]
        p1 = integrate_geodesic(prop_space, x0, y0, 1.0, 1e-3)
        p2 = integrate_geodesic(sp_eff, x0, y0, 1.0, 1e-3)
        assert np.max(np.abs(p1.x - p2.x)) < 1e-6

    def test_single_metric_riemannian_geodesic(self):
        # polar-style metric: the ray theta = const, r(t) = r0 + t v is a geodesic
        sp = space_of(field("polar", [["1", "0"], ["0", "x1^2"]]))
        p = integrate_geodesic(sp, [1.0, 0.3], [0.5, 0.0], 1.0, 1e-3)
        assert np.max(np.abs(p.x[-1] - np.array([1.5, 0.3]))) < 1e-10

    def test_slit_guard(self, bi_const):
        with pytest.raises(SlitViolationError):
            integrate_geodesic(bi_const, [0.0, 0.0], [0.0, 0.0], 1.0, 0.1)

    def test_step_onto_the_slit_raises(self, monkeypatch, bi_const):
        # a constant spray y0/h takes the velocity to zero in one RK4 step
        monkeypatch.setattr(geodesic, "spray_row", lambda space, x, y: [10.0, 0.0])
        with pytest.raises(SlitViolationError):
            integrate_geodesic(bi_const, [0.0, 0.0], [1.0, 0.0], 0.3, 0.1)

    def test_invalid_step(self, bi_const):
        with pytest.raises(ValueError):
            integrate_geodesic(bi_const, [0.0, 0.0], [1.0, 0.0], 1.0, -0.1)

    @pytest.mark.parametrize("name", ["t_end", "step"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_times_are_rejected(self, bi_const, name, value):
        times = {"t_end": 1.0, "step": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            integrate_geodesic(bi_const, [0.0, 0.0], [1.0, 0.0], times["t_end"], times["step"])

    def test_non_finite_step_count_is_rejected(self, bi_const):
        # both times are finite, but their ratio, the step count, overflows
        with pytest.raises(ValueError, match=r"^t_end / step must be finite, got t_end=1e\+300 and step=1e-300"):
            integrate_geodesic(bi_const, [0.0, 0.0], [1.0, 0.0], 1e300, 1e-300)

    @pytest.mark.parametrize("rays_x, rays_y", [(3, 2), (1, 3)])
    def test_mismatched_ray_counts_are_rejected(self, bi_const, rays_x, rays_y):
        x0, y0 = np.zeros((rays_x, 2)), np.tile([1.0, 0.0], (rays_y, 1))
        message = f"got {y0.shape} and {x0.shape}"
        with pytest.raises(ValueError, match=r"^y0 must have shape \(n,\) or \(B, n\).*" + re.escape(message)):
            integrate_geodesic(bi_const, x0, y0, 0.1, 0.1)


def edge_space():
    """a_11 = 1 + x1 stops being SPD at x1 = -1."""
    return space_of(field("alpha", [["1+x1", "0"], ["0", "1"]]),
                    field("beta", [["1", "0"], ["0", "1+x2^2"]]))


def assert_same_path(batch, k, solo):
    ray = batch.ray(k)
    for name in ("t", "x", "y", "F"):
        assert np.array_equal(getattr(ray, name), getattr(solo, name)), name
    assert ray.step == solo.step


class TestLockstep:
    """A (B, n) batch of rays is integrated ray by ray, each as when shot alone."""

    def test_rays_equal_solo_runs_bitwise(self, tri_space):
        thetas = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        y0 = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        x0 = np.array([[0.1, -0.2], [0.3, 0.1], [-0.4, 0.2], [0.0, 0.5], [0.2, 0.2]])
        # a 3D fan, whose stages take connection_state on each ray as a batch of one
        space3d = load_config(Path(__file__).resolve().parent / "data" / "bimetric3d.json").space
        y3d = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [-0.5, 0.5, 0.5], [0.3, -0.9, 0.1]])
        x3d = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [-0.3, 0.2, 0.1], [0.2, 0.2, -0.2]])
        for space, x0, y0 in ((tri_space, x0, y0), (space3d, x3d, y3d)):
            rays, n = y0.shape
            for start in (x0[0], x0):
                fan = integrate_geodesic(space, start, y0, 0.05, 0.01)
                assert fan.x.shape == (rays, 6, n) and fan.F.shape == (rays, 6)
                assert fan.errors == (None,) * rays
                for k in range(rays):
                    xk = start if start.ndim == 1 else start[k]
                    assert_same_path(fan, k, integrate_geodesic(space, xk, y0[k], 0.05, 0.01))

    def test_one_connection_state_per_stage(self, monkeypatch, tri_space):
        # 6 rays of 3 steps, each step four stages
        calls = count_calls(monkeypatch, geodesic, "spray_row")
        integrate_geodesic(tri_space, [0.1, 0.2], np.eye(2).repeat(3, axis=0), 0.03, 0.01)
        assert calls[0] == 6 * 3 * 4

    def test_failing_row_is_retired_alone(self):
        sp = edge_space()
        y0 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        fan = integrate_geodesic(sp, [-0.8, 0.1], y0, 0.2, 0.01)
        with pytest.raises(NotPositiveDefiniteError) as solo:
            integrate_geodesic(sp, [-0.8, 0.1], y0[2], 0.2, 0.01)
        error = fan.errors[2]
        assert type(error) is NotPositiveDefiniteError and str(error) == str(solo.value)
        with pytest.raises(NotPositiveDefiniteError):
            fan.ray(2)
        for k in (0, 1, 3):
            assert fan.errors[k] is None
            assert_same_path(fan, k, integrate_geodesic(sp, [-0.8, 0.1], y0[k], 0.2, 0.01))
        # the retired ray keeps its samples up to the failing step, NaN after
        done = np.isfinite(fan.F[2])
        assert 1 < done.sum() < len(fan.t) and done[:done.sum()].all()
        assert np.isnan(fan.x[2][~done]).all()

    def test_ray_on_the_slit_is_retired_at_the_start(self, bi_x):
        y0 = np.array([[0.6, 0.8], [0.0, 0.0]])
        fan = integrate_geodesic(bi_x, [0.1, 0.1], y0, 0.02, 0.01)
        assert isinstance(fan.errors[1], SlitViolationError)
        assert np.isnan(fan.F[1]).all()
        assert_same_path(fan, 0, integrate_geodesic(bi_x, [0.1, 0.1], y0[0], 0.02, 0.01))

    def test_ray_of_a_single_path_is_refused(self, bi_x):
        path = integrate_geodesic(bi_x, [0.1, 0.1], [0.6, 0.8], 0.02, 0.01)
        with pytest.raises(ValueError, match="batch of rays"):
            path.ray(0)

    def test_linear_algebra_failure_retires_its_row(self, monkeypatch, bi_x):
        # in this diagonal pair g_12 has the sign of y_1 y_2: the kernel declines the rows
        # with y_1 y_2 < 0, so the second ray's stages take connection_state, where a stub
        # that fails to invert a stack holding a g with g_12 < 0 (the spray's g_inv) fails them
        kernel_row = connection._spray_row
        monkeypatch.setattr(connection, "_spray_row",
                            lambda y0, y1, sectors: None if y0 * y1 < 0.0 else kernel_row(y0, y1, sectors))
        original = np.linalg.inv

        def inv(a):
            if (a[..., 0, 1] < 0.0).any():
                raise np.linalg.LinAlgError("singular matrix")
            return original(a)

        monkeypatch.setattr(np.linalg, "inv", inv)
        y0 = np.array([[0.6, 0.8], [0.6, -0.8]])
        fan = integrate_geodesic(bi_x, [0.1, 0.1], y0, 0.02, 0.01)
        assert isinstance(fan.errors[1], np.linalg.LinAlgError)
        assert_same_path(fan, 0, integrate_geodesic(bi_x, [0.1, 0.1], y0[0], 0.02, 0.01))

    def test_non_finite_ray_is_retired_with_its_own_error(self, bi_x):
        # a non-finite y, or one whose quadratic forms overflow, is rejected at the start
        y0 = np.array([[0.6, 0.8], [np.inf, 1.0], [np.nan, 1.0], [1e200, 1.0]])
        fan = integrate_geodesic(bi_x, [0.1, 0.1], y0, 0.02, 0.01)
        for k in (1, 2, 3):
            with pytest.raises(NonFiniteSampleError) as solo:
                integrate_geodesic(bi_x, [0.1, 0.1], y0[k], 0.02, 0.01)
            assert type(fan.errors[k]) is NonFiniteSampleError and str(fan.errors[k]) == str(solo.value)
            assert np.isnan(fan.F[k]).all()
        assert_same_path(fan, 0, integrate_geodesic(bi_x, [0.1, 0.1], y0[0], 0.02, 0.01))

    def test_lone_ray_failing_inside_a_step_raises_its_own_error(self):
        # alpha stops being SPD at x1 = -1.5, which the second RK4 stage of the first step
        # reaches from x1 = -1.4, so the ray's step stops there
        sp = space_of(field("alpha", [["1.5+x1", "0"], ["0", "1"]]), const_field("beta", np.eye(2)))
        with pytest.raises(NotPositiveDefiniteError, match=r"'alpha' .* at x=\[-1\.5, 0\.0\]"):
            integrate_geodesic(sp, [-1.4, 0.0], [-1.0, 0.0], 1.0, 0.2)

    def test_fan_whose_rays_all_fail_in_one_step_keeps_their_errors(self):
        # both rays reach x1 = -1.5, where alpha stops being SPD, at the second RK4 stage
        sp = space_of(field("alpha", [["1.5+x1", "0"], ["0", "1"]]), const_field("beta", np.eye(2)))
        y0 = np.array([[-1.0, 0.0], [-1.0, 0.5]])
        fan = integrate_geodesic(sp, [-1.4, 0.0], y0, 1.0, 0.2)
        for k in range(2):
            with pytest.raises(NotPositiveDefiniteError) as solo:
                integrate_geodesic(sp, [-1.4, 0.0], y0[k], 1.0, 0.2)
            assert type(fan.errors[k]) is NotPositiveDefiniteError and str(fan.errors[k]) == str(solo.value)
            assert np.isfinite(fan.F[k, 0]) and np.isnan(fan.F[k, 1:]).all()

    def test_rays_failing_at_different_stages_of_one_step_are_retired_whole(self):
        # in the first step, ray 0 leaves alpha's SPD region (x1 > -1.5) at RK4 stage 2,
        # x0 + h/2 y0, and ray 1 at stage 3; ray 2 goes on
        sp = space_of(field("alpha", [["1.5+x1", "0"], ["0", "1"]]), const_field("beta", np.eye(2)))
        x0 = np.array([[-1.45, 0.0], [-1.4, 0.0], [0.0, 0.0]])
        y0 = np.array([[-1.0, 0.0], [-1.5, 0.0], [1.0, 0.0]])
        fan = integrate_geodesic(sp, x0, y0, 0.5, 0.125)
        for k, at in ((0, r"x=\[-1\.5125, 0\.0\]"), (1, r"x=\[-1\.5043079963875408, 0\.0\]")):
            with pytest.raises(NotPositiveDefiniteError, match=at) as solo:
                integrate_geodesic(sp, x0[k], y0[k], 0.5, 0.125)
            assert type(fan.errors[k]) is NotPositiveDefiniteError and str(fan.errors[k]) == str(solo.value)
            assert np.isfinite(fan.F[k, 0]) and np.isnan(fan.F[k, 1:]).all()
            assert np.array_equal(fan.x[k, 0], x0[k]) and np.isnan(fan.x[k, 1:]).all()
        assert fan.errors[2] is None
        assert_same_path(fan, 2, integrate_geodesic(sp, x0[2], y0[2], 0.5, 0.125))

    @pytest.mark.parametrize("x0, y0", [
        ([0.0, 0.0], np.ones((2, 2, 2))),
        (np.zeros((2, 2)), [1.0, 0.0]),
        (np.zeros((3, 2)), np.ones((2, 2))),
    ])
    def test_shapes_are_checked(self, bi_x, x0, y0):
        with pytest.raises(ValueError):
            integrate_geodesic(bi_x, x0, y0, 0.02, 0.01)


STEP = 1.0 / 16  # a power of two: k steps take exactly t_end = k * STEP


@settings(max_examples=40, deadline=None, derandomize=True)
@given(starts=st.lists(st.tuples(st.floats(-0.95, -0.6), st.floats(-0.5, 0.5),
                                 st.floats(0.0, 2.0 * np.pi), st.floats(0.5, 3.0)),
                       min_size=1, max_size=4),
       n_steps=st.integers(1, 8))
def test_a_fan_retires_each_failing_ray_whole_at_its_step(starts, n_steps):
    # rays start near x1 = -1, where edge_space stops being SPD, so some leave it mid-step
    sp = edge_space()
    x0 = np.array([(x1, x2) for x1, x2, _, _ in starts])
    y0 = np.array([(v * np.cos(theta), v * np.sin(theta)) for _, _, theta, v in starts])
    with mock.patch.object(geodesic, "spray_row", wraps=geodesic.spray_row) as spy:
        fan = integrate_geodesic(sp, x0, y0, n_steps * STEP, STEP)
    if fan.errors.count(None) == len(starts):
        assert spy.call_count == 4 * n_steps * len(starts)
    for k in range(len(starts)):
        try:
            solo = integrate_geodesic(sp, x0[k], y0[k], n_steps * STEP, STEP)
        except SAMPLE_ERRORS as exc:
            assert type(fan.errors[k]) is type(exc) and str(fan.errors[k]) == str(exc)
            done = int(np.isfinite(fan.F[k]).sum())  # the samples before the failing step
            assert done <= n_steps
            for name in ("x", "y", "F"):
                samples = getattr(fan, name)[k]
                assert np.isfinite(samples[:done]).all() and np.isnan(samples[done:]).all(), name
            if done > 1:  # those samples are the solo run's up to that step, bit for bit
                before = integrate_geodesic(sp, x0[k], y0[k], (done - 1) * STEP, STEP)
                assert np.array_equal(fan.x[k, :done], before.x) and np.array_equal(fan.F[k, :done], before.F)
        else:
            assert fan.errors[k] is None
            assert_same_path(fan, k, solo)


class TestAction:
    def test_straight_line_constant_norm(self, bi_const):
        ts = np.linspace(0.0, 2.0, 101)
        xs = np.outer(ts, [1.0, 0.0])
        act = action_of_path(bi_const, ts, xs)
        assert act.total == pytest.approx(6.0, rel=1e-12)
        assert act.sector_totals[0] == pytest.approx(2.0, rel=1e-12)
        assert act.sector_totals[1] == pytest.approx(4.0, rel=1e-12)

    def test_sector_decomposition_identity(self, bi_x):
        p = integrate_geodesic(bi_x, [0.1, 0.1], [1.0, 0.3], 1.0, 0.01)
        act = action_of_path(bi_x, p.t, p.x, p.y)
        assert act.decomposition_residual <= 1e-12

    @pytest.mark.parametrize("rows", [2, 5])
    def test_velocity_rows_must_match_positions(self, bi_const, rows):
        ts = np.linspace(0.0, 1.0, 3)
        xs = np.outer(ts, [1.0, 0.0])
        with pytest.raises(ValueError, match="ys"):
            action_of_path(bi_const, ts, xs, np.tile([1.0, 0.0], (rows, 1)))

    def test_velocities_from_finite_differences(self, bi_x):
        p = integrate_geodesic(bi_x, [0.1, 0.1], [1.0, 0.3], 1.0, 0.005)
        with_v = action_of_path(bi_x, p.t, p.x, p.y)
        without_v = action_of_path(bi_x, p.t, p.x)
        assert without_v.total == pytest.approx(with_v.total, rel=1e-5)

    def test_reparameterization_invariance(self, bi_x):
        # the same curve sampled uniformly and through t = s^3
        def curve(tt):
            return np.stack([np.sin(tt), tt**2], axis=1)

        n = 201
        t_uniform = np.linspace(1.0, 2.0, n)
        s = np.linspace(1.0, 2.0 ** (1.0 / 3.0), n)
        t_cubed = s**3
        a1 = action_of_path(bi_x, t_uniform, curve(t_uniform))
        a2 = action_of_path(bi_x, t_cubed, curve(t_cubed))
        assert abs(a1.total - a2.total) <= 1e-6 * a1.total

    def test_geodesic_minimizes_among_perturbations(self, bi_x):
        p = integrate_geodesic(bi_x, [0.0, 0.0], [1.0, 0.2], 1.0, 0.01)
        base = action_of_path(bi_x, p.t, p.x).total
        rng = np.random.default_rng(7)
        bump = np.sin(np.pi * p.t / p.t[-1])
        for _ in range(10):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            pert = p.x + 0.02 * np.outer(bump, d)
            assert action_of_path(bi_x, p.t, pert).total > base

    def test_zero_velocity_segment_rejected(self, bi_const):
        ts = np.array([0.0, 1.0, 2.0])
        xs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            action_of_path(bi_const, ts, xs, ys=np.zeros((3, 2)))

    @pytest.mark.parametrize("samples", [1001, 1000])
    @pytest.mark.parametrize("n_metrics", [1, 2, 3])
    def test_one_simpson_rule_has_the_bits_of_one_per_sector(self, monkeypatch, n_metrics, samples):
        from scipy import integrate

        sp = space_of(*[
            field("alpha", [["1+x2^2", "0"], ["0", "1"]]),
            field("beta", [["4", "0"], ["0", "1+x1^2"]]),
            field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]),
        ][:n_metrics])
        t = np.linspace(0.0, 1.0, samples)
        xs = 0.4 * np.stack([np.sin(2.0 * t), np.cos(3.0 * t)], axis=1)
        ys = 0.4 * np.stack([2.0 * np.cos(2.0 * t), -3.0 * np.sin(3.0 * t)], axis=1)
        f_mu = finsler_norm(sp, xs, ys)[1]
        sectors = np.array([float(integrate.simpson(f_mu[:, m], x=t)) for m in range(n_metrics)])
        total = float(integrate.simpson(f_mu.sum(axis=1), x=t))
        calls = count_calls(monkeypatch, geodesic, "simpson_rows")
        act = action_of_path(sp, t, xs, ys)
        assert calls[0] == 1
        assert act.sector_totals.tobytes() == sectors.tobytes()
        assert np.float64(act.total).tobytes() == np.float64(total).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(steps=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), min_size=1, max_size=40),
           start=st.floats(-5.0, 5.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(steps=[0.01] * 1000, start=0.0, seed=0)
    @example(steps=[0.01] * 999, start=0.0, seed=0)
    def test_the_written_out_rule_is_scipys_simpson_bit_for_bit(self, steps, start, seed):
        # even and odd sample counts, uneven spacings and repeated samples (a zero spacing)
        from scipy import integrate

        t = start + np.cumsum([0.0, *steps])
        y = np.random.default_rng(seed).normal(size=(3, len(t)))
        assert geodesic.simpson_rows(y, t).tobytes() == integrate.simpson(y, x=t, axis=-1).tobytes()

    def test_samples_are_evaluated_in_one_call(self, monkeypatch, bi_x):
        p = integrate_geodesic(bi_x, [0.1, 0.1], [1.0, 0.3], 0.1, 0.01)
        calls = count_calls(monkeypatch, geodesic, "norm_rows")
        act = action_of_path(bi_x, p.t, p.x, p.y)
        assert calls[0] == 1
        assert act.decomposition_residual <= 1e-12

    @pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
    def test_an_overflowing_velocity_is_a_non_finite_sample_without_a_warning(self, name):
        # |v|^2 of a velocity of 1e200 overflows; the sector forms reject it, and the slit
        # test before them warns of nothing
        space = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").space
        with pytest.raises(NonFiniteSampleError, match="is not finite"):
            action_of_path(space, [0.0, 1.0], [[0.1, 0.2], [0.2, 0.2]], [[1e200, 0.0], [1.0, 0.0]])

    def test_first_failing_sample_raises_its_own_error(self):
        # sample 1 leaves the SPD region before sample 2 stops: the SPD error comes first
        sp = edge_space()
        ts = np.array([0.0, 1.0, 2.0, 3.0])
        xs = np.array([[0.0, 0.0], [-1.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
        ys = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NotPositiveDefiniteError):
            action_of_path(sp, ts, xs, ys)
        with pytest.raises(ValueError, match="zero-velocity segment at t=2.0"):
            action_of_path(sp, ts, np.zeros((4, 2)), ys)


@pytest.fixture(scope="module")
def bimetric():
    return load_config(Path(__file__).resolve().parents[1] / "configs" / "bimetric.json").space


# Fiber vectors at (0.1, 0.2) of configs/bimetric.json whose |y| is within an ulp of EPS_SLIT,
# where numpy's norm over an axis and the norm of one row round apart: the first is on the
# slit by the norm of one row, the second off it
BELOW_EPS = (4.854268277352063e-10, -9.988211090826771e-09)
ABOVE_EPS = (5.1689748651051535e-09, 8.560473050241508e-09)


def _slit_rules_agree(space, y) -> bool:
    """Whether check_sample puts y on the slit at (0.1, 0.2), after checking that
    action_of_path over the velocities (1, 0) then y there reports a zero velocity
    exactly then, and evaluates y otherwise."""
    x = np.array([0.1, 0.2])
    try:
        space.check_sample(x, y)
    except SlitViolationError:
        with pytest.raises(ValueError, match=re.escape("zero-velocity segment at t=1.0")):
            action_of_path(space, [0.0, 1.0], [x, x], [[1.0, 0.0], y])
        return True
    assert action_of_path(space, [0.0, 1.0], [x, x], [[1.0, 0.0], y]).total > 0.0
    return False


class TestSlitRule:
    @pytest.mark.parametrize("y, on_slit", [(BELOW_EPS, True), (ABOVE_EPS, False)])
    def test_a_row_within_an_ulp_of_eps_is_decided_once(self, bimetric, y, on_slit):
        assert _slit_rules_agree(bimetric, y) == on_slit

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(y=st.builds(lambda theta, k: EPS_SLIT * (1.0 + k * 2.0 ** -52) * np.array([math.cos(theta), math.sin(theta)]),
                       st.floats(0.0, 2.0 * math.pi), st.integers(-4, 4)))
    @example(y=BELOW_EPS)
    @example(y=ABOVE_EPS)
    def test_check_sample_and_the_action_share_the_slit(self, bimetric, y):
        # |y| = EPS_SLIT (1 + k 2^-52), where the rounding of |y| decides the slit
        _slit_rules_agree(bimetric, y)


class TestExport:
    def test_csv_columns_roundtrip(self, bi_x, tmp_path):
        p = integrate_geodesic(bi_x, [0.1, 0.2], [1.0, 0.0], 0.1, 0.01)
        dest = tmp_path / "path.csv"
        path_to_csv(p, dest, ("x1", "x2"))
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,y1,y2,F"
        assert len(lines) == len(p.t) + 1
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(p.t[-1])
        assert last[1] == pytest.approx(p.x[-1, 0], rel=1e-16)
        assert last[5] == pytest.approx(p.F[-1], rel=1e-16)
