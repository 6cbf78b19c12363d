import numpy as np
import pytest

from multifinsler.finsler import SlitViolationError, TangentSample
from multifinsler.geodesic import (
    GeodesicPath,
    action_of_path,
    integrate_geodesic,
    path_to_csv,
)

from conftest import const_field, field, space_of


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

    def test_invalid_step(self, bi_const):
        with pytest.raises(ValueError):
            integrate_geodesic(bi_const, [0.0, 0.0], [1.0, 0.0], 1.0, -0.1)


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
