import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multifinsler.finsler as finsler_mod
from multifinsler.finsler import (
    MultiMetricSpace,
    SlitViolationError,
    TangentSample,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    riemannian_detect,
)
from multifinsler.riemann import NotPositiveDefiniteError

from conftest import count_calls, count_spd_validations, const_field, field, random_bimetric_space, random_samples, space_of


class TestNorm:
    def test_single_identity_metric(self, euclid):
        f, per = finsler_norm(euclid, TangentSample([0.0, 0.0], [3.0, 4.0]))
        assert f == pytest.approx(5.0)
        assert per[0] == pytest.approx(5.0)

    def test_bimetric_split(self, bi_const):
        f, per = finsler_norm(bi_const, TangentSample([0.0, 0.0], [1.0, 0.0]))
        assert per[0] == pytest.approx(1.0)
        assert per[1] == pytest.approx(2.0)
        assert f == pytest.approx(3.0)

    def test_homogeneity_exact(self, bi_x):
        s = TangentSample([0.4, -0.1], [0.6, 0.8])
        f1, _ = finsler_norm(bi_x, s)
        f2, _ = finsler_norm(bi_x, TangentSample(s.x, 2.0 * s.y))
        assert f2 == pytest.approx(2.0 * f1, rel=1e-15)

    def test_slit_violation(self, bi_const):
        with pytest.raises(SlitViolationError):
            finsler_norm(bi_const, TangentSample([0.0, 0.0], [0.0, 1e-12]))


class TestFundamentalTensor:
    def test_single_identity(self, euclid):
        st = finsler_state(euclid, TangentSample([0.2, 0.1], [0.7, -0.7]))
        assert np.max(np.abs(st.g - np.eye(2))) < 1e-14

    def test_proportional_pair_scales(self):
        # (alpha, 4 alpha): F = 3 F_alpha, so g = 9 alpha
        sp = space_of(const_field("a", np.eye(2)), const_field("b", 4.0 * np.eye(2)))
        s = TangentSample([0.0, 0.0], [0.3, 0.9])
        st = finsler_state(sp, s)
        assert np.max(np.abs(st.g - 9.0 * np.eye(2))) < 1e-12
        gh = fd_fundamental_tensor(sp, s.x, s.y)
        assert np.max(np.abs(gh - 9.0 * np.eye(2))) < 1e-8

    def test_assembled_matches_hessian_oracle(self, bi_const):
        s = TangentSample([0.0, 0.0], [1.0, 1.0])
        st = finsler_state(bi_const, s)
        gh = fd_fundamental_tensor(bi_const, s.x, s.y)
        assert np.max(np.abs(st.g - gh)) / np.max(np.abs(st.g)) < 1e-6

    def test_oracle_bulk_random(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(25):
            sp = random_bimetric_space(rng)
            for s in random_samples(rng, 4):
                st = finsler_state(sp, s)
                gh = fd_fundamental_tensor(sp, s.x, s.y)
                worst = max(worst, np.max(np.abs(st.g - gh)) / np.max(np.abs(st.g)))
        assert worst < 1e-6

    def test_norm_from_metric(self, bi_x):
        s = TangentSample([0.5, -0.3], [0.8, 0.6])
        st = finsler_state(bi_x, s)
        assert st.F**2 == pytest.approx(float(s.y @ st.g @ s.y), rel=1e-12)

    def test_adm_split(self, bi_x):
        s = TangentSample([0.5, -0.3], [0.8, 0.6])
        st = finsler_state(bi_x, s)
        assert np.max(np.abs(st.g - np.outer(st.l, st.l) - st.h)) < 1e-14
        assert np.max(np.abs(st.h @ s.y)) < 1e-14
        assert st.l @ st.l_up == pytest.approx(1.0, abs=1e-14)

    def test_zero_homogeneity_of_g(self, bi_x):
        s = TangentSample([0.2, 0.1], [0.9, -0.4])
        g1 = finsler_state(bi_x, s).g
        for lam in (0.5, 2.0):
            g2 = finsler_state(bi_x, TangentSample(s.x, lam * s.y)).g
            assert np.max(np.abs(g1 - g2)) / np.max(np.abs(g1)) < 1e-10


class TestCartanTensor:
    def test_single_metric_vanishes(self, sphere_space):
        c = finsler_state(sphere_space, TangentSample([0.3, 0.1], [0.6, -0.8])).C
        assert np.max(np.abs(c)) < 1e-12

    def test_full_symmetry_and_trace(self, bi_x):
        s = TangentSample([0.4, 0.2], [0.8, 0.6])
        c = finsler_state(bi_x, s).C
        assert np.max(np.abs(c - c.transpose(1, 0, 2))) < 1e-14
        assert np.max(np.abs(c - c.transpose(0, 2, 1))) < 1e-14
        assert np.max(np.abs(np.einsum("ijk,k->ij", c, s.y))) < 1e-10

    def test_euler_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sp = random_bimetric_space(rng)
            for s in random_samples(rng, 5):
                c = finsler_state(sp, s).C
                assert np.max(np.abs(np.einsum("ijk,k->ij", c, s.y))) < 1e-10

    def test_inverse_homogeneity(self, bi_x):
        s = TangentSample([0.2, 0.1], [0.9, -0.4])
        c1 = finsler_state(bi_x, s).C
        for lam in (0.5, 2.0):
            c2 = finsler_state(bi_x, TangentSample(s.x, lam * s.y)).C
            assert np.max(np.abs(c2 - c1 / lam)) / np.max(np.abs(c1)) < 1e-10


def _eager_cartan(st) -> np.ndarray:
    """The Cartan tensor as finsler_state built it eagerly, with einsum outer products."""
    def sym3(v, H):
        return np.einsum("i,jk->ijk", v, H) + np.einsum("j,ik->ijk", v, H) + np.einsum("k,ij->ijk", v, H)

    n = len(st.l)
    C = np.zeros((n, n, n))
    for k in range(len(st.F_mu)):
        C += sym3(st.l, st.h_mu[k]) / st.F_mu[k]
        C -= (st.F / st.F_mu[k] ** 2) * sym3(st.l_mu[k], st.h_mu[k])
    C *= 0.5
    return C


class TestPointwiseEvaluation:
    """Each base point is validated once, and C and g_inv are built only when read."""

    def test_metric_values_validates_a_repeated_point_once(self, monkeypatch):
        sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
        calls = count_spd_validations(monkeypatch)
        x = np.array([0.3, -0.5])
        first = sp.metric_values(x)
        assert calls[0] == 2
        again = sp.metric_values([0.3, -0.5])
        assert calls[0] == 2
        for a, b in zip(first, again):
            assert a is b
        # one ulp away is another point, evaluated and validated again
        sp.metric_values(np.array([np.nextafter(0.3, 1.0), -0.5]))
        assert calls[0] == 4

    def test_spd_failure_raises_on_every_call(self, monkeypatch):
        sp = space_of(field("alpha", [["1-x1^2", "0"], ["0", "1"]]))
        calls = count_spd_validations(monkeypatch)
        good, bad = np.array([0.1, 0.0]), np.array([2.0, 0.0])
        sp.metric_values(good)
        for expected in (2, 3, 4):
            with pytest.raises(NotPositiveDefiniteError):
                sp.metric_values(bad)
            assert calls[0] == expected
        # the failing point did not displace the remembered one
        sp.metric_values(good)
        assert calls[0] == 4

    def test_metric_values_are_read_only(self, bi_x):
        for arr in bi_x.metric_values(np.array([0.2, 0.4])):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_cartan_tensor_is_built_only_when_read(self, monkeypatch, tri_space):
        calls = count_calls(monkeypatch, finsler_mod, "_sym3")
        st_ = finsler_state(tri_space, TangentSample([0.3, -0.5], [0.8, 0.6]))
        _ = st_.F, st_.g, st_.det_g, st_.g_inv, st_.h
        assert calls[0] == 0
        _ = st_.C
        assert calls[0] == 2 * tri_space.n_metrics
        _ = st_.C
        assert calls[0] == 2 * tri_space.n_metrics

    def test_lazy_tensors_equal_the_eager_formulas_bitwise(self, tri_space):
        rng = np.random.default_rng(41)
        for s in random_samples(rng, 10):
            st_ = finsler_state(tri_space, s)
            assert "C" not in vars(st_) and "g_inv" not in vars(st_)
            assert np.array_equal(st_.C, _eager_cartan(st_))
            assert np.array_equal(st_.g_inv, np.linalg.inv(st_.g))


class TestConvexity:
    @staticmethod
    def min_eigenvalues(space, x, grid):
        """Smallest eigenvalue of g at x in each direction of grid, from one batched state."""
        st_ = finsler_state(space, TangentSample(np.tile(x, (len(grid), 1)), grid))
        return np.linalg.eigvalsh(st_.g)[:, 0]

    def test_identity_metric(self, euclid):
        thetas = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        grid = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        mins = self.min_eigenvalues(euclid, [0.0, 0.0], grid)
        assert mins.min() > 0.0
        assert mins.min() == pytest.approx(1.0, abs=1e-12)

    def test_bimetric_positive_on_circle(self, bi_const):
        thetas = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        grid = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        mins = self.min_eigenvalues(bi_const, [0.0, 0.0], grid)
        assert mins.min() > 0.0
        assert np.linalg.norm(grid[np.argmin(mins)]) == pytest.approx(1.0)

    def test_sum_of_structures_random(self):
        rng = np.random.default_rng(31)
        thetas = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        grid = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        for _ in range(10):
            sp = random_bimetric_space(rng)
            assert self.min_eigenvalues(sp, rng.uniform(-1, 1, 2), grid).min() > 0.0


class TestRiemannianDetect:
    def test_constant_proportional(self):
        sp = space_of(const_field("a", np.eye(2)), const_field("b", 4.0 * np.eye(2)))
        v = riemannian_detect(sp, [[0.0, 0.0], [0.5, -0.5]])
        assert v.riemannian
        assert np.allclose(v.factors, [[1.0, 4.0], [1.0, 4.0]])
        assert np.allclose(v.effective_metric(sp, [0.0, 0.0]), 9.0 * np.eye(2))

    def test_non_proportional(self, bi_const):
        v = riemannian_detect(bi_const, [[0.0, 0.0]])
        assert not v.riemannian
        mu, i, j, x = v.counterexample
        assert mu == 1

    def test_x_dependent_factor(self, prop_space):
        pts = [[0.0, 0.0], [0.8, 0.1], [-0.4, 0.6]]
        v = riemannian_detect(prop_space, pts)
        assert v.riemannian
        for p, x in enumerate(pts):
            assert v.factors[p, 1] == pytest.approx(1.0 + x[0] ** 2, rel=1e-12)

    def test_riemannian_implies_cartan_vanishes(self, prop_space):
        rng = np.random.default_rng(8)
        assert riemannian_detect(prop_space, [s.x for s in random_samples(rng, 5)]).riemannian
        for s in random_samples(rng, 20):
            assert np.max(np.abs(finsler_state(prop_space, s).C)) <= 1e-10


@given(st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_norm_homogeneity_property(lam):
    sp = space_of(
        const_field("a", np.eye(2)),
        field("b", [["4", "0"], ["0", "1+x1^2"]]),
    )
    s = TangentSample([0.3, -0.2], [0.6, 0.8])
    f1, _ = finsler_norm(sp, s)
    f2, _ = finsler_norm(sp, TangentSample(s.x, lam * s.y))
    assert f2 == pytest.approx(lam * f1, rel=1e-12)
