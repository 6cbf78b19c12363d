import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multifinsler.finsler as finsler_mod
from multifinsler.config import load_config
from multifinsler.expr import EvalDomainError
from multifinsler.finsler import (
    MultiMetricSpace,
    NonFiniteSampleError,
    SlitViolationError,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    riemannian_detect,
    row_norm,
    rows_or_first_error,
    sector_norms,
)
from multifinsler.riemann import SPD_EIG_RATIO, NotPositiveDefiniteError

from conftest import (count_calls, count_spd_validations, const_field, field, fmt, random_bimetric_space,
                      random_samples, record_evaluations, space_of)

REPO = Path(__file__).resolve().parents[1]


class TestNorm:
    def test_single_identity_metric(self, euclid):
        f, per = finsler_norm(euclid, [0.0, 0.0], [3.0, 4.0])
        assert f == pytest.approx(5.0)
        assert per[0] == pytest.approx(5.0)

    def test_bimetric_split(self, bi_const):
        f, per = finsler_norm(bi_const, [0.0, 0.0], [1.0, 0.0])
        assert per[0] == pytest.approx(1.0)
        assert per[1] == pytest.approx(2.0)
        assert f == pytest.approx(3.0)

    def test_homogeneity_exact(self, bi_x):
        x, y = np.array([0.4, -0.1]), np.array([0.6, 0.8])
        f1, _ = finsler_norm(bi_x, x, y)
        f2, _ = finsler_norm(bi_x, x, 2.0 * y)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-15)

    def test_slit_violation(self, bi_const):
        with pytest.raises(SlitViolationError):
            finsler_norm(bi_const, [0.0, 0.0], [0.0, 1e-12])

    @pytest.mark.parametrize("y", [[1e-8, 0.0], [0.0, -1e-8], [7.5e-9, 7.5e-9], [6e-9, -6e-9],
                                   [np.nextafter(1e-8, 0.0), 0.0], [1e-300, 0.0]])
    def test_the_slit_is_where_the_norm_is_below_eps(self, bi_const, y):
        # the test by components decides a row with a component at EPS_SLIT or above; the
        # others, here [7.5e-9, 7.5e-9] with its norm 1.06e-8, are decided by the norm
        on_slit = np.linalg.norm(y) < finsler_mod.EPS_SLIT
        for x_b, y_b in (([0.0, 0.0], y), (np.zeros((3, 2)), [[0.6, 0.8], y, [1.0, 0.0]])):
            if on_slit:
                with pytest.raises(SlitViolationError, match=re.escape(f"|y| = {np.linalg.norm(y):.3e} below")):
                    bi_const.check_sample(x_b, y_b)
            else:
                assert np.array_equal(bi_const.check_sample(x_b, y_b)[1], y_b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_row_norm_gives_each_row_of_a_batch_its_bits_alone(self, n):
        # numpy's norm over an axis rounds about one row in twelve apart from the norm of
        # that row alone; row_norm does not
        v = np.random.default_rng(n).normal(size=(500, n))
        alone = np.array([np.linalg.norm(row) for row in v])
        assert row_norm(v).tobytes() == alone.tobytes()
        assert row_norm(v.reshape(5, 100, n)).tobytes() == alone.tobytes()
        assert not np.array_equal(np.linalg.norm(v, axis=-1), alone)

    def test_first_slit_row_of_a_batch_raises_its_own_message(self, bi_const):
        x = np.zeros((4, 2))
        y = np.array([[1.0, 0.0], [0.6, 0.8], [3e-9, 4e-9], [0.0, 1e-12]])
        with pytest.raises(SlitViolationError) as alone:
            bi_const.check_sample(x[2], y[2])
        with pytest.raises(SlitViolationError) as batch:
            bi_const.check_sample(x, y)
        assert str(batch.value) == str(alone.value) == "|y| = 5.000e-09 below slit tolerance 1.000e-08"

    @pytest.mark.parametrize("x, y, message", [
        ([0.1, 0.1], [np.inf, 1.0], "y = [inf, 1.0] is not finite"),
        ([0.1, 0.1], [np.nan, 1.0], "y = [nan, 1.0] is not finite"),
        ([np.nan, 0.1], [1.0, 1.0], "x = [nan, 0.1] is not finite"),
        ([0.1, -np.inf], [np.inf, 1.0], "x = [0.1, -inf] is not finite"),
    ])
    def test_non_finite_sample_is_rejected(self, bi_x, x, y, message):
        for fn in (finsler_state, finsler_norm):
            with pytest.raises(NonFiniteSampleError) as alone:
                fn(bi_x, x, y)
            assert str(alone.value) == message
        # in a batch, the first non-finite row raises
        xs, ys = np.array([[0.2, 0.3], x, x]), np.array([[0.6, 0.8], y, [np.nan, np.nan]])
        with pytest.raises(NonFiniteSampleError) as batch:
            bi_x.check_sample(xs, ys)
        assert str(batch.value) == message

    def test_overflowing_quadratic_form_is_rejected(self, bi_x):
        # y is finite, but y' a_mu y overflows
        with pytest.raises(NonFiniteSampleError) as alone:
            finsler_state(bi_x, [0.1, 0.1], [1e200, 1.0])
        assert str(alone.value) == "quadratic form y' a_mu y = [inf, inf] is not finite"
        # in a batch, the first overflowing row raises: here only beta's form overflows
        a_mu = bi_x.metric_values(np.array([[0.1, 0.1]] * 3))[0]
        y = np.array([[0.6, 0.8], [1.0, 1.34e154], [1e200, 1.0]])
        with pytest.raises(NonFiniteSampleError) as row:
            sector_norms(a_mu[1], y[1])
        with pytest.raises(NonFiniteSampleError) as batch:
            sector_norms(a_mu, y)
        assert str(batch.value) == str(row.value) != str(alone.value)
        assert str(row.value).endswith(", inf] is not finite")

    @pytest.mark.parametrize("name, message", [
        ("single", "quadratic form y' a_mu y = [inf] is not finite"),
        ("bimetric", "quadratic form y' a_mu y = [inf, inf] is not finite"),
    ])
    def test_overflowing_fiber_vector_is_rejected_without_a_warning(self, name, message):
        # the slit norm, and on single the one-sector product, overflow before the form is rejected
        space = load_config(REPO / "configs" / f"{name}.json").space
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for fn in (finsler_state, finsler_norm):
                with pytest.raises(NonFiniteSampleError, match=re.escape(message)):
                    fn(space, [0.1, 0.1], [1e200, 1.0])
        assert caught == []

    def test_overflowing_power_is_a_sample_error(self):
        with pytest.raises(NonFiniteSampleError, match=re.escape("power 3e+103 ** 4 is not finite")):
            finsler_mod._power(3e103, 4)
        # of an array, the first value that overflows is named
        with pytest.raises(NonFiniteSampleError, match=re.escape("power -4e+103 ** 3 is not finite")):
            finsler_mod._power(np.array([[1.0, -4e103], [3e103, 2.0]]), 3)
        assert finsler_mod._power(np.array([1.5, -2.0]), 3).tolist() == [1.5 ** 3, -8.0]


    def test_overflowing_component_is_the_row_error(self):
        # x1^400 overflows at x1 = 100: evaluated on Python floats, that is an
        # EvalDomainError of that row, with no numpy warning
        space = space_of(field("steep", [["1+x1^400", "0"], ["0", "1"]]))
        x, y = np.array([[0.5, 0.0], [100.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EvalDomainError) as alone:
            finsler_state(space, x[1], y[1])
        assert str(alone.value) == "overflow in 'x1^400.0'"
        with pytest.raises(EvalDomainError) as batch:
            rows_or_first_error(lambda xs, ys: finsler_state(space, xs, ys).F, x, y)
        assert str(batch.value) == str(alone.value)


class TestFundamentalTensor:
    def test_single_identity(self, euclid):
        st = finsler_state(euclid, [0.2, 0.1], [0.7, -0.7])
        assert np.max(np.abs(st.g - np.eye(2))) < 1e-14

    def test_proportional_pair_scales(self):
        # (alpha, 4 alpha): F = 3 F_alpha, so g = 9 alpha
        sp = space_of(const_field("a", np.eye(2)), const_field("b", 4.0 * np.eye(2)))
        x, y = np.array([0.0, 0.0]), np.array([0.3, 0.9])
        st = finsler_state(sp, x, y)
        assert np.max(np.abs(st.g - 9.0 * np.eye(2))) < 1e-12
        gh = fd_fundamental_tensor(sp, x, y)
        assert np.max(np.abs(gh - 9.0 * np.eye(2))) < 1e-8

    def test_assembled_matches_hessian_oracle(self, bi_const):
        x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        st = finsler_state(bi_const, x, y)
        gh = fd_fundamental_tensor(bi_const, x, y)
        assert np.max(np.abs(st.g - gh)) / np.max(np.abs(st.g)) < 1e-6

    def test_oracle_bulk_random(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(25):
            sp = random_bimetric_space(rng)
            for x, y in random_samples(rng, 4):
                st = finsler_state(sp, x, y)
                gh = fd_fundamental_tensor(sp, x, y)
                worst = max(worst, np.max(np.abs(st.g - gh)) / np.max(np.abs(st.g)))
        assert worst < 1e-6

    def test_norm_from_metric(self, bi_x):
        x, y = np.array([0.5, -0.3]), np.array([0.8, 0.6])
        st = finsler_state(bi_x, x, y)
        assert st.F**2 == pytest.approx(float(y @ st.g @ y), rel=1e-12)

    def test_adm_split(self, bi_x):
        x, y = np.array([0.5, -0.3]), np.array([0.8, 0.6])
        st = finsler_state(bi_x, x, y)
        assert np.max(np.abs(st.g - np.outer(st.l, st.l) - st.h)) < 1e-14
        assert np.max(np.abs(st.h @ y)) < 1e-14
        assert st.l @ st.l_up == pytest.approx(1.0, abs=1e-14)

    def test_zero_homogeneity_of_g(self, bi_x):
        x, y = np.array([0.2, 0.1]), np.array([0.9, -0.4])
        g1 = finsler_state(bi_x, x, y).g
        for lam in (0.5, 2.0):
            g2 = finsler_state(bi_x, x, lam * y).g
            assert np.max(np.abs(g1 - g2)) / np.max(np.abs(g1)) < 1e-10


class TestCartanTensor:
    def test_single_metric_vanishes(self, sphere_space):
        c = finsler_state(sphere_space, [0.3, 0.1], [0.6, -0.8]).C
        assert np.max(np.abs(c)) < 1e-12

    def test_full_symmetry_and_trace(self, bi_x):
        x, y = np.array([0.4, 0.2]), np.array([0.8, 0.6])
        c = finsler_state(bi_x, x, y).C
        assert np.max(np.abs(c - c.transpose(1, 0, 2))) < 1e-14
        assert np.max(np.abs(c - c.transpose(0, 2, 1))) < 1e-14
        assert np.max(np.abs(np.einsum("ijk,k->ij", c, y))) < 1e-10

    def test_euler_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sp = random_bimetric_space(rng)
            for x, y in random_samples(rng, 5):
                c = finsler_state(sp, x, y).C
                assert np.max(np.abs(np.einsum("ijk,k->ij", c, y))) < 1e-10

    def test_inverse_homogeneity(self, bi_x):
        x, y = np.array([0.2, 0.1]), np.array([0.9, -0.4])
        c1 = finsler_state(bi_x, x, y).C
        for lam in (0.5, 2.0):
            c2 = finsler_state(bi_x, x, lam * y).C
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

    def test_a_batch_evaluates_each_distinct_point_once(self, monkeypatch):
        sp = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x2"]]))
        evaluations = record_evaluations(monkeypatch)
        spd = count_spd_validations(monkeypatch)
        a, b = [0.1, 0.2], [-0.3, 0.4]
        # 0.0 and -0.0 are different bits, so two points
        x = np.array([a, b, a, a, [0.0, 0.5], b, [-0.0, 0.5]])
        batched, dA = sp.metric_values(x), sp.metric_derivatives(x, 1)
        assert [len(evaluations[m.name, order]) for order in (0, 1) for m in sp.metrics] == [4] * 4
        assert spd[0] == 4 * sp.n_metrics
        for r, xr in enumerate(x):
            for arr, single in zip(batched, sp.metric_values(xr.copy())):
                assert np.array_equal(arr[r], single)
            assert np.array_equal(dA[r], sp.metric_derivatives(xr, 1))

    def test_a_tiled_point_is_evaluated_once(self, monkeypatch):
        # the measure oracles stack one x over 21, 42 and 441 fiber vectors
        sp = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x2"]]))
        x = np.array([0.3, -0.5])
        single = space_of(*sp.metrics).metric_values(x)
        evaluations = record_evaluations(monkeypatch)
        spd = count_spd_validations(monkeypatch)
        tiles = [sp.metric_values(np.tile(x, (rows, 1))) for rows in (21, 42, 441)]
        assert sum(map(len, evaluations.values())) == sp.n_metrics and spd[0] == sp.n_metrics
        for rows, tiled in zip((21, 42, 441), tiles):
            for arr, one in zip(tiled, single):
                assert arr.shape == (rows,) + one.shape and not arr.flags.writeable
                assert all(np.array_equal(row, one) for row in arr)
        # the point alone, and a tile whose last row is one ulp away, which is evaluated again
        for arr, one in zip(sp.metric_values(x.copy()), single):
            assert np.array_equal(arr, one)
        assert sum(map(len, evaluations.values())) == sp.n_metrics
        sp.metric_values(np.vstack([np.tile(x, (20, 1)), [[0.3, np.nextafter(-0.5, 0.0)]]]))
        assert sum(map(len, evaluations.values())) == 3 * sp.n_metrics

    def test_a_tile_of_the_remembered_point_is_recognised_without_a_walk(self):
        # the measure oracles tile one x over 21, 42 and 441 fiber vectors; a tile of the one
        # point the memo holds comes back as the memo's own points, found by one comparison
        sp = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x2"]]))
        x = np.array([0.0, -0.5])
        single = sp.metric_values(x)
        known = sp._memos[0][4]
        for rows in (2, 21, 441):
            points, spread = finsler_mod._distinct_points(np.tile(x, (rows, 1)), known)
            assert points is known
            assert np.array_equal(spread(single[0][None]), np.tile(single[0], (rows, 1, 1, 1)))
        # one ulp off, or -0.0 for 0.0, is another point, found by the walk
        for near in ([0.0, np.nextafter(-0.5, 0.0)], [-0.0, -0.5]):
            points, spread = finsler_mod._distinct_points(np.vstack([np.tile(x, (20, 1)), [near]]), known)
            assert points is not known and points.tobytes() == np.array([x, near]).tobytes()
            assert spread(np.arange(2.0)).tolist() == [0.0] * 20 + [1.0]

    def test_a_batch_with_the_same_distinct_points_is_spread_from_the_memo(self, monkeypatch):
        # the FD stencils of the oracles repeat the rows of the x before them
        sp = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x2"]]))
        x = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])
        first = sp.metric_values(x)
        evaluations = record_evaluations(monkeypatch)
        spd = count_spd_validations(monkeypatch)
        repeated = sp.metric_values(np.repeat(x, 4, axis=0))
        assert not evaluations and spd[0] == 0
        for arr, one in zip(repeated, first):
            assert np.array_equal(arr, np.repeat(one, 4, axis=0)) and not arr.flags.writeable

    def test_a_failing_point_is_not_stored(self, monkeypatch):
        sp = space_of(field("alpha", [["1-x1^2", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "log(x2)"]]))
        good = np.array([[0.1, 2.0], [0.2, 3.0]])
        first = sp.metric_values(good)
        evaluations = record_evaluations(monkeypatch)
        spd = count_spd_validations(monkeypatch)
        for bad in ([[0.1, 2.0], [2.0, 2.0]], [[0.1, 2.0], [0.2, -1.0]]):
            with pytest.raises((NotPositiveDefiniteError, EvalDomainError)):
                sp.metric_values(np.array(bad))
        done = sum(map(len, evaluations.values())), spd[0]
        again, tiled = sp.metric_values(good.copy()), sp.metric_values(np.tile(good, (3, 1)))
        assert (sum(map(len, evaluations.values())), spd[0]) == done
        assert all(a is b for a, b in zip(again, first))
        for arr, one in zip(tiled, first):
            assert np.array_equal(arr, np.tile(one, (3,) + (1,) * (one.ndim - 1)))

    def test_derivatives_at_the_same_distinct_points_are_spread_from_the_memo(self, monkeypatch):
        sp = space_of(field("alpha", [["2+x1^2", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x1*x2"]]))
        x = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])
        first = sp.metric_derivatives(x, 1)
        evaluations = record_evaluations(monkeypatch)
        repeated = sp.metric_derivatives(np.repeat(x, 4, axis=0), 1)
        assert not evaluations
        assert np.array_equal(repeated, np.repeat(first, 4, axis=0)) and not repeated.flags.writeable

    @pytest.mark.parametrize("order", [1, 2])
    def test_an_exact_repeat_returns_the_same_read_only_derivatives(self, monkeypatch, order):
        sp = space_of(field("alpha", [["2+x1^2", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x1*x2"]]))
        first = sp.metric_derivatives(np.array([0.3, -0.5]), order)
        evaluations = record_evaluations(monkeypatch)
        again = sp.metric_derivatives([0.3, -0.5], order)
        assert again is first and not evaluations
        with pytest.raises(ValueError):
            again[...] = 0.0

    def test_a_derivative_that_fails_is_not_stored(self, monkeypatch):
        # sqrt(x2) evaluates at x2 = 0, but its x2-derivative 1 / (2 sqrt(x2)) does not
        sp = space_of(field("alpha", [["2+sqrt(x2)", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3"]]))
        good, bad = np.array([[0.1, 0.5], [0.2, 1.0]]), np.array([[0.1, 0.5], [0.2, 0.0]])
        first = sp.metric_derivatives(good, 1)
        sp.metric_values(bad)
        with pytest.raises(EvalDomainError):
            sp.metric_derivatives(bad, 1)
        evaluations = record_evaluations(monkeypatch)
        assert sp.metric_derivatives(good.copy(), 1) is first
        assert np.array_equal(sp.metric_derivatives(np.tile(good, (3, 1)), 1), np.tile(first, (3, 1, 1, 1, 1)))
        assert not evaluations

    @pytest.mark.parametrize("point", [[0.3], [0.3, -0.5, 0.1]])
    def test_a_point_of_the_wrong_length_is_rejected(self, point):
        # the generated tables alone would raise DimensionMismatchError for the short point
        # and ignore the third coordinate of the long one
        sp = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]), field("beta", [["1", "0"], ["0", "3+x2"]]))
        message = f"metric 'alpha': point of length {len(point)}, expected 2"
        for call in (sp.metric_values, lambda x: sp.metric_derivatives(x, 1), lambda x: sp.metric_derivatives(x, 2)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(np.array([point, point]))

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
        st_ = finsler_state(tri_space, [0.3, -0.5], [0.8, 0.6])
        _ = st_.F, st_.g, st_.det_g, st_.g_inv, st_.h
        assert calls[0] == 0
        _ = st_.C
        assert calls[0] == 2 * tri_space.n_metrics
        _ = st_.C
        assert calls[0] == 2 * tri_space.n_metrics

    def test_lazy_tensors_equal_the_eager_formulas_bitwise(self, tri_space):
        rng = np.random.default_rng(41)
        for x, y in random_samples(rng, 10):
            st_ = finsler_state(tri_space, x, y)
            assert "C" not in vars(st_) and "g_inv" not in vars(st_)
            assert np.array_equal(st_.C, _eager_cartan(st_))
            assert np.array_equal(st_.g_inv, np.linalg.inv(st_.g))


class TestConvexity:
    @staticmethod
    def min_eigenvalues(space, x, grid):
        """Smallest eigenvalue of g at x in each direction of grid, from one batched state."""
        st_ = finsler_state(space, np.tile(x, (len(grid), 1)), grid)
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


def symmetric_spd(theta: float, ratio: float) -> np.ndarray:
    """The rotation by theta of diag(1, ratio), exactly symmetric."""
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([[c, -s], [s, c]]) @ np.diag([1.0, ratio]) @ np.array([[c, s], [-s, c]])
    return 0.5 * (m + m.T)


@st.composite
def near_degenerate_samples(draw):
    """A space of 1 to 4 sectors at the edges of the SPD region, each scaled by e^(+-20)
    and by 1 + x1^2, and a batch of fiber vectors of length e^(+-10) at a point x whose
    coordinates range from 1e-6 to 1e3 in size: either a near-proportional pencil
    s_k (a + eps_k b), or sectors whose eigenvalue ratio is within 100x of SPD_EIG_RATIO."""
    angle = st.floats(0.0, 2.0 * math.pi)
    count = draw(st.integers(1, 4))
    scales = [math.exp(draw(st.floats(-20.0, 20.0))) for _ in range(count)]
    if draw(st.booleans()):
        base = symmetric_spd(draw(angle), 10.0 ** draw(st.floats(-9.5, 0.0)))
        mats = [s * (base + draw(st.sampled_from([0.0, 1e-13, 1e-9])) * symmetric_spd(draw(angle), 0.5))
                for s in scales]
    else:
        mats = [s * symmetric_spd(draw(angle), SPD_EIG_RATIO * 10.0 ** draw(st.floats(0.3, 2.0)))
                for s in scales]
    fields = [field(f"m{k}", [[f"{fmt(m[i, j])}*(1 + x1^2)" for j in range(2)] for i in range(2)])
              for k, m in enumerate(mats)]
    x = [draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 3.0)) for _ in range(2)]
    thetas = draw(st.lists(angle, min_size=1, max_size=4))
    radius = math.exp(draw(st.floats(-10.0, 10.0)))
    y = radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return space_of(*fields), np.tile(x, (len(y), 1)), y


@given(near_degenerate_samples())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fundamental_tensor_is_positive_definite_near_degenerate_inputs(sample):
    # g = l l + sum_mu (F / F_mu) h_mu is positive definite wherever every a_mu is SPD, so
    # finsler_state does not test it; this holds it to that at the edges of the SPD region
    space, x, y = sample
    assert (np.linalg.eigvalsh(finsler_state(space, x, y).g) > 0.0).all()


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

    @pytest.mark.parametrize("n_metrics", [1, 2, 3])
    def test_each_metric_is_evaluated_once_per_point(self, monkeypatch, n_metrics):
        sp = space_of(*[field(f"m{k}", [[f"{k + 1}*(1+x1^2)", "0"], ["0", f"{k + 1}*(1+x1^2)"]])
                        for k in range(n_metrics)])
        evaluations = record_evaluations(monkeypatch)
        v = riemannian_detect(sp, [[0.0, 0.0], [0.8, 0.1], [-0.4, 0.6]])
        assert v.riemannian and sum(map(len, evaluations.values())) == 3 * n_metrics
        evaluations.clear()
        v.effective_metric(sp, [0.2, 0.3])
        assert sum(map(len, evaluations.values())) == n_metrics

    def test_a_metric_that_is_not_spd_raises(self):
        # at x1 = -1 the second metric x1 I = -I is pointwise proportional to the first, but
        # not positive definite
        sp = space_of(const_field("a", np.eye(2)), field("b", [["x1", "0"], ["0", "x1"]]))
        with pytest.raises(NotPositiveDefiniteError):
            riemannian_detect(sp, [[-1.0, 0.0]])
        verdict = riemannian_detect(sp, [[1.0, 0.0]])
        assert verdict.riemannian
        with pytest.raises(NotPositiveDefiniteError):
            verdict.effective_metric(sp, [-1.0, 0.0])

    def test_the_misfit_is_the_largest_over_all_points(self):
        # b = (1 + x1) a in its (1, 1) entry: the misfit is |x1| / (2 + |x1|) at each point,
        # and the first point already fails
        sp = space_of(const_field("a", np.eye(2)), field("b", [["1", "0"], ["0", "1+x1"]]))
        verdict = riemannian_detect(sp, [[0.1, 0.0], [0.0, 0.5], [0.5, 0.0]])
        assert not verdict.riemannian and verdict.counterexample[:3] == (1, 1, 1)
        assert verdict.counterexample[3].tolist() == [0.1, 0.0]
        assert verdict.misfit == pytest.approx(0.5 / 2.5, rel=1e-14)
        assert riemannian_detect(sp, [[0.0, 0.3]]).misfit == 0.0

    @staticmethod
    def point_by_point(space, sample_points):
        """The verdict as a loop over the points and sectors finds it: the first failing
        pivot raises, the first point, then sector, that exceeds the tolerance is the
        counterexample at the argmax component, and the misfit is a running max()."""
        pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
        factors = np.empty((len(pts), space.n_metrics))
        misfit, counterexample = 0.0, None
        for p, (x, a) in enumerate(zip(pts, space.metric_values(pts)[0])):
            piv = np.unravel_index(np.argmax(np.abs(a[0])), a.shape[1:])
            if abs(a[(0, *piv)]) < finsler_mod.PIVOT_FLOOR:
                raise NotPositiveDefiniteError(f"first metric vanishes at x={x.tolist()}")
            factors[p] = phi = a[(slice(None), *piv)] / a[(0, *piv)]
            for k in range(space.n_metrics):
                scale = np.max(np.abs(a[k])) + np.max(np.abs(a[0]))
                resid = np.abs(a[k] - phi[k] * a[0])
                misfit = max(misfit, float(np.max(resid) / scale))
                if counterexample is None and np.any(resid > finsler_mod.PROPORTIONALITY_RTOL * scale):
                    i, j = np.unravel_index(np.argmax(resid), resid.shape)
                    counterexample = (k, int(i), int(j), x)
        riemannian = counterexample is None
        return riemannian, (factors if riemannian else None), counterexample, misfit

    @pytest.mark.parametrize("points", [
        # proportional at the first two points (x2 = 0); gamma fails first at the third
        [[0.1, 0.0], [-0.6, 0.0], [0.2, 0.4], [0.3, -0.5], [0.7, 0.0]],
        # proportional everywhere sampled
        [[0.1, 0.0], [-0.6, 0.0], [0.7, 0.0]],
    ])
    def test_the_verdict_is_the_point_by_point_loop_s(self, points):
        sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["1+x1^2", "0"], ["0", "1+x1^2"]]),
                      field("gamma", [["2-x1", "0.3*x2"], ["0.3*x2", "2-x1+x2^2"]]))
        verdict = riemannian_detect(sp, points)
        riemannian, factors, counterexample, misfit = self.point_by_point(sp, points)
        assert verdict.riemannian == riemannian == (len(points) == 3)
        assert np.float64(verdict.misfit).tobytes() == np.float64(misfit).tobytes()
        if riemannian:
            assert verdict.factors.tobytes() == factors.tobytes() and verdict.counterexample is None
        else:
            assert verdict.factors is None
            assert verdict.counterexample[:3] == counterexample[:3] == (2, 1, 1)
            assert verdict.counterexample[3].tolist() == counterexample[3].tolist() == points[2]
            assert all(type(v) is int for v in verdict.counterexample[:3])

    def test_the_first_vanishing_pivot_raises_as_the_loop_s(self):
        sp = space_of(field("alpha", [["x1^2", "0"], ["0", "x1^2"]]), const_field("beta", np.eye(2)))
        # the pivot check is ahead of SPD only where a_1 is SPD but tiny: 1e-13 I passes the ratio
        points = [[1.0, 0.0], [3e-7, 0.0], [2e-7, 0.0]]
        with pytest.raises(NotPositiveDefiniteError) as loop:
            self.point_by_point(sp, points)
        with pytest.raises(NotPositiveDefiniteError) as batch:
            riemannian_detect(sp, points)
        assert str(batch.value) == str(loop.value) == "first metric vanishes at x=[3e-07, 0.0]"

    def test_riemannian_implies_cartan_vanishes(self, prop_space):
        rng = np.random.default_rng(8)
        assert riemannian_detect(prop_space, [x for x, _ in random_samples(rng, 5)]).riemannian
        for x, y in random_samples(rng, 20):
            assert np.max(np.abs(finsler_state(prop_space, x, y).C)) <= 1e-10


@given(st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_norm_homogeneity_property(lam):
    sp = space_of(
        const_field("a", np.eye(2)),
        field("b", [["4", "0"], ["0", "1+x1^2"]]),
    )
    x, y = np.array([0.3, -0.2]), np.array([0.6, 0.8])
    f1, _ = finsler_norm(sp, x, y)
    f2, _ = finsler_norm(sp, x, lam * y)
    assert f2 == pytest.approx(lam * f1, rel=1e-12)
