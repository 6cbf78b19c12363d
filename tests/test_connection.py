import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import multifinsler.finsler as finsler
from multifinsler.config import load_config
from multifinsler.connection import (
    FD_STEP,
    MIXED_FD_STEP,
    cartan_y_derivative,
    central_difference,
    chern_connection,
    connection_state,
    fd_step,
    horizontal_compatibility_residual,
    landsberg_berwald,
    nonlinear_connection_fd,
    variational_spray,
    x_derivatives,
)
from multifinsler.finsler import NonFiniteSampleError, fd_fundamental_tensor, finsler_norm, finsler_state
from multifinsler.geodesic import integrate_geodesic
from multifinsler.riemann import NotPositiveDefiniteError, christoffels_and_spray

from conftest import (count_calls, count_spd_validations, const_field, field, random_bimetric_space, random_samples,
                      record_evaluations, space_of)

X, Y = np.array([0.3, -0.5]), np.array([0.8, 0.6])
S = (X, Y)


class TestSpray:
    def test_constant_metrics_vanish(self, bi_const):
        cs = connection_state(bi_const, *S)
        g, g_mu = cs.G, cs.G_mu
        assert np.max(np.abs(g)) < 1e-14
        assert np.max(np.abs(g_mu)) < 1e-14

    def test_single_metric_reduces_to_riemannian(self):
        f = field("polar", [["1", "0"], ["0", "x1^2"]])
        sp = space_of(f)
        x, y = np.array([2.0, 0.0]), np.array([0.0, 1.0])
        g = connection_state(sp, x, y).G
        _, g_r, _ = christoffels_and_spray(f, x, y)
        assert g[0] == pytest.approx(-2.0, abs=1e-12)
        assert np.max(np.abs(g - g_r)) < 1e-12

    def test_factorized_vs_variational_oracle(self, bi_x):
        g = connection_state(bi_x, *S).G
        gv = variational_spray(bi_x, *S)
        assert np.max(np.abs(g - gv)) / (1.0 + np.max(np.abs(g))) < 1e-6

    def test_oracle_bulk(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(10):
            sp = random_bimetric_space(rng)
            for x, y in random_samples(rng, 3):
                g = connection_state(sp, x, y).G
                gv = variational_spray(sp, x, y)
                worst = max(worst, np.max(np.abs(g - gv)) / (1.0 + np.max(np.abs(g))))
        assert worst < 1e-6

    def test_variational_oracle_takes_no_metric_derivative(self, monkeypatch, bi_x):
        # the oracle differences F^2 alone; it builds none of the route's sector data
        calls = count_calls(monkeypatch, finsler.MultiMetricSpace, "metric_derivatives")
        gv = variational_spray(bi_x, *S)
        assert calls[0] == 0
        assert isinstance(gv, np.ndarray) and gv.shape == (2,)

    def test_variational_oracle_evaluates_each_stencil_point_once(self, monkeypatch):
        # the F^2 stencil holds 4 distinct x, x +- h e_k, of its 20 points in 2D; with the
        # 2 values that validate the centre, 10 value calls for a bimetric sample, not 42
        sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
        evaluations = record_evaluations(monkeypatch)
        variational_spray(sp, *S)
        assert sum(map(len, evaluations.values())) == 10

    def test_two_homogeneity(self, bi_x):
        g1 = connection_state(bi_x, *S).G
        for lam in (0.5, 2.0, 3.0):
            g2 = connection_state(bi_x, X, lam * Y).G
            assert np.max(np.abs(g2 - lam**2 * g1)) <= 1e-12 * (1.0 + lam**2 * np.max(np.abs(g1)))


class TestCentralDifference:
    def test_the_step_is_base_times_one_plus_the_row_norm(self):
        v = np.array([[3.0, 4.0], [0.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(fd_step(v), FD_STEP * (1.0 + np.array([5.0, 0.0, 1.0])))
        assert fd_step(v[0]) == FD_STEP * 6.0
        wide = fd_step(v, np.longdouble(MIXED_FD_STEP))
        assert wide.dtype == np.longdouble and np.array_equal(wide, np.longdouble(MIXED_FD_STEP) * np.array([6.0, 1.0, 2.0]))

    def test_rows_of_a_batch_take_their_own_steps(self):
        v = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
        h = np.array([1e-3, 2e-3, 5e-4])
        batched = central_difference(lambda p: np.stack([p[:, 0] ** 2 * p[:, 1], p[:, 1]], axis=-1), v, h)
        assert batched.shape == (3, 2, 2)
        for r in range(3):
            single = central_difference(lambda p: np.stack([p[:, 0] ** 2 * p[:, 1], p[:, 1]], axis=-1), v[r], h[r])
            assert np.array_equal(batched[r], single)

    def test_one_call_on_the_stacked_points(self):
        calls = []

        def f(p):
            calls.append(p.copy())
            return p.sum(axis=-1)

        v, h = np.array([0.5, -1.0, 2.0]), 0.125
        central_difference(f, v, h)
        assert len(calls) == 1
        expected = [v + s * h * e for e in np.eye(3) for s in (1.0, -1.0)]
        assert np.array_equal(calls[0], expected)

    def test_each_point_carries_its_own_row_of_at(self):
        calls = []

        def f(a, p):
            calls.append((a.copy(), p.copy()))
            return a[:, 0] * p[:, 0] + a[:, 1] * p[:, 1]  # at . v

        v, at = np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([[3.0, 4.0], [-1.0, 0.5]])
        grad = central_difference(f, v, 0.125, at=at)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], np.repeat(at, 4, axis=0))
        assert np.array_equal(calls[0][1], [v[r] + s * 0.125 * e for r in range(2) for e in np.eye(2)
                                            for s in (1.0, -1.0)])
        assert np.array_equal(grad, at)

    def test_the_first_failing_point_raises_its_own_error(self):
        # the batch raises one error, but the second point alone raises another
        def f(p):
            if len(p) > 1:
                raise finsler.SlitViolationError("batch")
            if p[0, 0] < 0.5:
                raise NotPositiveDefiniteError(f"at {p[0].tolist()}")
            return p[:, 0]

        with pytest.raises(NotPositiveDefiniteError, match=r"at \[0\.25, 1\.0\]"):
            central_difference(f, np.array([0.5, 1.0]), 0.25)


@pytest.mark.parametrize("n_metrics", [1, 2, 3])
def test_connection_state_validates_each_metric_once(monkeypatch, n_metrics):
    fields = [
        field("alpha", [["1+x2^2", "0"], ["0", "1"]]),
        field("beta", [["4", "0"], ["0", "1+x1^2"]]),
        field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]),
    ][:n_metrics]
    sp = space_of(*fields)
    calls = count_spd_validations(monkeypatch)
    cs = connection_state(sp, *S)
    assert calls[0] == n_metrics
    for k, f in enumerate(fields):
        gamma, g_k, n_k = christoffels_and_spray(f, X, Y)
        assert np.array_equal(cs.gamma_mu[k], gamma)
        assert np.array_equal(cs.G_mu[k], g_k)
        assert np.array_equal(cs.N_mu[k], n_k)


class TestRk4Stage:
    """An RK4 stage, connection_state(...).G at a batch of rays, builds only what G reads."""

    @staticmethod
    def rays(seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, 4)
        return rng.uniform(-0.5, 0.5, (4, 2)), np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    def test_the_spray_leaves_the_fields_it_does_not_read_unbuilt(self, bi_x):
        x, y = self.rays(31)
        cs = connection_state(bi_x, x, y)
        assert cs.G.shape == (4, 2)
        assert {"det_g", "h", "l_up", "C"}.isdisjoint(vars(cs.state))
        assert {"N", "dN_mu"}.isdisjoint(vars(cs))
        # on access, the expressions finsler_state evaluated eagerly, bit for bit
        st = cs.state
        ll = st.l[..., :, None] * st.l[..., None, :]
        assert np.array_equal(st.h, st.g - ll)
        assert np.array_equal(st.det_g, np.linalg.det(st.g))
        assert np.array_equal(st.l_up, y / st.F_mu.sum(axis=-1, keepdims=True))
        one = finsler_state(bi_x, x[1], y[1])
        assert type(one.det_g) is float and one.det_g == float(np.linalg.det(one.g))

    def test_a_stage_makes_one_call_of_each_decomposition(self, bi_x, linalg_calls):
        # eigvalsh, inv and det validate the sector matrices at the new points; the one
        # other call is inv(g) for G = g^-1 b.  det g is not built.
        x, y = self.rays(32)
        connection_state(bi_x, x, y).G
        n = bi_x.n_metrics
        assert linalg_calls == {"eigvalsh": [4 * n, 1], "inv": [4 * n + 4, 2], "det": [4 * n, 1]}

    def test_an_rk4_step_walks_each_new_point_once(self, monkeypatch):
        # a fresh space, so no memo holds a point; each step walks the x of stages 2-4
        # and of its end point once, and stage 1 and the derivatives reuse a walk
        sp = space_of(const_field("alpha", np.eye(2)), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
        original, walked = finsler._distinct_points, []

        def recorded(x, *args):
            walked.append(x.tobytes())
            return original(x, *args)

        monkeypatch.setattr(finsler, "_distinct_points", recorded)
        _, y = self.rays(33)
        fan = integrate_geodesic(sp, np.array([0.1, -0.2]), y, 2e-3, 1e-3)
        assert len(fan.t) == 3 and fan.errors == (None,) * 4
        assert len(walked) == 1 + 2 * 4 and len(set(walked)) == len(walked)


class TestNonlinearConnection:
    def test_constant_metrics_vanish(self, bi_const):
        assert np.max(np.abs(connection_state(bi_const, *S).N)) < 1e-14

    def test_contraction_reproduces_spray(self, bi_x):
        cs = connection_state(bi_x, *S)
        assert np.max(np.abs(cs.N @ Y - cs.G)) < 1e-13

    def test_vs_fiber_derivative_of_spray(self, bi_x):
        n = connection_state(bi_x, *S).N
        nf = nonlinear_connection_fd(bi_x, *S)
        assert np.max(np.abs(n - nf)) < 1e-5

    def test_horizontal_norm_compatibility(self, bi_x):
        rng = np.random.default_rng(23)
        for x, y in random_samples(rng, 20):
            assert horizontal_compatibility_residual(bi_x, connection_state(bi_x, x, y)) < 1e-8

    def test_one_homogeneity(self, bi_x):
        n1 = connection_state(bi_x, *S).N
        for lam in (0.5, 2.0):
            n2 = connection_state(bi_x, X, lam * Y).N
            assert np.max(np.abs(n2 - lam * n1)) / np.max(np.abs(n1)) < 1e-10

    def test_euler_identity_for_connection(self, bi_x):
        # y^j dN^i_j/dy_k = N^i_k
        cs = connection_state(bi_x, *S)
        h = 1e-6
        ydn = np.zeros((2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            np_ = connection_state(bi_x, X, Y + e).N
            nm_ = connection_state(bi_x, X, Y - e).N
            ydn[:, k] = ((np_ - nm_) / (2 * h)) @ Y
        assert np.max(np.abs(ydn - cs.N)) < 1e-6

    def test_sector_weighted_dn_contraction(self, bi_x):
        cs = connection_state(bi_x, *S)
        resid = np.einsum("ki,kij->j", cs.state.l_mu, cs.dN_mu)
        assert np.max(np.abs(resid)) < 1e-13


def _eager_nonlinear_connection(cs):
    """N as connection_state built it eagerly before N became lazy, term for term."""
    state = cs.state
    F, F_mu = state.F, state.F_mu
    l, l_mu, h, h_mu = state.l, state.l_mu, state.h, state.h_mu
    G_mu, N_mu = cs.G_mu, cs.N_mu
    P = np.einsum("r,kj->krj", l, l_mu) + (F / F_mu)[:, None, None] * h_mu
    b = np.einsum("krj,kj->r", P, G_mu)
    dP = (
        np.einsum("kr,mj->mkrj", h / F, l_mu)
        + np.einsum("r,mkj->mkrj", l, h_mu / F_mu[:, None, None])
        + np.einsum("mk,mrj->mkrj", (np.outer(1.0 / F_mu, l) - F * l_mu / F_mu[:, None] ** 2), h_mu)
        - np.einsum("m,mkr,mj->mkrj", F / F_mu**2, h_mu, l_mu)
        - np.einsum("m,mr,mkj->mkrj", F / F_mu**2, l_mu, h_mu)
    )
    raised_C = np.einsum("is,rt,kst->kir", state.g_inv, state.g_inv, state.C)
    term1 = -np.einsum("kir,r->ik", raised_C, b)
    term2 = 0.5 * np.einsum("ir,mkrj,mj->ik", state.g_inv, dP, G_mu)
    term3 = np.einsum("ir,mrj,mjk->ik", state.g_inv, P, N_mu)
    N = term1 + term2 + term3
    return N, N[None, :, :] - N_mu


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestLazyConnection:
    def test_geodesic_steps_build_no_cartan_tensor(self, monkeypatch, bi_x):
        calls = count_calls(monkeypatch, finsler, "_sym3")
        path = integrate_geodesic(bi_x, [0.1, 0.2], [0.6, -0.8], 0.005, 1e-3)
        assert len(path.t) == 6
        assert calls[0] == 0

    @pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
    def test_lazy_connection_equals_eager_formula_bitwise(self, name):
        sp = load_config(CONFIGS / f"{name}.json").space
        rng = np.random.default_rng(31)
        for x, y in random_samples(rng, 8, box=0.7):
            N, dN_mu = _eager_nonlinear_connection(connection_state(sp, x, y))
            cs = connection_state(sp, x, y)
            assert np.array_equal(cs.N, N)
            assert np.array_equal(cs.dN_mu, dN_mu)

    def test_connection_is_built_once(self, bi_x):
        cs = connection_state(bi_x, *S)
        assert cs.N is cs.N
        assert cs.dN_mu is cs.dN_mu


class TestXDerivatives:
    def test_bundle_matches_finite_differences(self, bi_x):
        st = finsler_state(bi_x, *S)
        xd = x_derivatives(bi_x, st)
        h = 1e-6
        for s_idx in range(2):
            e = np.zeros(2)
            e[s_idx] = h
            stp = finsler_state(bi_x, X + e, Y)
            stm = finsler_state(bi_x, X - e, Y)
            assert np.max(np.abs((stp.g - stm.g) / (2 * h) - xd.dg[s_idx])) < 1e-8
            assert np.max(np.abs((stp.C - stm.C) / (2 * h) - xd.dC[s_idx])) < 1e-8
            assert abs((stp.F - stm.F) / (2 * h) - xd.dF[s_idx]) < 1e-9

    def test_fiber_derivative_of_cartan(self, bi_x):
        st = finsler_state(bi_x, *S)
        dy_c = cartan_y_derivative(st)
        h = 1e-5
        for r in range(2):
            e = np.zeros(2)
            e[r] = h
            stp = finsler_state(bi_x, X, Y + e)
            stm = finsler_state(bi_x, X, Y - e)
            assert np.max(np.abs((stp.C - stm.C) / (2 * h) - dy_c[r])) < 1e-8


class TestChern:
    def test_riemannian_reduction(self):
        f = field("m", [["1+0.3*x1^2", "0.1*x2"], ["0.1*x2", "2+0.4*x2^2"]])
        sp = space_of(f)
        gamma, _, _ = christoffels_and_spray(f, X, Y)
        ch = chern_connection(sp, connection_state(sp, *S))
        assert np.max(np.abs(ch - gamma)) < 1e-8

    def test_symmetry(self, bi_x):
        ch = chern_connection(bi_x, connection_state(bi_x, *S))
        assert np.max(np.abs(ch - ch.transpose(0, 2, 1))) < 1e-14

    def test_horizontal_metricity_fd_oracle(self, bi_x):
        # delta_k g_ij by finite differences of the assembled g, then the
        # covariant combination with the Chern coefficients must vanish
        cs = connection_state(bi_x, *S)
        ch = chern_connection(bi_x, cs)
        h = 1e-6
        dg = np.empty((2, 2, 2))
        dgy = np.empty((2, 2, 2))
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            dg[k] = (
                finsler_state(bi_x, X + e, Y).g
                - finsler_state(bi_x, X - e, Y).g
            ) / (2 * h)
            dgy[k] = (
                finsler_state(bi_x, X, Y + e).g
                - finsler_state(bi_x, X, Y - e).g
            ) / (2 * h)
        delta_g = dg - np.einsum("rk,rij->kij", cs.N, dgy)
        ghor = (
            delta_g.transpose(1, 2, 0)
            - np.einsum("sj,sik->ijk", cs.state.g, ch)
            - np.einsum("is,sjk->ijk", cs.state.g, ch)
        )
        assert np.max(np.abs(ghor)) < 1e-6

    def test_spray_contraction(self, bi_x):
        cs = connection_state(bi_x, *S)
        ch = chern_connection(bi_x, cs)
        assert np.max(np.abs(np.einsum("ijk,k->ij", ch, Y) - cs.N)) < 1e-12


class TestLandsbergBerwald:
    def test_single_metric_all_zero(self, sphere_space):
        lb = landsberg_berwald(sphere_space, *S)
        assert np.max(np.abs(lb.C_dot)) < 1e-8
        assert np.max(np.abs(lb.C_horizontal)) < 1e-8

    def test_constant_bimetric_is_locally_minkowski(self, bi_const):
        # Cartan tensor nonzero, yet horizontally parallel
        st = finsler_state(bi_const, *S)
        assert np.max(np.abs(st.C)) > 1e-3
        lb = landsberg_berwald(bi_const, *S)
        assert np.max(np.abs(lb.C_horizontal)) < 1e-6
        assert np.max(np.abs(lb.C_dot)) < 1e-6
        assert np.max(np.abs(lb.pair_residuals)) < 1e-6

    def test_proportional_pair_landsberg(self, prop_space):
        lb = landsberg_berwald(prop_space, *S)
        assert np.max(np.abs(lb.C_dot)) < 1e-8
        assert np.max(np.abs(lb.pair_residuals)) < 1e-6

    def test_landsberg_tensor_is_spray_trace(self, bi_x):
        lb = landsberg_berwald(bi_x, *S)
        assert np.max(np.abs(lb.C_dot - np.einsum("ijks,s->ijk", lb.C_horizontal, Y))) < 1e-14

    def test_x_dependent_bimetric_not_landsberg(self, bi_x):
        lb = landsberg_berwald(bi_x, *S)
        assert np.max(np.abs(lb.C_dot)) > 1e-3
        assert lb.pair_residuals[0, 1] > 1e-3

    @pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
    def test_matches_recorded_values(self, name):
        # tests/data/landsberg-berwald.json holds 5 samples per config, recorded
        # while the pair residual still ran its own difference loops
        space = load_config(CONFIGS / f"{name}.json").space
        for row in json.loads((CONFIGS.parent / "tests" / "data" / "landsberg-berwald.json").read_text())[name]:
            lb = landsberg_berwald(space, row["x"], row["y"])
            assert np.array_equal(lb.C_dot, row["C_dot"])
            assert np.array_equal(lb.C_horizontal, row["C_horizontal"])
            np.testing.assert_allclose(lb.pair_residuals, row["pair_residuals"], rtol=1e-12, atol=0.0)

    def test_x_derivatives_computed_once(self, monkeypatch, bi_x):
        # the Chern coefficients reuse the dg of the x-derivatives taken for dC
        import multifinsler.connection as connection

        calls = count_calls(monkeypatch, connection, "x_derivatives")
        landsberg_berwald(bi_x, *S)
        assert calls[0] == 1

    def test_landsberg_frame_component_matches_scalar(self, bi_x):
        # the only frame component of the Landsberg tensor is the scalar J
        from multifinsler.dim2 import frame_from_state, invariants_JK

        lb = landsberg_berwald(bi_x, *S)
        fr = frame_from_state(finsler_state(bi_x, *S))
        j_val, _ = invariants_JK(bi_x, connection_state(bi_x, *S))
        frame_component = float(np.einsum("ijk,i,j,k->", lb.C_dot, fr.m_up, fr.m_up, fr.m_up))
        assert abs(frame_component - j_val) < 1e-5


def same_bits(a, b) -> bool:
    """a and b hold the same arrays bit for bit: field by field for a dataclass, item by
    item for a tuple."""
    if dataclasses.is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("route", [finsler_state, finsler_norm, connection_state, variational_spray,
                                   nonlinear_connection_fd, landsberg_berwald], ids=lambda f: f.__name__)
def test_routes_take_python_lists_of_ints(bi_x, route):
    # the routes convert x and y to float arrays themselves
    samples = [([1, 0], [1, 2])]
    if route is not landsberg_berwald:  # a batch
        samples.append(([[1, 0], [0, -1]], [[1, 2], [2, -1]]))
    for x, y in samples:
        from_lists = route(bi_x, x, y)
        from_arrays = route(bi_x, np.array(x, dtype=float), np.array(y, dtype=float))
        assert same_bits(from_lists, from_arrays)
        if route is connection_state:
            assert same_bits(from_lists.N, from_arrays.N)


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
@pytest.mark.parametrize("oracle", [fd_fundamental_tensor, variational_spray, nonlinear_connection_fd],
                         ids=lambda f: f.__name__)
def test_fd_oracles_raise_the_norms_error_at_an_overflowing_fiber_vector(name, oracle):
    # |y|^2 of y = (1e200, 0) overflows, and so do the sector forms; each oracle checks the
    # sample as finsler_norm does before |y| sizes its step, so it raises the norm's error
    # and warns of nothing, alone and as the second row of a batch
    space = load_config(CONFIGS / f"{name}.json").space
    x, y = [0.1, 0.2], [1e200, 0.0]
    with pytest.raises(NonFiniteSampleError, match="is not finite") as norm:
        finsler_norm(space, x, y)
    for xs, ys in ((x, y), ([x, x], [[1.0, 0.0], y])):
        with pytest.raises(NonFiniteSampleError) as raised:
            oracle(space, xs, ys)
        assert str(raised.value) == str(norm.value)
