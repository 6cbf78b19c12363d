import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import multifinsler.dim2 as dim2
from multifinsler.config import load_config
from multifinsler.connection import connection_state, variational_spray
from multifinsler.dim2 import (
    cartan_structure_residuals,
    frame_derivatives,
    frame_from_state,
    invariant_I_oracle,
    gauss_curvature,
    invariants_JK,
)
from multifinsler.finsler import NonFiniteSampleError, finsler_state, rows_or_first_error

from conftest import count_calls, const_field, field, random_bimetric_space, random_samples, space_of

REPO = Path(__file__).resolve().parents[1]

X, Y = np.array([0.3, -0.5]), np.array([0.8, 0.6])
S = (X, Y)


class TestFrame:
    def test_single_identity_axis_aligned(self, euclid):
        fr = frame_from_state(finsler_state(euclid, [0.0, 0.0], [1.0, 0.0]))
        assert np.allclose(fr.state.l, [1.0, 0.0])
        assert np.allclose(fr.m, [0.0, -1.0])  # eps_12 = +1 orientation

    def test_frame_is_the_zweibein_alone(self, bi_x):
        # m and m^ need only det g, l and l^; the sector data are read when I is
        st = finsler_state(bi_x, *S)
        fr = frame_from_state(st)
        lean = frame_from_state(dataclasses.replace(st, l_mu=None, a_det=None, F_mu=None))
        assert [f.name for f in dataclasses.fields(lean)] == ["state", "m", "m_up"]
        assert np.array_equal(lean.m, fr.m) and np.array_equal(lean.m_up, fr.m_up)
        with pytest.raises(TypeError):
            lean.I

    def test_orthonormality(self, bi_x):
        fr = frame_from_state(finsler_state(bi_x, *S))
        st = fr.state
        assert st.l @ st.l_up == pytest.approx(1.0, abs=1e-13)
        assert fr.m @ fr.m_up == pytest.approx(1.0, abs=1e-13)
        assert st.l_up @ fr.m == pytest.approx(0.0, abs=1e-13)
        assert fr.m_up @ st.l == pytest.approx(0.0, abs=1e-13)

    def test_metric_splits_in_frame(self, bi_x):
        fr = frame_from_state(finsler_state(bi_x, *S))
        st = fr.state
        assert np.max(np.abs(st.g - np.outer(st.l, st.l) - np.outer(fr.m, fr.m))) < 1e-13

    @pytest.mark.parametrize("name, power", [("I", 4), ("det_identity_residual", 3)])
    def test_overflowing_power_of_the_norm_is_a_sample_error(self, name, power):
        # F = 3e103 at y = (1e103, 1): F^3 and F^4 overflow, and the batch names that row alone
        space = load_config(REPO / "configs" / "bimetric.json").space
        message = f"power 3e+103 ** {power} is not finite"
        with pytest.raises(NonFiniteSampleError, match=re.escape(message)):
            getattr(frame_from_state(finsler_state(space, [0.1, 0.1], [1e103, 1.0])), name)
        x, y = np.full((2, 2), 0.1), np.array([[1.0, 0.0], [1e103, 1.0]])
        with pytest.raises(NonFiniteSampleError, match=re.escape(message)):
            rows_or_first_error(lambda a, b: getattr(frame_from_state(finsler_state(space, a, b)), name), x, y)

    def test_lowering_with_metric(self, bi_x):
        fr = frame_from_state(finsler_state(bi_x, *S))
        assert np.max(np.abs(fr.state.g @ fr.m_up - fr.m)) < 1e-13

    def test_fiber_derivative_of_l(self, bi_x):
        # dl_j/dy_i = m_i m_j / F
        fr = frame_from_state(finsler_state(bi_x, *S))
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            lp = finsler_state(bi_x, X, Y + e).l
            lm = finsler_state(bi_x, X, Y - e).l
            fd = (lp - lm) / (2 * h)
            assert np.max(np.abs(fd - fr.m[i] * fr.m / fr.state.F)) < 1e-8

    def test_determinant_identity_exact_example(self, bi_const):
        # y = (1, 0): det g / F^3 = 1/1 + 4/8 = 3/2, so det g = 40.5
        fr = frame_from_state(finsler_state(bi_const, [0.0, 0.0], [1.0, 0.0]))
        assert fr.state.det_g == pytest.approx(40.5, rel=1e-14)
        assert fr.det_identity_residual < 1e-14

    def test_determinant_identity_random(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(20):
            sp = random_bimetric_space(rng)
            for x, y in random_samples(rng, 5):
                worst = max(worst, frame_from_state(finsler_state(sp, x, y)).det_identity_residual)
        assert worst < 1e-10

    def test_frame_needs_a_2d_state(self):
        coords = ("x1", "x2", "x3")
        sp = space_of(const_field("a", np.eye(3), coords), const_field("b", np.diag([4.0, 1.0, 2.0]), coords))
        st = finsler_state(sp, [0.0, 0.0, 0.0], [0.8, 0.6, 0.5])
        with pytest.raises(ValueError, match="2D spaces only, got dimension 3"):
            frame_from_state(st)

    def test_cross_terms_antisymmetric(self, tri_space):
        fr = frame_from_state(finsler_state(tri_space, *S))
        assert np.max(np.abs(fr.cross + fr.cross.T)) < 1e-15
        assert np.max(np.abs(np.diag(fr.cross))) == 0.0

    def test_cross_terms_vanish_iff_proportional(self, prop_space, bi_const):
        fr_p = frame_from_state(finsler_state(prop_space, *S))
        assert np.max(np.abs(fr_p.cross)) < 1e-14
        fr_b = frame_from_state(finsler_state(bi_const, *S))
        assert np.max(np.abs(fr_b.cross)) > 1e-3


class TestInvariantI:
    def test_single_metric_zero(self, sphere_space):
        assert abs(frame_from_state(finsler_state(sphere_space, *S)).I) < 1e-13

    def test_symmetry_axis_of_diagonal_constants(self, bi_const):
        # y along a common eigenvector of two diagonal metrics
        assert abs(frame_from_state(finsler_state(bi_const, [0.0, 0.0], [1.0, 0.0])).I) < 1e-14

    def test_compact_vs_oracle(self, bi_const):
        x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        fr = frame_from_state(finsler_state(bi_const, x, y))
        ic = fr.I
        io = invariant_I_oracle(bi_const, fr)
        assert abs(ic) > 0.01
        assert abs(ic - io) < 1e-6

    def test_compact_vs_oracle_random(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(10):
            sp = random_bimetric_space(rng)
            for x, y in random_samples(rng, 3):
                fr = frame_from_state(finsler_state(sp, x, y))
                worst = max(worst, abs(fr.I - invariant_I_oracle(sp, fr)))
        assert worst < 1e-6

    def test_cartan_frame_factorization(self, bi_x):
        # F C_ijk = I m_i m_j m_k
        fr = frame_from_state(finsler_state(bi_x, *S))
        i_val = fr.I
        lhs = fr.state.F * fr.state.C
        rhs = i_val * np.einsum("i,j,k->ijk", fr.m, fr.m, fr.m)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_zero_iff_cross_terms_zero(self, prop_space, bi_x):
        assert abs(frame_from_state(finsler_state(prop_space, *S)).I) < 1e-13
        assert abs(frame_from_state(finsler_state(bi_x, *S)).I) > 1e-3

    def test_parity_under_fiber_reflection(self, bi_x):
        # m is odd under y -> -y while g, F^2 and I are even; I being even is
        # forced by F C = I m x m x m with C odd
        fr = frame_from_state(finsler_state(bi_x, *S))
        fr_neg = frame_from_state(finsler_state(bi_x, X, -Y))
        assert np.max(np.abs(fr_neg.m + fr.m)) < 1e-13
        assert np.max(np.abs(fr_neg.state.g - fr.state.g)) < 1e-13
        assert fr_neg.state.F == pytest.approx(fr.state.F, rel=1e-14)
        i_pos = fr.I
        i_neg = fr_neg.I
        assert i_neg == pytest.approx(i_pos, rel=1e-12)
        c_pos = fr.state.C
        c_neg = fr_neg.state.C
        assert np.max(np.abs(c_neg + c_pos)) < 1e-13


class TestFrameApply:
    """Closed forms on a constant metric pair, where N = 0."""

    def test_constant_metric_closed_forms(self, bi_const):
        cs = connection_state(bi_const, *S)
        fr = frame_from_state(finsler_state(bi_const, *S))
        assert np.max(np.abs(cs.N)) < 1e-14

        def x1(xs, ys):
            return xs[:, 0]

        def y1(xs, ys):
            return ys[:, 0]

        def norm(xs, ys):
            return finsler_state(bi_const, xs, ys).F

        e1, e2, _ = frame_derivatives(cs, x1)
        assert e1 == pytest.approx(fr.m_up[0], abs=1e-10)
        assert e2 == pytest.approx(fr.state.l_up[0], abs=1e-10)
        assert frame_derivatives(cs, y1)[2] == pytest.approx(fr.state.F * fr.m_up[0], abs=1e-10)
        assert abs(frame_derivatives(cs, norm)[2]) < 1e-9

    def test_array_field_matches_scalar_fields(self, bi_x):
        cs = connection_state(bi_x, *S)

        def fields(xs, ys):
            st = finsler_state(bi_x, xs, ys)
            return np.stack([st.F, xs[:, 0] * ys[:, 1], st.det_g], axis=-1)

        vecs = frame_derivatives(cs, fields)
        for k in range(3):
            scalars = frame_derivatives(cs, lambda xs, ys, k=k: fields(xs, ys)[:, k])
            for vec, scalar in zip(vecs, scalars):
                assert vec.shape == (3,)
                assert vec[k] == pytest.approx(scalar, rel=1e-14, abs=1e-15)

    def test_one_stencil_in_x_and_one_in_y(self, bi_x):
        calls = []

        def counted(xs, ys):
            calls.append((xs.copy(), ys.copy()))
            return xs[:, 0] * ys[:, 1]

        frame_derivatives(connection_state(bi_x, *S), counted)
        # one call on the 8 neighbours: the x-stencil at Y, then the y-stencil at X
        assert len(calls) == 1
        xs, ys = calls[0]
        assert xs.shape == ys.shape == (8, 2)
        assert all(np.array_equal(yy, Y) for yy in ys[:4])
        assert all(np.array_equal(xx, X) for xx in xs[4:])


class TestInvariantsJK:
    def test_neighbour_count_does_not_grow_with_metrics(self, monkeypatch, euclid, bi_x, tri_space):
        import multifinsler.connection as connection_mod
        import multifinsler.dim2 as dim2_mod

        counts = {"connection_state": 0, "finsler_state": 0, "samples": 0}

        def counted(name, fn):
            def wrapper(space, x, y):
                counts[name] += 1
                if name == "connection_state":
                    counts["samples"] += len(x.reshape(-1, 2))
                return fn(space, x, y)
            return wrapper

        for mod in (dim2_mod, connection_mod):
            for name in ("connection_state", "finsler_state"):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))

        per_space = []
        for sp in (euclid, bi_x, tri_space):
            counts.update(connection_state=0, finsler_state=0, samples=0)
            invariants_JK(sp, dim2_mod.connection_state(sp, *S))
            per_space.append(dict(counts))
        assert per_space[0] == per_space[1] == per_space[2]
        # the centre, then one batch of the 8 neighbours of the frame derivatives, whose
        # y-stencil also gives dN/dy
        assert per_space[0]["connection_state"] == 2
        assert per_space[0]["samples"] == 9

    def test_constant_metrics(self, bi_const):
        j, k = invariants_JK(bi_const, connection_state(bi_const, *S))
        assert abs(j) < 1e-10
        assert abs(k) < 1e-10

    def test_single_sphere_metric(self, sphere_space):
        x, y = np.array([0.2, 0.4]), np.array([0.5, -0.3])
        j, k = invariants_JK(sphere_space, connection_state(sphere_space, x, y))
        assert abs(j) < 1e-8
        assert k == pytest.approx(1.0, abs=1e-6)

    def test_single_metric_k_is_gauss_curvature(self):
        f = field("m", [["1+0.3*x1^2", "0.1*x1*x2"], ["0.1*x1*x2", "2+0.4*x2^2"]])
        sp = space_of(f)
        _, k = invariants_JK(sp, connection_state(sp, *S))
        assert k == pytest.approx(gauss_curvature(sp, X)[0], abs=1e-6)

    def test_j_matches_directional_derivative(self, bi_x):
        j, _ = invariants_JK(bi_x, connection_state(bi_x, *S))

        def i_field(xx, yy):
            return frame_from_state(finsler_state(bi_x, xx, yy)).I

        _, e2_i, _ = frame_derivatives(connection_state(bi_x, *S), i_field)
        assert abs(j) > 1e-3
        assert abs(j - e2_i) < 1e-5

    def test_x_dependent_bimetric_is_not_landsberg(self):
        sp = space_of(
            const_field("alpha", np.eye(2)),
            field("beta", [["1+x1^2", "0"], ["0", "1"]]),
        )
        j, _ = invariants_JK(sp, connection_state(sp, *S))
        assert abs(j) > 1e-4


class TestStructureResiduals:
    def test_riemannian_collapse(self, sphere_space):
        r = cartan_structure_residuals(sphere_space, connection_state(sphere_space, *S))
        assert abs(r.I_compact) < 1e-12
        for v in (r.eq1_A_plus_I, r.eq1_B_minus_1, r.eq1_C, r.eq2_A_plus_1, r.eq2_C, r.eq3_B):
            assert v < 1e-10
        assert r.oneform_roundtrip < 1e-10

    def test_bimetric_coefficients(self, bi_x):
        r = cartan_structure_residuals(bi_x, connection_state(bi_x, *S))
        assert r.eq1_A_plus_I < 1e-6
        assert r.eq1_B_minus_1 < 1e-10
        assert r.eq1_C < 1e-6
        assert r.eq2_A_plus_1 < 1e-10
        assert r.eq2_C < 1e-6
        assert r.eq3_B < 1e-6
        assert r.oneform_roundtrip < 1e-10

    def test_unit_weight_sum_random(self):
        # sum over sectors of (F/F_mu)^3 det a_mu / det g is identically one
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(20):
            sp = random_bimetric_space(rng)
            for x, y in random_samples(rng, 5):
                st = finsler_state(sp, x, y)
                w = (st.F / st.F_mu) ** 3 * st.a_det / st.det_g
                worst = max(worst, abs(float(w.sum()) - 1.0))
        assert worst < 1e-10

    def test_matrix_element_identities(self, tri_space):
        r = cartan_structure_residuals(tri_space, connection_state(tri_space, *S))
        assert r.sector_l_dN < 1e-6
        assert r.sector_m_dN_l < 1e-6
        assert r.sector_m_dN_m < 1e-6
        assert r.cross_dN_identity < 1e-6
        assert r.cross_log_gradient < 1e-7

    def test_oneform_roundtrip_trimetric(self, tri_space):
        r = cartan_structure_residuals(tri_space, connection_state(tri_space, *S))
        assert r.oneform_roundtrip < 1e-10


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
def test_matches_recorded_values(name):
    # tests/data/structure-values.json holds J, K, I, every StructureReport
    # field and the variational spray at 10 samples per config, recorded while
    # J and K differenced N over a stencil of their own and the log-gradient
    # residual differenced each sector alone; the reports keep only maxima,
    # which could hide a drift in one value
    space = load_config(REPO / "configs" / f"{name}.json").space
    for row in json.loads((REPO / "tests" / "data" / "structure-values.json").read_text())[name]:
        s = (row["x"], row["y"])
        cs = connection_state(space, *s)
        report = cartan_structure_residuals(space, cs)
        assert list(invariants_JK(space, cs)) == [row["J"], row["K"]], s
        assert frame_from_state(cs.state).I == row["I"], s
        assert {f.name: getattr(report, f.name) for f in dataclasses.fields(report)} == row["structure"], s
        assert variational_spray(space, *s).tolist() == row["G"], s


@pytest.mark.parametrize("space_name", ["euclid", "bi_x", "tri_space"])
def test_log_gradient_residual_differences_all_sectors_at_once(request, monkeypatch, space_name):
    # one array-valued difference, one call on the 4 fiber neighbours, for any number of metrics
    space = request.getfixturevalue(space_name)
    cs = connection_state(space, *S)
    calls = count_calls(monkeypatch, dim2, "sector_norms")
    cartan_structure_residuals(space, cs)
    assert calls[0] == 1
