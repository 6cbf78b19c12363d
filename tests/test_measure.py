import functools
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import multifinsler.measure as measure
from multifinsler.config import load_config
from multifinsler.finsler import NonFiniteSampleError
from multifinsler.suites import run_suite
from multifinsler.measure import (
    DegeneratePairError,
    EllipticPair,
    busemann_hausdorff,
    busemann_hausdorff_bimetric,
    busemann_hausdorff_quadrature,
    complete_elliptic_e,
    complete_elliptic_k,
    holmes_thompson,
    holmes_thompson_circle_oracle,
    holmes_thompson_disc_oracle,
    indicatrix_reduction_check,
    lambda_pair,
)

from conftest import const_field, count_calls, count_spd_validations, field, random_spd, record_evaluations, space_of
from pencil_oracles import (
    elliptic_e_quadrature,
    elliptic_k_quadrature,
    pencil_integrals,
    pencil_integrals_quadrature,
)

# frozen from the defining-integral quadrature oracle
K_SQRT3_2 = 2.1565156474996432
E_SQRT3_2 = 1.2110560275684594

ORIGIN = [0.0, 0.0]
REPO = Path(__file__).resolve().parent.parent


def scalar_circle_norm(a_mu, theta):
    """F at (cos theta, sin theta), one direction alone: the bits the batched circle norms keep."""
    y = np.array([math.cos(theta), math.sin(theta)])
    return float(sum(math.sqrt(float(y @ a @ y)) for a in a_mu))


class TestLambdaPair:
    def test_identity_vs_diagonal(self):
        p = lambda_pair(np.eye(2), np.diag([4.0, 1.0]))
        assert p.lam_plus == pytest.approx(1.0, rel=1e-14)
        assert p.lam_minus == pytest.approx(0.25, rel=1e-14)

    def test_equal_matrices(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        p = lambda_pair(a, a)
        assert p.lam_plus == pytest.approx(1.0, rel=1e-12)
        assert p.lam_minus == pytest.approx(1.0, rel=1e-12)
        assert p.modulus == pytest.approx(0.0, abs=1e-7)

    def test_swap_inverts_roots(self):
        p = lambda_pair(np.eye(2), np.diag([4.0, 1.0]))
        q = lambda_pair(np.diag([4.0, 1.0]), np.eye(2))
        assert q.lam_plus == pytest.approx(4.0, rel=1e-14)
        assert q.lam_minus == pytest.approx(1.0, rel=1e-14)
        assert q.lam_minus / q.lam_plus == pytest.approx(p.lam_minus / p.lam_plus, rel=1e-12)

    def test_pencil_determinant_vanishes(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            a, b = random_spd(rng), random_spd(rng)
            p = lambda_pair(a, b)
            scale = abs(np.linalg.det(a))
            assert abs(np.linalg.det(a - p.lam_plus * b)) <= 1e-10 * scale * (1 + p.lam_plus**2)
            assert abs(np.linalg.det(a - p.lam_minus * b)) <= 1e-10 * scale * (1 + p.lam_minus**2)

    def test_second_display_form_agrees(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a, b = random_spd(rng), random_spd(rng)
            p = lambda_pair(a, b)
            x = np.linalg.solve(b, a)
            e1 = float(np.trace(x))
            e2 = float(0.5 * (e1 * e1 - np.trace(x @ x)))
            disc = math.sqrt(max(0.0, e1 * e1 - 4 * e2))
            lp, lm = (e1 + disc) / 2.0, (e1 - disc) / 2.0
            assert lp == pytest.approx(p.lam_plus, rel=1e-12)
            assert lm == pytest.approx(p.lam_minus, rel=1e-12)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            EllipticPair(1.0, 2.0)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            lambda_pair(np.eye(3), np.eye(3))


class TestCompleteElliptic:
    def test_zero_modulus(self):
        k, e = complete_elliptic_k(0.0), complete_elliptic_e(0.0)
        assert abs(k - math.pi / 2) <= 1e-14
        assert abs(e - math.pi / 2) <= 1e-14

    def test_unit_modulus_second_kind(self):
        assert abs(complete_elliptic_e(1.0) - 1.0) <= 1e-14

    def test_unit_modulus_first_kind_rejected(self):
        with pytest.raises(ValueError):
            complete_elliptic_k(1.0)

    def test_frozen_values(self):
        k, e = complete_elliptic_k(math.sqrt(3) / 2), complete_elliptic_e(math.sqrt(3) / 2)
        assert k == pytest.approx(K_SQRT3_2, abs=1e-14)
        assert e == pytest.approx(E_SQRT3_2, abs=1e-14)

    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, math.sqrt(3) / 2, 0.99, 0.99999])
    def test_agm_matches_defining_integrals(self, k):
        kk, ee = complete_elliptic_k(k), complete_elliptic_e(k)
        assert abs(kk - elliptic_k_quadrature(k)) <= 1e-12
        assert abs(ee - elliptic_e_quadrature(k)) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            complete_elliptic_k(-0.1)
        with pytest.raises(ValueError):
            complete_elliptic_e(1.1)

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_monotonicity_property(self, k):
        # K grows and E shrinks with the modulus
        kk, ee = complete_elliptic_k(k), complete_elliptic_e(k)
        assert kk >= math.pi / 2 - 1e-15
        assert 1.0 - 1e-15 <= ee <= math.pi / 2 + 1e-15


class TestPencilIntegrals:
    def test_equal_matrices_reduce_to_circle(self):
        a = np.array([[2.0, 0.5], [0.5, 1.5]])
        first, second = pencil_integrals(a, a)
        assert first == pytest.approx(math.pi / math.sqrt(np.linalg.det(a)), rel=1e-12)

    def test_reference_pair(self):
        first, second = pencil_integrals(np.eye(2), np.diag([4.0, 1.0]))
        assert first == pytest.approx(K_SQRT3_2, rel=1e-13)
        assert second == pytest.approx(E_SQRT3_2, rel=1e-13)

    def test_closed_vs_quadrature_random(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            a, b = random_spd(rng), random_spd(rng)
            fc, sc = pencil_integrals(a, b)
            fq, sq = pencil_integrals_quadrature(a, b)
            worst = max(worst, abs(fc - fq) / fc, abs(sc - sq) / sc)
        assert worst <= 1e-9

    def test_first_integral_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a, b = random_spd(rng), random_spd(rng)
            f1, _ = pencil_integrals(a, b)
            f2, _ = pencil_integrals(b, a)
            assert abs(f1 - f2) <= 1e-12 * f1

    def test_second_display_of_second_integral(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            a, b = random_spd(rng), random_spd(rng)
            p = lambda_pair(a, b)
            _, second = pencil_integrals(a, b)
            alt = 2.0 * math.sqrt(p.lam_plus / np.linalg.det(b)) * complete_elliptic_e(p.modulus)
            assert abs(second - alt) <= 1e-12 * second

    def test_degenerate_continuity(self):
        # B -> A: closed forms approach the circle values, matching quadrature
        a = np.array([[1.4, 0.2], [0.2, 0.9]])
        det_a = float(np.linalg.det(a))
        for s in (1e-2, 1e-4, 1e-6):
            b = a + s * np.array([[0.5, -0.1], [-0.1, 0.3]])
            fc, sc = pencil_integrals(a, b)
            fq, sq = pencil_integrals_quadrature(a, b)
            assert abs(fc - fq) <= 1e-7 * fc
            assert abs(sc - sq) <= 1e-7 * sc
        assert fc == pytest.approx(math.pi / math.sqrt(det_a), rel=1e-4)


class TestHolmesThompson:
    def test_single_metric_is_volume_density(self):
        a = np.array([[2.0, 0.4], [0.4, 1.5]])
        sp = space_of(const_field("a", a))
        rep = holmes_thompson(sp, ORIGIN)
        assert rep.value == pytest.approx(math.sqrt(np.linalg.det(a)), rel=1e-12)
        assert rep.cross_terms == ()

    def test_doubled_identity(self):
        sp = space_of(const_field("a", np.eye(2)), const_field("b", np.eye(2)))
        assert holmes_thompson(sp, ORIGIN).value == pytest.approx(4.0, rel=1e-10)
        assert holmes_thompson_disc_oracle(sp, ORIGIN) == pytest.approx(4.0, rel=1e-10)

    def test_reference_bimetric_anchor(self, bi_const):
        # disc oracle fixes the anchor; closed form must match it and the
        # elliptic expression 3 + (8/pi) E(sqrt(3)/2)
        closed = holmes_thompson(bi_const, ORIGIN)
        disc = holmes_thompson_disc_oracle(bi_const, ORIGIN)
        anchor = 3.0 + (8.0 / math.pi) * E_SQRT3_2
        assert disc == pytest.approx(anchor, rel=1e-10)
        assert closed.value == pytest.approx(disc, rel=1e-10)

    def test_three_modes_agree(self, bi_x):
        x = [0.4, -0.2]
        vals = [holmes_thompson(bi_x, x).value, holmes_thompson_disc_oracle(bi_x, x),
                holmes_thompson_circle_oracle(bi_x, x)]
        scale = abs(vals[0])
        assert abs(vals[0] - vals[1]) / scale < 1e-6
        assert abs(vals[0] - vals[2]) / scale < 1e-6

    @pytest.mark.parametrize("n_metrics", [1, 2, 3])
    def test_circle_oracle_evaluates_the_metrics_once(self, monkeypatch, n_metrics):
        # 512 FD Hessians at one x share the sector matrices of metric_values
        fields = [
            field("alpha", [["1+x2^2", "0"], ["0", "1"]]),
            field("beta", [["4", "0"], ["0", "1+x1^2"]]),
            field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]),
        ][:n_metrics]
        sp = space_of(*fields)
        evaluations = record_evaluations(monkeypatch)
        holmes_thompson_circle_oracle(sp, [0.4, -0.2])
        assert sum(map(len, evaluations.values())) == n_metrics

    @pytest.mark.parametrize("n_metrics", [1, 2, 3])
    def test_circle_oracle_squares_the_scalar_norms(self, monkeypatch, n_metrics):
        # one pass per sector over the 512 nodes gives the scalar norms' bits, squared as floats
        sp = space_of(*[
            field("alpha", [["1+x2^2", "0.2*x1"], ["0.2*x1", "1"]]),
            field("beta", [["4", "0"], ["0", "1+x1^2"]]),
            field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]),
        ][:n_metrics])
        original, squares = measure._power, []

        def recorded(a, p):
            squares.append(original(a, p))
            return squares[-1]

        monkeypatch.setattr(measure, "_power", recorded)
        thetas = np.arange(512) * (2.0 * math.pi / 512)
        for x in ([0.4, -0.2], [-0.7, 0.9], [0.05, 0.6]):
            squares.clear()
            holmes_thompson_circle_oracle(sp, x)
            a_mu = sp.metric_values(np.array(x))[0]
            assert len(squares) == 1
            assert np.array_equal(squares[0], [scalar_circle_norm(a_mu, th) ** 2 for th in thetas])

    def test_circle_oracle_makes_one_fd_hessian_call(self, monkeypatch, tri_space):
        calls = count_calls(monkeypatch, measure, "fd_fundamental_tensor")
        holmes_thompson_circle_oracle(tri_space, [0.4, -0.2])
        assert calls[0] == 1

    def test_trimetric_modes_agree(self, tri_space):
        x = [0.1, 0.3]
        closed = holmes_thompson(tri_space, x).value
        disc = holmes_thompson_disc_oracle(tri_space, x)
        assert abs(closed - disc) / closed < 1e-6

    def test_breakdown_sums_to_total(self, bi_const):
        rep = holmes_thompson(bi_const, ORIGIN)
        total = sum(rep.diagonal_terms) + sum(t["term"] for t in rep.cross_terms)
        assert abs(total - rep.value) <= 1e-14 * abs(rep.value)

    def test_proportional_pair_reduces_to_riemannian(self, prop_space):
        x = [0.6, -0.1]
        phi = 1.0 + x[0] ** 2
        expect = (1.0 + math.sqrt(phi)) ** 2  # det alpha = 1
        ht = holmes_thompson(prop_space, x).value
        assert ht == pytest.approx(expect, rel=1e-8)
        assert busemann_hausdorff(prop_space, x).value == pytest.approx(expect, rel=1e-8)


class TestBusemannHausdorff:
    def test_single_metric(self):
        a = np.array([[2.0, 0.4], [0.4, 1.5]])
        sp = space_of(const_field("a", a))
        rep = busemann_hausdorff(sp, ORIGIN)
        assert rep.value == pytest.approx(math.sqrt(np.linalg.det(a)), rel=1e-12)

    def test_equal_pair_degenerates_and_falls_back(self):
        sp = space_of(const_field("a", np.eye(2)), const_field("b", np.eye(2)))
        with pytest.raises(DegeneratePairError):
            busemann_hausdorff_bimetric(sp, ORIGIN)
        rep = busemann_hausdorff(sp, ORIGIN)
        assert rep.fallback
        assert rep.value == pytest.approx(4.0, rel=1e-12)

    def test_singular_difference_routes_to_quadrature(self, bi_const):
        # alpha - beta = diag(-3, 0) is singular: the closed split diverges
        with pytest.raises(DegeneratePairError):
            busemann_hausdorff_bimetric(bi_const, ORIGIN)
        rep = busemann_hausdorff(bi_const, ORIGIN)
        assert rep.fallback and rep.value > 0

    def test_closed_vs_quadrature_definite_pairs(self):
        rng = np.random.default_rng(45)
        checked = 0
        worst = 0.0
        while checked < 30:
            a = random_spd(rng)
            b = a + random_spd(rng)  # b - a positive definite
            sp = space_of(const_field("a", a), const_field("b", b))
            try:
                c = busemann_hausdorff_bimetric(sp, ORIGIN).value
            except DegeneratePairError:
                continue
            q = busemann_hausdorff_quadrature(sp, ORIGIN)
            worst = max(worst, abs(c - q) / q)
            checked += 1
        assert worst < 1e-6

    def test_breakdown_consistency(self):
        a = np.array([[5.0, 1.0], [1.0, 4.0]])
        sp = space_of(const_field("a", a), const_field("b", np.eye(2)))
        rep = busemann_hausdorff_bimetric(sp, ORIGIN)
        assert 1.0 / rep.value == pytest.approx(rep.parts["indicatrix_area_over_pi"], rel=1e-14)
        assert rep.parts["trace_part"] + rep.parts["elliptic_part"] == pytest.approx(
            rep.parts["indicatrix_area_over_pi"], rel=1e-14
        )

    def test_proportional_with_x_dependent_factor(self, prop_space):
        x = [0.5, 0.2]
        rep = busemann_hausdorff(prop_space, x)
        expect = (1.0 + math.sqrt(1.0 + 0.25)) ** 2
        assert rep.fallback
        assert rep.value == pytest.approx(expect, rel=1e-10)


    def test_bimetric_form_needs_two_metrics(self, tri_space):
        with pytest.raises(ValueError, match="exactly two metrics"):
            busemann_hausdorff_bimetric(tri_space, [0.1, 0.3])

    @pytest.mark.parametrize("n_metrics", [1, 3])
    def test_other_metric_counts_use_quadrature_without_fallback(self, n_metrics):
        fields = [
            field("alpha", [["1+x2^2", "0"], ["0", "1"]]),
            field("beta", [["4", "0"], ["0", "1+x1^2"]]),
            field("gamma", [["2+x2^2", "0.3"], ["0.3", "3"]]),
        ][:n_metrics]
        sp, x = space_of(*fields), [0.4, -0.2]
        rep = busemann_hausdorff(sp, x)
        assert rep.method == "quadrature"
        assert not rep.fallback
        assert rep.value == busemann_hausdorff_quadrature(sp, x)
        assert rep.parts == {"indicatrix_area_over_pi": math.pi / rep.value}

    def test_bimetric_form_reuses_the_validated_metrics(self, monkeypatch):
        sp = space_of(field("a", [["5+x1^2", "1"], ["1", "4"]]), const_field("b", np.eye(2)))
        x = [0.3, -0.2]
        holmes_thompson(sp, x)
        calls = count_spd_validations(monkeypatch)
        rep = busemann_hausdorff(sp, x)
        assert rep.method == "closed_bimetric"
        assert calls[0] == 0


@pytest.mark.parametrize("oracle", [
    holmes_thompson_disc_oracle, holmes_thompson_circle_oracle, busemann_hausdorff_quadrature,
])
def test_oracles_need_a_2d_space(oracle):
    coords = ("x1", "x2", "x3")
    sp = space_of(const_field("a", np.eye(3), coords), const_field("b", np.diag([4.0, 1.0, 2.0]), coords))
    with pytest.raises(ValueError, match="2D spaces only"):
        oracle(sp, [0.0, 0.0, 0.0])


class TestIndicatrixReduction:
    def test_riemannian_unit_weight(self):
        a = np.array([[2.0, 0.4], [0.4, 1.5]])
        sp = space_of(const_field("a", a))
        r = indicatrix_reduction_check(sp, ORIGIN, "one")
        expect = math.pi / math.sqrt(np.linalg.det(a))
        assert r["circle"] == pytest.approx(expect, rel=1e-10)
        assert r["residual"] <= 1e-8 * (1.0 + abs(r["circle"]))

    def test_doubled_identity_with_det_weight(self):
        sp = space_of(const_field("a", np.eye(2)), const_field("b", np.eye(2)))
        r = indicatrix_reduction_check(sp, ORIGIN, "det")
        assert r["disc"] == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert r["residual"] <= 1e-8 * (1.0 + abs(r["circle"]))

    @pytest.mark.parametrize("weight", ["one", "det"])
    def test_bimetric(self, bi_const, weight):
        r = indicatrix_reduction_check(bi_const, ORIGIN, weight)
        assert r["residual"] <= 1e-8 * (1.0 + abs(r["circle"]))

    def test_anisotropic_sectors_stay_within_the_subdivision_limit(self):
        # sector eigenvalue ratios of 1e-4: QUADPACK's default of 50 angular
        # subdivisions is not enough for the det g weight
        sp = space_of(field("alpha", [["1", "0"], ["0", "1e-4*(1+x1^2)"]]),
                      field("beta", [["1e-4*(2+sin(x2))", "0"], ["0", "1"]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            r = indicatrix_reduction_check(sp, ORIGIN, "det")
        assert r["residual"] <= 1e-6 * (1.0 + abs(r["circle"]))

    def test_unit_circle_norm_identity(self, bi_const):
        # per-sector circle integral of 1/F_mu^2 equals pi / sqrt(det a_mu)
        from scipy import integrate

        a_mu, _, a_det = bi_const.metric_values(np.array(ORIGIN))
        for k in range(2):
            val, _ = integrate.quad(
                lambda th: 1.0
                / float(np.array([math.cos(th), math.sin(th)]) @ a_mu[k] @ np.array([math.cos(th), math.sin(th)])),
                0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=300,
            )
            assert 0.5 * val == pytest.approx(math.pi / math.sqrt(a_det[k]), rel=1e-10)


def test_circle_norm_weighted_integral_vs_closed_form():
    # integral over the unit circle of F_nu / F_mu^3 against the elliptic form
    from scipy import integrate

    rng = np.random.default_rng(46)
    worst = 0.0
    for _ in range(20):
        a_mu, a_nu = random_spd(rng), random_spd(rng)

        def integrand(th):
            u = np.array([math.cos(th), math.sin(th)])
            return math.sqrt(float(u @ a_nu @ u)) / float(u @ a_mu @ u) ** 1.5

        quad_val, _ = integrate.quad(integrand, 0.0, 2.0 * math.pi,
                                     epsabs=1e-12, epsrel=1e-12, limit=300)
        quad_val *= 0.5
        pair = lambda_pair(a_nu, a_mu)
        closed = 2.0 * math.sqrt(pair.lam_plus / np.linalg.det(a_mu)) * complete_elliptic_e(pair.modulus)
        worst = max(worst, abs(quad_val - closed))
    assert worst <= 1e-8


@pytest.mark.parametrize("name", ["single", "bimetric", "trimetric"])
def test_oracles_match_recorded_values(name):
    # tests/data/measure-oracles.json holds each config's 4 `check --suite
    # measures` points and 2 off-centre points, recorded while the oracles
    # called finsler_state and fd_fundamental_tensor once per node; the
    # report keeps only a max, which could hide a drift in one value
    space = load_config(REPO / "configs" / f"{name}.json").space
    for row in json.loads((REPO / "tests" / "data" / "measure-oracles.json").read_text())[name]:
        x = np.array(row["x"])
        for w in ("one", "det"):
            r = indicatrix_reduction_check(space, x, w)
            assert r["disc"] == row[f"disc_{w}"] and r["circle"] == row[f"circle_{w}"], (x, w)
        assert holmes_thompson_circle_oracle(space, x) == row["circle_oracle"], x


CONFIGS = ["single", "bimetric", "trimetric"]
QUAD = {"epsabs": measure.QUAD_ABS, "epsrel": measure.QUAD_ABS, "limit": 400}  # _circle_integral's


def committed_points(name):
    """A committed config's space, and its box centre and (0.3, -0.2)."""
    cfg = load_config(REPO / "configs" / f"{name}.json")
    return cfg.space, [np.asarray(cfg.box_center(), dtype=float), np.array([0.3, -0.2])]


def record_shapes(monkeypatch, wrap=None):
    """Replace measure.finsler_state by wrap (default the real one) and record each y shape."""
    real = measure.finsler_state
    wrap = wrap or real
    shapes = []

    def recorded(space, x, y):
        shapes.append(y.shape)
        return wrap(space, x, y)

    monkeypatch.setattr(measure, "finsler_state", recorded)
    return real, shapes


def scaled_det_g(state, scale):
    """state with det_g multiplied by scale(y) at each sample, one sample or a batch."""

    def scaled(space, x, y):
        st = state(space, x, y)
        s = np.array([scale(v) for v in np.atleast_2d(y)])
        return SimpleNamespace(F=st.F, det_g=st.det_g * (s[0] if y.ndim == 1 else s))

    return scaled


def failing_beyond(state, bound, coordinate):
    """state that raises for samples whose coordinate(y) exceeds bound, naming the
    last such row, as a batched check that names another row than a scalar run would."""

    def failing(space, x, y):
        bad = [c for c in map(coordinate, np.atleast_2d(y)) if c > bound]
        if bad:
            raise NonFiniteSampleError(f"node at {bad[-1]!r}")
        return state(space, x, y)

    return failing


class TestQuadInBatches:
    """_quad_in_batches evaluates each rule, or the two rules of a bisection, in one call."""

    def test_rule_nodes_are_the_nodes_quad_asks_for(self):
        # the computed nodes against a dry run with a zero integrand, which stops after
        # the first rule, on intervals of many scales and on both halves of each
        def asked(a, b):
            nodes = []
            integrate.quad(lambda t: nodes.append(t) or 0.0, a, b, **QUAD)
            return nodes

        rng = np.random.default_rng(21)
        starts = rng.uniform(-10.0, 10.0, 10_000) * 10.0 ** rng.integers(-3, 2, 10_000)
        widths = 10.0 ** rng.uniform(-8.0, 1.5, 10_000)
        intervals = [(0.0, 2.0 * math.pi), (0.0, 1.0)] + list(zip(starts.tolist(), (starts + widths).tolist()))
        for a, b in intervals:
            mid = 0.5 * (a + b)
            for lo, hi in ((a, b), (a, mid), (mid, b)):
                assert measure._rule_nodes(lo, hi) == asked(lo, hi), (lo, hi)

    @pytest.mark.parametrize("f, a, b", [
        (lambda t: math.exp(-30.0 * t) * math.sin(5.0 * t), 0.0, 2.0 * math.pi),
        (math.sqrt, 0.0, 1.0),
        (math.log, 0.0, 1.0),
        (lambda t: 1.0 / (1e-3 + (t - 0.3) ** 2), 0.0, 1.0),
        (lambda t: 1.0 / math.sqrt(abs(t - 0.37)), 0.0, 1.0),
        (lambda t: math.cos(40.0 * t), -1.0, 2.0),
    ], ids=["decaying", "sqrt", "log", "peak", "interior-singularity", "oscillating"])
    def test_equals_quad_with_one_call_per_rule_pair(self, f, a, b):
        calls = []

        def values_at(t):
            calls.append(len(t))
            return np.array([f(v) for v in t])

        value = measure._quad_in_batches(values_at, a, b, **QUAD)
        expect, _, info = integrate.quad(f, a, b, full_output=1, **QUAD)
        assert value == expect
        assert info["last"] > 1
        assert calls == [21] + [42] * (info["last"] - 1)

    def test_an_unpredicted_node_is_evaluated_alone(self, monkeypatch):
        # node lists after the first miss the last node of their rule, so every
        # bisection leaves one node of each half to a batch of its own
        listed, lists = measure._rule_nodes, []

        def missing_last(a, b):
            lists.append((a, b))
            nodes = listed(a, b)
            return nodes if len(lists) == 1 else nodes[:-1]

        monkeypatch.setattr(measure, "_rule_nodes", missing_last)

        def f(t):
            return math.exp(-30.0 * t) * math.sin(5.0 * t)

        calls = []

        def values_at(t):
            calls.append(len(t))
            return np.array([f(v) for v in t])

        value = measure._quad_in_batches(values_at, 0.0, 2.0 * math.pi, **QUAD)
        expect, _, info = integrate.quad(f, 0.0, 2.0 * math.pi, full_output=1, **QUAD)
        assert value == expect
        assert info["last"] > 1
        assert calls == [21] + [40, 1, 1] * (info["last"] - 1)


    def test_rule_nodes_of_an_array_of_intervals_are_each_intervals_nodes(self):
        # the radial rules take the nodes of all rays' intervals as arrays; each ray's
        # nodes are the floats of its own interval, which the test above pins to quad
        rng = np.random.default_rng(22)
        ends = 10.0 ** rng.uniform(-3.0, 2.0, 500)
        rows = np.stack(measure._rule_nodes(0.0, ends), axis=-1)
        assert rows.shape == (500, 21)
        for end, row in zip(ends.tolist(), rows.tolist()):
            assert row == measure._rule_nodes(0.0, end), end

    def test_a_settling_first_rule_calls_no_quadpack(self, monkeypatch):
        # quad stops at the first rule here; the batched run returns its value without quad
        expect, _, info = integrate.quad(math.cos, 0.0, 1.0, full_output=1, **QUAD)
        assert info["neval"] == 21
        calls = count_calls(monkeypatch, measure, "_quad")
        value = measure._quad_in_batches(lambda t: np.cos(t), 0.0, 1.0, **QUAD)
        assert value == expect and calls[0] == 0


# integrands f(t; p, q) of a family, smooth on the intervals drawn for them
INTEGRANDS = {
    "polynomial": lambda t, p, q: 1.0 + p * t - q * t * t * t,
    "oscillating": lambda t, p, q: math.sin(20.0 * p * t + q),
    "decaying": lambda t, p, q: math.exp(-60.0 * p * t) * (1.0 + q),
    "peak": lambda t, p, q: 1.0 / (1e-4 + 0.1 * p + (t - q) ** 2),
    # a ripple far below the tolerance, which the Gauss and Kronrod sums disagree on
    "ripple": lambda t, p, q: 1.0 + 1e-9 * math.sin(300.0 * p * t + q),
    # the radial integrand w(r) r of a weight that bisects, as in TestRadialBatches
    "radial": lambda t, p, q: math.exp(-30.0 * p * t - 5.0 * (1.0 + q)) * t,
}


@st.composite
def first_rules(draw):
    """An integrand, its interval [a, b], the tolerances and, for some, a node whose value
    is replaced by a NaN or an inf."""
    kind = draw(st.sampled_from(sorted(INTEGRANDS)))
    p, q = draw(st.floats(0.0, 1.0)), draw(st.floats(-1.0, 1.0))
    a = 0.0 if kind == "radial" else draw(st.floats(-2.0, 2.0))
    b = a + 10.0 ** draw(st.floats(-3.0, 1.0))
    bad = draw(st.sampled_from([None, None, None, math.nan, math.inf, -math.inf]))
    tol = draw(st.sampled_from([1e-13, 1e-10, 1e-8, 1e-4]))
    f = functools.partial(INTEGRANDS[kind], p=p, q=q)
    if bad is not None:
        node = measure._rule_nodes(a, b)[draw(st.integers(0, 20))]
        f = functools.partial(lambda t, f, node, value: value if t == node else f(t), f=f, node=node, value=bad)
    return f, a, b, tol


class TestFirstRule:
    """_first_rule settles a row exactly where quad stops at its first rule, with quad's bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(first_rules(), min_size=1, max_size=5), st.sampled_from([1e-13, 1e-10, 1e-8, 1e-4]))
    def test_settles_where_quad_stops_at_the_first_rule(self, rules, epsabs):
        a = np.array([r[1] for r in rules])
        b = np.array([r[2] for r in rules])
        values = np.array([[f(t) for t in measure._rule_nodes(lo, hi)] for f, lo, hi, _ in rules])
        for epsrel in sorted({r[3] for r in rules}):
            settled, result = measure._first_rule(values, a, b, epsabs, epsrel)
            for k, (f, lo, hi, _) in enumerate(rules):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, full_output=1)
                stops = out[2]["neval"] == 21 and not caught
                if not np.isfinite(values[k]).all():
                    # never settled: quad runs, and may itself stop at an infinite value
                    assert not settled[k], (k, lo, hi, epsrel)
                    continue
                assert bool(settled[k]) == stops, (k, lo, hi, epsrel)
                if stops:
                    assert result[k] == out[0], (k, lo, hi, epsrel)


class TestCircleBatches:
    """_circle_integral and busemann_hausdorff_quadrature are the plain adaptive quad
    with one call per node, bit for bit; _circle_integral makes one finsler_state
    call per rule or pair of bisected rules."""

    @staticmethod
    def scalar_circle(space, x, weight, state):
        """_circle_integral as one quad with one state(...) call per node, and quad's infodict."""

        def f(theta):
            st = state(space, x, np.array([math.cos(theta), math.sin(theta)]))
            return (1.0 if weight == "one" else st.det_g) / st.F**2

        value, _, info = integrate.quad(f, 0.0, 2.0 * math.pi, full_output=1, **QUAD)
        return value, info

    @pytest.mark.parametrize("name", CONFIGS)
    @pytest.mark.parametrize("weight", ["one", "det"])
    def test_equals_the_scalar_quad(self, monkeypatch, name, weight):
        space, points = committed_points(name)
        real, shapes = record_shapes(monkeypatch)
        for x in points:
            shapes.clear()
            value = measure._circle_integral(space, x, weight)
            expect, info = self.scalar_circle(space, x, weight, real)
            assert value == expect, x
            assert shapes == [(21, 2)] + [(42, 2)] * (info["last"] - 1), x

    @pytest.mark.parametrize("name", CONFIGS)
    def test_busemann_hausdorff_quadrature_equals_the_scalar_quad(self, name):
        space, points = committed_points(name)
        for x in points:
            a_mu = space.metric_values(x)[0]
            expect = integrate.quad(lambda theta: 1.0 / scalar_circle_norm(a_mu, theta) ** 2,
                                    0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            assert busemann_hausdorff_quadrature(space, x) == 2.0 * math.pi / expect, x

    def test_a_bisecting_weight(self, monkeypatch, tri_space):
        # det g scaled by a narrow peak at theta = pi makes QUADPACK bisect many times
        peaked = scaled_det_g(measure.finsler_state, lambda v: math.exp(-400.0 * (1.0 + v[0])))
        _, shapes = record_shapes(monkeypatch, peaked)
        x = np.array([0.1, 0.3])
        value = measure._circle_integral(tri_space, x, "det")
        expect, info = self.scalar_circle(tri_space, x, "det", peaked)
        assert value == expect
        assert info["last"] >= 10
        assert shapes == [(21, 2)] + [(42, 2)] * (info["last"] - 1)

    def test_a_failing_batch_raises_the_scalar_runs_error(self, monkeypatch, bi_const):
        failing = failing_beyond(measure.finsler_state, 0.9, lambda v: v[1])  # sin(theta) > 0.9
        _, shapes = record_shapes(monkeypatch, failing)
        with pytest.raises(NonFiniteSampleError) as batched:
            measure._circle_integral(bi_const, np.array(ORIGIN), "det")
        assert shapes[0] == (21, 2)
        with pytest.raises(NonFiniteSampleError) as scalar:
            self.scalar_circle(bi_const, np.array(ORIGIN), "det", failing)
        assert str(batched.value) == str(scalar.value)


class TestRadialBatches:
    """The disc side of indicatrix_reduction_check stacks the first radial rules of
    the 21 or 42 rays of each angular rule into one finsler_state call."""

    @staticmethod
    def scalar_disc(space, x, state):
        """The disc integral as one dblquad with one state(...) call per node."""
        a_mu = space.metric_values(np.asarray(x, dtype=float))[0]

        def f(r, theta):
            y = np.array([r * math.cos(theta), r * math.sin(theta)])
            return state(space, x, y).det_g * r

        return integrate.dblquad(f, 0.0, 2.0 * math.pi, 0.0,
                                 lambda theta: 1.0 / scalar_circle_norm(a_mu, theta),
                                 epsabs=1e-10, epsrel=1e-10)[0]

    @pytest.mark.parametrize("name", CONFIGS)
    def test_no_batch_of_one_on_the_committed_configs(self, monkeypatch, name):
        # both oracles: the disc and, inside the check, _circle_integral
        space, points = committed_points(name)
        _, shapes = record_shapes(monkeypatch)
        for x in points:
            indicatrix_reduction_check(space, x, "det")
        assert (21 * 21, 2) in shapes  # the first radial rules of the first angular rule's rays
        assert all(len(s) == 2 and s[0] > 1 and s[0] % 21 == 0 for s in shapes), shapes

    def test_bisected_rules_read_the_scalar_values(self, monkeypatch, tri_space):
        # a weight that decays fast along the ray and peaks in one direction makes
        # QUADPACK bisect both the radial and the angular rules
        def scale(v):
            r = math.hypot(*v)
            return math.exp(-30.0 * r - 5.0 * (1.0 + v[0] / r))

        varying = scaled_det_g(measure.finsler_state, scale)
        _, shapes = record_shapes(monkeypatch, varying)
        x = np.array([0.1, 0.3])
        disc = indicatrix_reduction_check(tri_space, x, "det")["disc"]
        assert (42, 2) in shapes and (21 * 42, 2) in shapes
        assert all(s[0] > 1 for s in shapes)
        assert disc == self.scalar_disc(tri_space, x, varying)

    def test_a_failing_batch_raises_the_scalar_runs_error(self, monkeypatch, bi_const):
        # nodes beyond r = 0.3 fail
        failing = failing_beyond(measure.finsler_state, 0.3, lambda v: math.hypot(*v))
        _, shapes = record_shapes(monkeypatch, failing)
        with pytest.raises(NonFiniteSampleError) as batched:
            indicatrix_reduction_check(bi_const, ORIGIN, "det")
        assert (21, 2) in shapes
        with pytest.raises(NonFiniteSampleError) as scalar:
            self.scalar_disc(bi_const, np.array(ORIGIN), failing)
        assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("name, calls", [("single", 0), ("bimetric", 27), ("trimetric", 24)])
def test_measures_suite_quadpack_calls(monkeypatch, name, calls):
    # QUADPACK runs only where its first rule does not settle an integral: for the disc
    # oracle's rays, _first_rule settles every ray of these configs but a few; one call
    # per ray made 192, 1,833 and 1,872 calls
    cfg = load_config(REPO / "configs" / f"{name}.json")
    counter = count_calls(monkeypatch, measure, "_quad")
    run_suite(cfg, "measures")
    assert counter[0] == calls
