import re
from pathlib import Path

import numpy as np
import pytest

from multifinsler.config import load_config
from multifinsler.dim2 import gauss_curvature
from multifinsler.expr import EvalDomainError, differentiate
from multifinsler.riemann import (
    MetricField,
    NotPositiveDefiniteError,
    christoffels_and_spray,
    spd_inverse_det,
    symmetric_polynomials,
)

from conftest import const_field, field, random_spd, space_of
from expr_reference import evaluate

REPO = Path(__file__).resolve().parent.parent


class TestEvaluateMetric:
    def test_identity(self):
        f = const_field("id", np.eye(2))
        a, inv, det = f.spd_value([0.3, -0.7])
        assert np.allclose(a, np.eye(2))
        assert np.allclose(inv, np.eye(2))
        assert det == pytest.approx(1.0)

    def test_diagonal_x_dependent(self):
        f = field("m", [["4", "0"], ["0", "1+x1^2"]])
        a, inv, det = f.spd_value([1.0, 0.0])
        assert np.allclose(a, np.diag([4.0, 2.0]))
        assert np.allclose(inv, np.diag([0.25, 0.5]))
        assert det == pytest.approx(8.0)

    def test_inverse_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = const_field("r", random_spd(rng))
            a, inv, _ = f.spd_value([0.0, 0.0])
            assert np.max(np.abs(inv @ a - np.eye(2))) < 1e-12

    def test_not_positive_definite(self):
        f = field("bad", [["1", "0"], ["0", "0-1"]])
        with pytest.raises(NotPositiveDefiniteError):
            f.spd_value([0.0, 0.0])

    @pytest.mark.parametrize("entry", [-np.inf, np.inf, np.nan])
    def test_a_non_finite_matrix_is_rejected_at_the_first_failing_pair(self, entry):
        # an infinite entry makes every eigenvalue NaN, which fails no comparison, and a NaN
        # entry can give finite eigenvalues; the later not-positive-definite pair comes second
        a = np.array([[np.eye(2), np.eye(2)],
                      [np.eye(2), np.diag([entry, 1.0])],
                      [np.diag([-1.0, 1.0]), np.eye(2)]])
        x = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError,
                           match=re.escape("metric 'beta' is not finite at x=[0.5, -0.5] (matrix [[")):
            spd_inverse_det(a, x, ("alpha", "beta"))
        with pytest.raises(NotPositiveDefiniteError, match=re.escape("metric 'alpha' is not positive definite")):
            spd_inverse_det(a[::2], x[::2], ("alpha", "beta"))

    @pytest.mark.parametrize("method", ["value", "derivative", "second_derivative", "spd_value"])
    def test_a_float64_point_overflows_as_a_list_does(self, method):
        # on numpy scalars the power would overflow with a RuntimeWarning, not an EvalDomainError
        f = field("steep", [["1+x1^400", "0"], ["0", "1"]])
        for x in ([100.0, 0.0], np.array([100.0, 0.0])):
            with pytest.raises(EvalDomainError, match=r"^overflow in 'x1\^"):
                getattr(f, method)(x)

    def test_a_negative_derivative_order_is_rejected(self):
        # a list index of -1 would return the highest order built so far, or fail on a fresh field
        message = re.escape("metric 'beta': derivative order -1 is below 0")
        fresh = field("beta", [["4", "0"], ["0", "1+x1^2"]])
        with pytest.raises(ValueError, match=message):
            fresh.evaluator(-1)
        built = space_of(field("alpha", [["2+x1", "0"], ["0", "1"]]), field("beta", [["4", "0"], ["0", "1+x1^2"]]))
        built.metric_derivatives([0.1, 0.2], 2)
        with pytest.raises(ValueError, match=re.escape("metric 'alpha': derivative order -1 is below 0")):
            built.metrics[0].evaluator(-1)
        with pytest.raises(ValueError, match=re.escape("metric 'alpha': derivative order -2 is below 0")):
            built.metric_derivatives([0.1, 0.2], -2)
        with pytest.raises(ValueError, match=message):
            space_of(fresh).metric_derivatives(np.zeros((3, 2)), -1)

    def test_asymmetric_components_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            field("a", [["1", "x1"], ["x2", "1"]])


class TestChristoffels:
    def test_constant_metric_flat(self):
        f = const_field("c", [[2.0, 0.3], [0.3, 1.5]])
        gamma, spray, nonlin = christoffels_and_spray(f, [0.1, 0.2], [1.0, -1.0])
        assert np.max(np.abs(gamma)) == 0.0
        assert np.max(np.abs(spray)) == 0.0

    def test_polar_style_metric(self):
        f = field("polar", [["1", "0"], ["0", "x1^2"]])
        gamma, spray, nonlin = christoffels_and_spray(f, [2.0, 0.0], [0.0, 1.0])
        assert gamma[0, 1, 1] == pytest.approx(-2.0)
        assert gamma[1, 0, 1] == pytest.approx(0.5)
        assert spray[0] == pytest.approx(-2.0)

    def test_round_sphere_origin(self):
        comp = "4/(1+x1^2+x2^2)^2"
        f = field("s", [[comp, "0"], ["0", comp]])
        gamma, _, _ = christoffels_and_spray(f, [0.0, 0.0], [1.0, 1.0])
        assert np.max(np.abs(gamma)) < 1e-14

    def test_lower_index_symmetry(self):
        f = field("m", [["1+x2^2", "0.2*x1"], ["0.2*x1", "2+x1^2"]])
        gamma, _, _ = christoffels_and_spray(f, [0.4, -0.3], [1.0, 0.0])
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) == 0.0

    def test_symbolic_vs_finite_difference(self):
        # 200 random samples; FD of metric components as the independent route
        f = field("m", [["1+0.3*x1^2+0.1*x2", "0.2*x1*x2"], ["0.2*x1*x2", "2+0.4*x2^2"]])
        rng = np.random.default_rng(5)
        h = 1e-6
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-1, 1, size=2)
            _, inv, _ = f.spd_value(x)
            dA = np.empty((2, 2, 2))
            for s in range(2):
                xp, xm = x.copy(), x.copy()
                xp[s] += h
                xm[s] -= h
                dA[s] = f.value(xp) - f.value(xm)
            dA /= 2 * h
            gamma_fd = 0.5 * (
                np.einsum("il,jlk->ijk", inv, dA)
                + np.einsum("il,klj->ijk", inv, dA)
                - np.einsum("il,ljk->ijk", inv, dA)
            )
            gamma, _, _ = christoffels_and_spray(f, x, np.array([1.0, 0.0]))
            worst = max(worst, float(np.max(np.abs(gamma - gamma_fd))))
        assert worst <= 1e-7

    def test_spray_homogeneity(self):
        f = field("m", [["1+0.3*x1^2", "0"], ["0", "2+0.4*x2^2"]])
        x = np.array([0.5, -0.2])
        y = np.array([0.7, 0.4])
        _, g1, _ = christoffels_and_spray(f, x, y)
        for lam in (0.5, 2.0, 3.0):
            _, g2, _ = christoffels_and_spray(f, x, lam * y)
            assert np.max(np.abs(g2 - lam**2 * g1)) <= 1e-12 * max(1.0, np.max(np.abs(g2)))


class TestGaussCurvature:
    def test_flat(self):
        assert gauss_curvature(space_of(const_field("f", np.eye(2))), [0.1, 0.9])[0] == pytest.approx(0.0, abs=1e-10)

    def test_constant_metric_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            f = const_field("c", random_spd(rng))
            assert abs(gauss_curvature(space_of(f), rng.uniform(-1, 1, 2))[0]) <= 1e-10

    def test_round_sphere(self):
        comp = "4/(1+x1^2+x2^2)^2"
        f = field("s", [[comp, "0"], ["0", comp]])
        for x in ([0.0, 0.0], [0.3, -0.4], [0.9, 0.8]):
            assert gauss_curvature(space_of(f), x)[0] == pytest.approx(1.0, abs=1e-10)

    def test_hyperbolic_half_plane(self):
        f = field("h", [["1/x2^2", "0"], ["0", "1/x2^2"]])
        for x in ([0.0, 0.5], [0.4, 1.7], [-1.2, 0.3]):
            assert gauss_curvature(space_of(f), x)[0] == pytest.approx(-1.0, abs=1e-10)

    def test_polar_coordinates_flat(self):
        f = field("p", [["1", "0"], ["0", "x1^2"]])
        assert gauss_curvature(space_of(f), [1.7, 0.4])[0] == pytest.approx(0.0, abs=1e-12)

    def test_requires_2d(self):
        f = field("one", [["1"]], ["t"])
        with pytest.raises(ValueError):
            gauss_curvature(space_of(f), [0.0])


class TestSymmetricPolynomials:
    def test_identity_and_diagonal(self):
        e1, e2 = symmetric_polynomials(np.eye(2), np.diag([4.0, 1.0]))
        assert (e1, e2) == (pytest.approx(5.0), pytest.approx(4.0))

    def test_equal_matrices(self):
        a = np.array([[2.0, 0.4], [0.4, 1.0]])
        e1, e2 = symmetric_polynomials(a, a)
        assert e1 == pytest.approx(2.0)
        assert e2 == pytest.approx(1.0)

    def test_determinant_identity(self):
        # det A * e2(A^-1 B) = det B
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = random_spd(rng), random_spd(rng)
            _, e2 = symmetric_polynomials(a, b)
            lhs = np.linalg.det(a) * e2
            rhs = np.linalg.det(b)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_positive(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            e1, e2 = symmetric_polynomials(random_spd(rng), random_spd(rng))
            assert e1 > 0 and e2 > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetric_polynomials(np.eye(3), np.eye(3))


def _loop_reference(f: MetricField):
    """The component loops of value, derivative and second_derivative as written
    before they shared one table, each entry walked by the tree evaluator of
    expr_reference at the point as Python floats: the reference the table must
    reproduce bit for bit."""
    n = f.dim
    dex = [[[differentiate(f.components[i][j], s, n) for j in range(n)] for i in range(n)] for s in range(n)]
    d2ex = [[[[differentiate(dex[s][i][j], t, n) for j in range(n)] for i in range(n)] for t in range(n)]
            for s in range(n)]

    def value(x):
        x, out = np.asarray(x).tolist(), np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                out[i, j] = out[j, i] = evaluate(f.components[i][j], x)
        return out

    def derivative(x):
        x, out = np.asarray(x).tolist(), np.empty((n, n, n))
        for s in range(n):
            for i in range(n):
                for j in range(i, n):
                    out[s, i, j] = out[s, j, i] = evaluate(dex[s][i][j], x)
        return out

    def second_derivative(x):
        x, out = np.asarray(x).tolist(), np.empty((n, n, n, n))
        for s in range(n):
            for t in range(n):
                for i in range(n):
                    for j in range(i, n):
                        out[s, t, i, j] = out[s, t, j, i] = evaluate(d2ex[s][t][i][j], x)
        return out

    return {"value": value, "derivative": derivative, "second_derivative": second_derivative}


def _parity_fields():
    fields = []
    for name in ("single", "bimetric", "trimetric"):
        fields += load_config(REPO / "configs" / f"{name}.json").space.metrics
    xyz = ("x1", "x2", "x3")
    fields.append(field("cubic", [["2+x1^2*x3", "sin(x2)*x1", "0.1*x3"],
                                  ["sin(x2)*x1", "3+exp(x1*x2)", "x1*x2*x3"],
                                  ["0.1*x3", "x1*x2*x3", "4+cos(x3)^2"]], coords=xyz))
    return fields


class TestComponentTable:
    """value, derivative and second_derivative equal the hand-written loops bit for bit."""

    @pytest.mark.parametrize("method", ["value", "derivative", "second_derivative"])
    def test_table_equals_the_component_loops(self, method):
        rng = np.random.default_rng(90)
        for f in _parity_fields():
            ref = _loop_reference(f)[method]
            for _ in range(10):
                x = rng.uniform(-0.9, 0.9, f.dim)
                got = getattr(f, method)(x)
                assert got.shape == (f.dim,) * got.ndim
                assert np.array_equal(got, ref(x)), (f.name, x)

    @pytest.mark.parametrize("method", ["value", "derivative", "second_derivative"])
    def test_first_domain_error_is_the_loops_first(self, method):
        # at x = (-1, 0) several components and derivatives fail, each with its own
        # message; d/dx2 of a_00 fails too, so a table ordered by component first
        # would raise another error than the loops
        f = field("logs", [["2+sqrt(x2)", "log(x1+1)+x2"], ["log(x1+1)+x2", "sqrt(-x1-2)"]])
        x = np.array([-1.0, 0.0])
        with pytest.raises(EvalDomainError) as expected:
            _loop_reference(f)[method](x)
        with pytest.raises(EvalDomainError) as got:
            getattr(f, method)(x)
        assert str(got.value) == str(expected.value)
