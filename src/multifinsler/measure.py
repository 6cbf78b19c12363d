"""Closed-form Holmes-Thompson and Busemann-Hausdorff measures in 2D.

The closed forms reduce everything to the characteristic pair of a 2x2 SPD
pencil det(A - lambda B) = 0 and complete elliptic integrals, computed by
arithmetic-geometric-mean iteration.  Independent quadrature oracles are kept
for every closed form: infinite-range integrals are compactified with
t = tan(theta) and integrated adaptively; circle integrals use either adaptive
quadrature or the trapezoid rule on the periodic integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .finsler import (
    SAMPLE_ERRORS,
    MultiMetricSpace,
    TangentSample,
    fd_fundamental_tensor,
    finsler_state,
    require_2d,
)
from .riemann import symmetric_polynomials

AGM_TOL = 1e-15
AGM_MAX_ITER = 40
QUAD_ABS = 1e-11
RADIAL_TOL = 1e-10  # epsabs = epsrel of the sublevel-set (disc) integral
# closed Busemann-Hausdorff form divides by powers of alpha - beta; route to
# quadrature when the pencil is too close to lambda = 1 or to proportionality
DEGENERACY_TOL = 1e-6


class DegeneratePairError(Exception):
    """Closed Busemann-Hausdorff form inapplicable; use busemann_hausdorff_quadrature."""


@dataclass(frozen=True)
class EllipticPair:
    """Characteristic roots of det(A - lambda B) = 0 for an SPD 2x2 pencil."""

    lam_plus: float
    lam_minus: float

    def __post_init__(self):
        if not (self.lam_plus >= self.lam_minus > 0.0):
            raise ValueError(f"invalid characteristic pair ({self.lam_plus}, {self.lam_minus})")

    @property
    def modulus(self) -> float:
        """k = sqrt(1 - lam_minus/lam_plus) in [0, 1)."""
        return math.sqrt(max(0.0, 1.0 - self.lam_minus / self.lam_plus))


def lambda_pair(A, B) -> EllipticPair:
    """Characteristic pair of det(A - lambda B) = 0 via symmetric polynomials."""
    e1, e2 = symmetric_polynomials(A, B)
    disc = math.sqrt(max(0.0, e1 * e1 - 4.0 * e2))
    return EllipticPair((e1 + disc) / (2.0 * e2), (e1 - disc) / (2.0 * e2))


def complete_elliptic_k(k: float) -> float:
    """K(k) by AGM iteration, k in [0, 1)."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus k={k} outside [0, 1)")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(AGM_MAX_ITER):
        if abs(a - b) <= AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def complete_elliptic_e(k: float) -> float:
    """E(k) by AGM iteration, k in [0, 1]; E(1) = 1 is the closed endpoint."""
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus k={k} outside [0, 1]")
    if k == 1.0:
        return 1.0
    a, b, c = 1.0, math.sqrt(1.0 - k * k), k
    csum = 0.5 * c * c
    power = 1.0
    for _ in range(AGM_MAX_ITER):
        if abs(a - b) <= AGM_TOL * a and c <= AGM_TOL:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum += 0.5 * power * c * c
    return math.pi / (2.0 * a) * (1.0 - csum)


def elliptic_k_quadrature(k: float) -> float:
    """Defining integral of K(k), adaptive quadrature; test oracle."""
    val, _ = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, math.pi / 2.0,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


def elliptic_e_quadrature(k: float) -> float:
    """Defining integral of E(k), adaptive quadrature; test oracle."""
    val, _ = integrate.quad(
        lambda t: math.sqrt(max(0.0, 1.0 - (k * math.sin(t)) ** 2)), 0.0, math.pi / 2.0,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


def _form(M: np.ndarray, theta: float) -> float:
    """Quadratic form at the unit vector (sin theta, cos theta)."""
    s, c = math.sin(theta), math.cos(theta)
    return M[0, 0] * s * s + 2.0 * M[0, 1] * s * c + M[1, 1] * c * c


def pencil_integrals(A, B) -> tuple[float, float]:
    """The two canonical pencil integrals over the real line:

        first  = integral dt / sqrt(a(t) b(t))
        second = integral sqrt(a(t)) / b(t)^(3/2) dt

    with a(t) = A11 t^2 + 2 A12 t + A22 and likewise b(t).  The closed forms
    are 2 sqrt(lam_-/det A) K(k) and 2 lam_+ sqrt(lam_-/det A) E(k)
    (equivalently 2 sqrt(lam_+/det B) E(k)) with the characteristic pair of
    det(A - lambda B) = 0 and k the pencil modulus.
    """
    A = np.asarray(A, dtype=float)
    pair = lambda_pair(A, np.asarray(B, dtype=float))
    k = pair.modulus
    det_a = float(np.linalg.det(A))
    first = 2.0 * math.sqrt(pair.lam_minus / det_a) * complete_elliptic_k(k)
    second = 2.0 * pair.lam_plus * math.sqrt(pair.lam_minus / det_a) * complete_elliptic_e(k)
    return first, second


def pencil_integrals_quadrature(A, B) -> tuple[float, float]:
    """The two pencil integrals by adaptive quadrature; oracle of pencil_integrals."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    # t = tan(theta) removes the improper endpoints analytically
    first, _ = integrate.quad(
        lambda th: 1.0 / math.sqrt(_form(A, th) * _form(B, th)),
        -math.pi / 2.0, math.pi / 2.0, epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400,
    )
    second, _ = integrate.quad(
        lambda th: math.sqrt(_form(A, th)) / _form(B, th) ** 1.5,
        -math.pi / 2.0, math.pi / 2.0, epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400,
    )
    return first, second


@dataclass(frozen=True)
class MeasureReport:
    """A measure value with its per-term breakdown."""

    value: float
    method: str
    diagonal_terms: tuple[float, ...] = ()
    cross_terms: tuple[dict, ...] = ()
    parts: dict = field(default_factory=dict)
    fallback: bool = False


def _norm_on_circle(a_mu: np.ndarray, theta: float) -> float:
    # Not finsler.sector_norms: its einsum rounds differently from y @ a @ y,
    # which moves the stored indicatrix-reduction residuals by ~1e-17.
    y = np.array([math.cos(theta), math.sin(theta)])
    return float(sum(math.sqrt(float(y @ a @ y)) for a in a_mu))


def holmes_thompson(space: MultiMetricSpace, x) -> MeasureReport:
    """Holmes-Thompson measure density at x: the sector volume factors
    sqrt(det a_mu) plus one elliptic cross term per ordered pair of sectors."""
    require_2d(space.dim)
    a_mu, _, a_det = space.metric_values(np.asarray(x, dtype=float))
    nm = space.n_metrics
    diag = tuple(float(np.sqrt(d)) for d in a_det)
    cross = []
    total = float(sum(diag))
    for mu in range(nm):
        for nu in range(nm):
            if mu == nu:
                continue
            pair = lambda_pair(a_mu[nu], a_mu[mu])
            e_val = complete_elliptic_e(pair.modulus)
            term = (2.0 / math.pi) * math.sqrt(a_det[mu] * pair.lam_plus) * e_val
            cross.append({
                "mu": mu, "nu": nu, "lam_plus": pair.lam_plus,
                "lam_minus": pair.lam_minus, "modulus": pair.modulus,
                "E": e_val, "term": term,
            })
            total += term
    return MeasureReport(value=total, method="closed",
                         diagonal_terms=diag, cross_terms=tuple(cross))


def holmes_thompson_disc_oracle(space: MultiMetricSpace, x) -> float:
    """Holmes-Thompson density as the integral of det g over the unit sublevel
    set of the norm divided by pi, by polar reduction with the radial integral
    done analytically per ray."""
    require_2d(space.dim)
    # 0-homogeneity of det g makes the radial integral exact per ray:
    # integral_{F<=1} det g = (1/2) integral det g(theta) / F(theta)^2 dtheta
    return float(_circle_integral(space, np.asarray(x, dtype=float), "det") * (0.5 / math.pi))


def _circle_integral(space: MultiMetricSpace, x: np.ndarray, weight: str) -> float:
    """integral over [0, 2 pi] of w / F^2 on the unit circle at x, w = 1 ('one') or det g ('det'),
    by adaptive quadrature."""

    def integrand(theta):
        y = np.array([math.cos(theta), math.sin(theta)])
        st = finsler_state(space, TangentSample(x, y))
        return (1.0 if weight == "one" else st.det_g) / st.F**2

    val, _ = integrate.quad(integrand, 0.0, 2.0 * math.pi,
                            epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400)
    return val


def holmes_thompson_circle_oracle(space: MultiMetricSpace, x) -> float:
    """Holmes-Thompson density as the circle integral of det g / F^2 divided by
    2 pi, by the periodic trapezoid rule with g from the FD Hessian oracle."""
    require_2d(space.dim)
    x = np.asarray(x, dtype=float)
    a_mu, _, _ = space.metric_values(x)
    m = 512
    thetas = np.arange(m) * (2.0 * math.pi / m)
    y = np.array([[math.cos(th), math.sin(th)] for th in thetas])
    f2 = np.array([_norm_on_circle(a_mu, th) ** 2 for th in thetas])
    vals = np.linalg.det(fd_fundamental_tensor(space, x, y)) / f2
    return float(vals.mean())  # (1/pi) * (1/2) * integral = mean over the circle


def busemann_hausdorff_quadrature(space: MultiMetricSpace, x) -> float:
    """Busemann-Hausdorff density 2 pi / integral F^-2 dtheta by adaptive quadrature."""
    require_2d(space.dim)
    a_mu, _, _ = space.metric_values(np.asarray(x, dtype=float))

    def inv_f2(theta):
        return 1.0 / _norm_on_circle(a_mu, theta) ** 2

    val, _ = integrate.quad(inv_f2, 0.0, 2.0 * math.pi,
                            epsabs=1e-13, epsrel=1e-13, limit=400)
    return 2.0 * math.pi / val


def busemann_hausdorff_bimetric(space: MultiMetricSpace, x) -> MeasureReport:
    """Busemann-Hausdorff density of a two-metric space by the trace/elliptic
    split in the difference metric alpha - beta.

    Raises DegeneratePairError when that difference is close to singular or
    indefinite, or the pair close to proportional.
    """
    require_2d(space.dim)
    if space.n_metrics != 2:
        raise ValueError("busemann_hausdorff_bimetric requires exactly two metrics")
    alpha, beta = space.metric_values(np.asarray(x, dtype=float))[0]

    pair = lambda_pair(alpha, beta)
    near_unit = min(abs(pair.lam_plus - 1.0), abs(pair.lam_minus - 1.0))
    scale = max(pair.lam_plus, 1.0)
    if pair.lam_plus / pair.lam_minus - 1.0 < DEGENERACY_TOL or near_unit < DEGENERACY_TOL * scale:
        raise DegeneratePairError(
            "alpha - beta is singular or the pair is near proportional; "
            "use busemann_hausdorff_quadrature"
        )
    h_minus = alpha - beta
    ev = np.linalg.eigvalsh(h_minus)
    if ev[0] * ev[-1] <= 0.0:
        raise DegeneratePairError(
            "alpha - beta is indefinite; the closed split diverges, use busemann_hausdorff_quadrature"
        )
    if ev[-1] < 0.0:  # negative definite: swap roles, the measure is symmetric
        alpha, beta = beta, alpha
        h_minus = -h_minus
    h_plus = alpha + beta

    det_hm = float(np.linalg.det(h_minus))
    a_part = 0.5 * float(np.trace(h_plus @ np.linalg.inv(h_minus))) / math.sqrt(det_hm)

    def integrand(theta):
        return math.sqrt(_form(alpha, theta) * _form(beta, theta)) / _form(h_minus, theta) ** 2

    # circle average: 1/F^2 = F_+^2/F_-^4 - 2 F_a F_b / F_-^4, and the
    # second term integrates to exactly one copy of the line integral
    # (cross-checked against quadrature; proportional pairs give the
    # Riemannian value only with this normalization)
    b_int, _ = integrate.quad(integrand, -math.pi / 2.0, math.pi / 2.0,
                              epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400)
    b_part = -(2.0 / math.pi) * b_int
    value = 1.0 / (a_part + b_part)
    return MeasureReport(
        value=float(value), method="closed_bimetric",
        parts={"trace_part": float(a_part), "elliptic_part": float(b_part),
               "indicatrix_area_over_pi": float(a_part + b_part)},
    )


def busemann_hausdorff(space: MultiMetricSpace, x) -> MeasureReport:
    """Busemann-Hausdorff density at x.

    Two metrics use busemann_hausdorff_bimetric; any other count, or a pair
    that form rejects as degenerate, uses busemann_hausdorff_quadrature, and
    the report's fallback flag records the rejected pair.
    """
    fallback = False
    if space.n_metrics == 2:
        try:
            return busemann_hausdorff_bimetric(space, x)
        except DegeneratePairError:
            fallback = True
    value = busemann_hausdorff_quadrature(space, x)
    return MeasureReport(value=value, method="quadrature",
                         parts={"indicatrix_area_over_pi": math.pi / value}, fallback=fallback)


def _radial_integral(weight_at, r_max: float) -> float:
    """integral_0^r_max w(r) r dr by adaptive quadrature, where weight_at(r)
    gives w at an array of radii, each radius as it gives w alone.

    QUADPACK places the 21 nodes of its first Gauss-Kronrod rule by the
    bounds alone, and a zero integrand stops after that rule, so a dry run
    lists the nodes the real run asks for first.  They are evaluated in one
    call, and the real run reads them back; a node of a later, bisected rule
    is evaluated as a batch of one.  If the batch raises a per-sample error,
    the nodes are evaluated one by one in the dry run's order, so the first
    failing node raises what it raises alone.
    """
    nodes = []
    integrate.quad(lambda r: nodes.append(r) or 0.0, 0.0, r_max, epsabs=RADIAL_TOL, epsrel=RADIAL_TOL)
    radii = np.array(nodes)
    try:
        table = dict(zip(nodes, weight_at(radii)))
    except SAMPLE_ERRORS:
        table = {r: weight_at(radii[k:k + 1])[0] for k, r in enumerate(nodes)}

    def integrand(r):
        w = table.get(r)
        return (weight_at(np.array([r]))[0] if w is None else w) * r

    val, _ = integrate.quad(integrand, 0.0, r_max, epsabs=RADIAL_TOL, epsrel=RADIAL_TOL)
    return val


def indicatrix_reduction_check(space: MultiMetricSpace, x, weight: str = "one") -> dict:
    """Residual of the sublevel-set vs unit-circle reduction for f in {1, det g}.

    The left side is a genuine 2D adaptive quadrature over the unit sublevel
    set of the norm in polar coordinates, the nested quad calls of
    scipy's dblquad with each radial rule's nodes evaluated in one batch;
    the right side is the circle integral of f(det g)/F^2.
    """
    require_2d(space.dim)
    if weight not in ("one", "det"):
        raise ValueError("weight must be 'one' or 'det'")
    x = np.asarray(x, dtype=float)
    a_mu, _, _ = space.metric_values(x)

    def weight_along(theta):
        unit = np.array([math.cos(theta), math.sin(theta)])
        if weight == "one":
            return np.ones_like
        return lambda r: finsler_state(
            space, TangentSample(np.tile(x, (len(r), 1)), r[:, None] * unit)).det_g

    def r_max(theta):
        return 1.0 / _norm_on_circle(a_mu, theta)

    disc, _ = integrate.quad(lambda theta: _radial_integral(weight_along(theta), r_max(theta)),
                             0.0, 2.0 * math.pi, epsabs=RADIAL_TOL, epsrel=RADIAL_TOL)

    circ = _circle_integral(space, x, weight) * 0.5
    return {
        "disc": float(disc),
        "circle": float(circ),
        "residual": float(abs(disc - circ)),
        "weight": weight,
    }
