"""Closed-form Holmes-Thompson and Busemann-Hausdorff measures in 2D.

The closed forms reduce everything to the characteristic pair of a 2x2 SPD
pencil det(A - lambda B) = 0 and complete elliptic integrals, computed by
arithmetic-geometric-mean iteration.  Independent quadrature oracles are kept
for every closed form: circle integrals use either adaptive quadrature or the
trapezoid rule on the periodic integrand, and the sublevel-set integral is a
nested adaptive quadrature in polar coordinates.

The adaptive circle and disc oracles run QUADPACK through _quad_in_batches,
which evaluates the nodes of each Gauss-Kronrod rule, or of the two rules of
a bisection, in one batched call and gives QUADPACK each node's value bit for
bit as one call per node gives it.  scipy is imported where a
quadrature runs, so commands that take none do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .finsler import (
    SAMPLE_ERRORS,
    MultiMetricSpace,
    TangentSample,
    _power,
    fd_fundamental_tensor,
    finsler_state,
    require_2d,
    rows_or_first_error,
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


def _form(M: np.ndarray, theta: float) -> float:
    """Quadratic form at the unit vector (sin theta, cos theta)."""
    s, c = math.sin(theta), math.cos(theta)
    return M[0, 0] * s * s + 2.0 * M[0, 1] * s * c + M[1, 1] * c * c


@dataclass(frozen=True)
class MeasureReport:
    """A measure value with its per-term breakdown."""

    value: float
    method: str
    diagonal_terms: tuple[float, ...] = ()
    cross_terms: tuple[dict, ...] = ()
    parts: dict = field(default_factory=dict)
    fallback: bool = False


def _unit_vectors(thetas) -> np.ndarray:
    """The unit vectors (cos theta, sin theta) as rows."""
    return np.array([[math.cos(t), math.sin(t)] for t in thetas])


def _circle_norms(a_mu: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F = sum_mu sqrt(y' a_mu y) at the rows of y (m, 2), one pass per sector.

    Not finsler.sector_norms: its einsum rounds differently from y @ a @ y,
    which moves the stored indicatrix-reduction residuals by ~1e-17.
    np.vecmat then np.vecdot keep the bits of y @ a @ y on each row."""
    f = 0.0
    for a in a_mu:
        f = f + np.sqrt(np.vecdot(np.vecmat(y, a), y))
    return f


def _quad(f, a: float, b: float, **quad_kwargs):
    """scipy's adaptive quad, imported on first use: commands that run no quadrature
    do not load scipy."""
    from scipy import integrate

    return integrate.quad(f, a, b, **quad_kwargs)


def _rule_nodes(a: float, b: float, quad_kwargs: dict) -> list[float]:
    """The 21 nodes of QUADPACK's first Gauss-Kronrod rule on [a, b], in the order it
    asks for them: a zero integrand stops after that rule."""
    nodes = []
    _quad(lambda t: nodes.append(t) or 0.0, a, b, **quad_kwargs)
    return nodes


def _quad_in_batches(values_at, a: float, b: float, first: dict | None = None, **quad_kwargs) -> float:
    """The adaptive quad of f over [a, b], where values_at(t) gives f at an array of
    nodes t, each node as f gives it alone; first, if given, maps the nodes of the
    first rule to their values.

    QUADPACK places the nodes of a rule by its bounds alone, so a dry run lists the
    first rule's nodes.  When it bisects [lo, hi] at mid = 0.5 * (lo + hi), the first
    node it asks for is the centre of [lo, mid], and then it takes the rules of both
    halves.  So each evaluated interval is keyed by its left half's centre; when that
    node is asked for, dry runs list the 42 nodes of both halves and they are
    evaluated in one call.  The real run reads every value back, and a node that
    matches nothing is evaluated as a batch of one.  A batch that raises a per-sample
    error is evaluated node by node in the order QUADPACK asks for them, so the
    first failing node raises what it raises alone.
    """
    table, split = {}, {}

    def evaluate(intervals, known=None):
        if known is None:
            nodes = [t for lo, hi in intervals for t in _rule_nodes(lo, hi, quad_kwargs)]
            known = zip(nodes, rows_or_first_error(values_at, np.array(nodes)))
        table.update(known)
        for lo, hi in intervals:
            mid = 0.5 * (lo + hi)
            split[0.5 * (lo + mid)] = ((lo, mid), (mid, hi))

    evaluate([(a, b)], first)

    def integrand(t):
        if t in split:
            evaluate(split.pop(t))
        value = table.get(t)
        return values_at(np.array([t]))[0] if value is None else value

    return _quad(integrand, a, b, **quad_kwargs)[0]


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

    def values_at(thetas):
        y = _unit_vectors(thetas)
        st = finsler_state(space, TangentSample(np.tile(x, (len(y), 1)), y))
        return (1.0 if weight == "one" else st.det_g) / _power(st.F, 2)

    return _quad_in_batches(values_at, 0.0, 2.0 * math.pi, epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400)


def holmes_thompson_circle_oracle(space: MultiMetricSpace, x) -> float:
    """Holmes-Thompson density as the circle integral of det g / F^2 divided by
    2 pi, by the periodic trapezoid rule with g from the FD Hessian oracle."""
    require_2d(space.dim)
    x = np.asarray(x, dtype=float)
    a_mu, _, _ = space.metric_values(x)
    m = 512
    thetas = np.arange(m) * (2.0 * math.pi / m)
    y = _unit_vectors(thetas)
    f2 = _power(_circle_norms(a_mu, y), 2)
    vals = np.linalg.det(fd_fundamental_tensor(space, x, y)) / f2
    return float(vals.mean())  # (1/pi) * (1/2) * integral = mean over the circle


def busemann_hausdorff_quadrature(space: MultiMetricSpace, x) -> float:
    """Busemann-Hausdorff density 2 pi / integral F^-2 dtheta by adaptive quadrature."""
    require_2d(space.dim)
    a_mu, _, _ = space.metric_values(np.asarray(x, dtype=float))

    def inv_f2(thetas):
        return 1.0 / _power(_circle_norms(a_mu, _unit_vectors(thetas)), 2)

    return 2.0 * math.pi / _quad_in_batches(inv_f2, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=400)


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
    b_int, _ = _quad(integrand, -math.pi / 2.0, math.pi / 2.0,
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


def indicatrix_reduction_check(space: MultiMetricSpace, x, weight: str = "one") -> dict:
    """Residual of the sublevel-set vs unit-circle reduction for f in {1, det g}.

    The left side is a genuine 2D adaptive quadrature over the unit sublevel
    set of the norm in polar coordinates, the nested quad calls of scipy's
    dblquad.  Each rule of the angular quad asks for the radial integrals of 21
    or 42 rays, and the first radial rules of those rays are evaluated in one
    call; the right side is the circle integral of f(det g)/F^2.
    """
    require_2d(space.dim)
    if weight not in ("one", "det"):
        raise ValueError("weight must be 'one' or 'det'")
    x = np.asarray(x, dtype=float)
    a_mu, _, _ = space.metric_values(x)
    radial = {"epsabs": RADIAL_TOL, "epsrel": RADIAL_TOL}

    def weight_at(y):
        if weight == "one":
            return np.ones(len(y))
        return finsler_state(space, TangentSample(np.tile(x, (len(y), 1)), y)).det_g

    def radial_integrals(thetas):
        """integral_0^r_max w(r) r dr along each ray, r_max = 1 / F on the unit circle."""
        units = _unit_vectors(thetas)
        r_max = (1.0 / _circle_norms(a_mu, units)).tolist()
        radii = [np.array(_rule_nodes(0.0, r, radial)) for r in r_max]
        try:
            weights = weight_at(np.concatenate([r[:, None] * u for r, u in zip(radii, units)]))
            first = [dict(zip(r.tolist(), w * r)) for r, w in zip(radii, np.split(weights, len(thetas)))]
        except SAMPLE_ERRORS:  # each ray alone, in order, raises what the scalar run raises
            first = [None] * len(thetas)
        return np.array([
            _quad_in_batches(lambda r, u=u: weight_at(r[:, None] * u) * r, 0.0, end, known, **radial)
            for u, end, known in zip(units, r_max, first)
        ])

    disc = _quad_in_batches(radial_integrals, 0.0, 2.0 * math.pi, **radial)

    circ = _circle_integral(space, x, weight) * 0.5
    return {
        "disc": float(disc),
        "circle": float(circ),
        "residual": float(abs(disc - circ)),
        "weight": weight,
    }
