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
bit as one call per node gives it.  QUADPACK is called only where its first
rule does not settle the integral: _first_rule repeats that first step, the
21-point rule and the first acceptance test, for a stack of integrals at once,
with quad's bits, so the disc oracle's radial integrals of 21 or 42 rays are
one pass.  scipy is imported where a quadrature runs, so commands that take
none do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .finsler import (
    SAMPLE_ERRORS,
    MultiMetricSpace,
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


# QUADPACK's 21-point Kronrod abscissae (qk21's xgk), the Gauss nodes at odd k, and
# the order qk21 takes them in: the Gauss nodes, then the Kronrod nodes
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_XGK_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# qk21's weights: wg of the 10-point Gauss rule at xgk[1], xgk[3], ..., xgk[9], and
# wgk of the 21-point Kronrod rule at xgk[0], ..., xgk[9], then at the centre
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208626368920, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG_ROW, _WGK_ROW = np.array(_WG), np.array(_WGK[:10])
_WGK_TAKEN = np.array([_WGK[k] for k in _XGK_ORDER])
_XGK_PLACE = [_XGK_ORDER.index(k) for k in range(10)]  # where xgk[k]'s pair sits in a row of nodes
_EPMACH, _UFLOW = float(np.finfo(float).eps), float(np.finfo(float).tiny)  # d1mach(4), d1mach(1)


def _rule_nodes(a, b) -> list:
    """The 21 nodes of QUADPACK's Gauss-Kronrod rule qk21 on [a, b], in the order it
    asks for them: the centre, then centr -/+ hlgth * xgk[k] at the Gauss nodes and
    then at the Kronrod nodes, computed as qk21 computes them.  For floats a and b
    they are floats; where a or b is an array (R,), each node is an array (R,)."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    nodes = [centr]
    for k in _XGK_ORDER:
        absc = hlgth * _XGK[k]
        nodes += [centr - absc, centr + absc]
    return nodes


def _in_order(first: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """first + terms[:, 0] + terms[:, 1] + ... at each row, added left to right as
    qk21's loops add them (an accumulate, not a pairwise sum)."""
    return np.add.accumulate(np.concatenate((first[:, None], terms), axis=1), axis=1)[:, -1]


def _first_rule(values: np.ndarray, a, b, epsabs: float, epsrel: float) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's first step on R integrals at once: qk21 on [a_i, b_i] from the values
    (R, 21) of f at its nodes (_rule_nodes), then dqagse's first acceptance test.
    Returns which rows it settles (R,) and their values (R,), each settled value with
    the bits quad returns for it.

    The sums run in qk21's order with its constants, and the power in its error
    estimate is a float's ** (finsler._power).  dqagse stops at the first rule, with
    neval = 21 and no warning, where errbnd = max(epsabs, epsrel |result|) and abserr
    <= errbnd and abserr != resasc, or abserr = 0.  Rows holding a non-finite value,
    and rows whose sums overflow, are left to QUADPACK; so is the round-off case
    (ier = 2), which this test never accepts.  The tolerances are ones quad accepts,
    and quad's limit on subintervals is above 1.
    """
    b = np.asarray(b, dtype=float)
    hlgth = 0.5 * (b - a)
    dhlgth = np.abs(hlgth)
    fc, fv1, fv2 = values[:, 0], values[:, 1::2], values[:, 2::2]  # f(centr), f(centr -/+ absc)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row is not settled
        fsum = fv1 + fv2
        resg = _in_order(np.zeros(len(values)), _WG_ROW * fsum[:, :5])  # the Gauss pairs come first
        resk = _in_order(_WGK[10] * fc, _WGK_TAKEN * fsum)
        resabs = _in_order(np.abs(_WGK[10] * fc), _WGK_TAKEN * (np.abs(fv1) + np.abs(fv2)))
        reskh = resk * 0.5
        spread = np.abs(fv1 - reskh[:, None]) + np.abs(fv2 - reskh[:, None])
        resasc = _in_order(_WGK[10] * np.abs(fc - reskh), _WGK_ROW * spread[:, _XGK_PLACE])
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = np.abs((resk - resg) * hlgth)
        scaled = (resasc != 0.0) & (abserr != 0.0)
        ratio = 0.2e3 * abserr[scaled] / resasc[scaled]
        # min(1, ratio ** 1.5) is 1 where ratio >= 1, and ratio ** 1.5 elsewhere
        factor = np.ones_like(ratio)
        below = ratio < 1.0
        factor[below] = _power(ratio[below], 1.5)
        abserr[scaled] = resasc[scaled] * factor
        large = resabs > _UFLOW / (0.5e2 * _EPMACH)
        abserr[large] = np.maximum((_EPMACH * 0.5e2) * resabs[large], abserr[large])
        errbnd = np.maximum(epsabs, epsrel * np.abs(result))
        accepted = ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    finite = np.isfinite(values).all(axis=1) & np.isfinite(result) & np.isfinite(resasc) & np.isfinite(abserr)
    return finite & accepted, result


def _quad_in_batches(values_at, a: float, b: float, first: np.ndarray | None = None, *,
                     epsabs: float, epsrel: float, **quad_kwargs) -> float:
    """The adaptive quad of f over [a, b], where values_at(t) gives f at an array of
    nodes t, each node as f gives it alone; first, if given, holds f at the nodes of
    the first rule (_rule_nodes(a, b)).

    Where the first rule settles the integral (_first_rule), its value is returned
    and QUADPACK is not called.  Otherwise QUADPACK runs, and its rules read their
    values from a table.  QUADPACK places the nodes of a rule by its bounds alone.
    When it bisects [lo, hi] at mid = 0.5 * (lo + hi), the first node it asks for
    is the centre of [lo, mid], and then it takes the rules of both halves.  So
    each evaluated interval is keyed by its left half's centre; when that node is
    asked for, the 42 nodes of both halves are listed and evaluated in one call.
    The real run reads every value back, and a node that matches nothing is
    evaluated as a batch of one.  A batch that raises a per-sample error is
    evaluated node by node in the order QUADPACK asks for them, so the first
    failing node raises what it raises alone.
    """
    nodes = _rule_nodes(a, b)
    if first is None:
        first = rows_or_first_error(values_at, np.array(nodes))
    settled, value = _first_rule(first[None], a, b, epsabs, epsrel)
    if settled[0]:
        return float(value[0])
    table, split = {}, {}

    def evaluate(intervals, known=None):
        if known is None:
            nodes = [t for lo, hi in intervals for t in _rule_nodes(lo, hi)]
            known = zip(nodes, rows_or_first_error(values_at, np.array(nodes)))
        table.update(known)
        for lo, hi in intervals:
            mid = 0.5 * (lo + hi)
            split[0.5 * (lo + mid)] = ((lo, mid), (mid, hi))

    evaluate([(a, b)], zip(nodes, first))

    def integrand(t):
        if t in split:
            evaluate(split.pop(t))
        value = table.get(t)
        return values_at(np.array([t]))[0] if value is None else value

    return _quad(integrand, a, b, epsabs=epsabs, epsrel=epsrel, **quad_kwargs)[0]


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
        st = finsler_state(space, np.tile(x, (len(y), 1)), y)
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
        return finsler_state(space, np.tile(x, (len(y), 1)), y).det_g

    def ray(u):
        """w(r) r at the radii r along the unit vector u."""
        return lambda r: weight_at(r[:, None] * u) * r

    def radial_integrals(thetas):
        """integral_0^r_max w(r) r dr along each ray, r_max = 1 / F on the unit circle."""
        units = _unit_vectors(thetas)
        r_max = 1.0 / _circle_norms(a_mu, units)
        radii = np.stack(_rule_nodes(0.0, r_max), axis=-1)  # (rays, 21)
        try:
            values = weight_at((radii[..., None] * units[:, None, :]).reshape(-1, 2)).reshape(radii.shape) * radii
        except SAMPLE_ERRORS:  # each ray alone, in order, raises what the scalar run raises
            return np.array([_quad_in_batches(ray(u), 0.0, end, **radial) for u, end in zip(units, r_max.tolist())])
        # QUADPACK runs only on the rays whose first rule does not settle
        settled, result = _first_rule(values, 0.0, r_max, **radial)
        for k in np.flatnonzero(~settled).tolist():
            result[k] = _quad_in_batches(ray(units[k]), 0.0, float(r_max[k]), values[k], **radial)
        return result

    disc = _quad_in_batches(radial_integrals, 0.0, 2.0 * math.pi, limit=400, **radial)

    circ = _circle_integral(space, x, weight) * 0.5
    return {
        "disc": float(disc),
        "circle": float(circ),
        "residual": float(abs(disc - circ)),
        "weight": weight,
    }
