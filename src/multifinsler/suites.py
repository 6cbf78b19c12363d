"""Check suites: identity, measure and geodesic verification over sampled points.

Each check produces a keyed entry with its residual, tolerance class
(analytic / fd / nested-fd) and tolerance, read from its row of CHECKS.  Reports
are deterministic for a fixed seed; checks are keyed and sorted by name.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SpaceConfig
from .connection import (
    connection_state,
    horizontal_compatibility_residual,
    nonlinear_connection_fd,
    variational_spray,
)
from .dim2 import (
    cartan_structure_residuals,
    frame_derivatives,
    frame_from_state,
    invariants_JK,
)
from .finsler import (
    MultiMetricSpace,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    riemannian_detect,
    row_norm,
    rows_or_first_error,
)
from .geodesic import action_of_path, integrate_geodesic
from .measure import (
    busemann_hausdorff,
    busemann_hausdorff_quadrature,
    complete_elliptic_e,
    complete_elliptic_k,
    holmes_thompson,
    holmes_thompson_circle_oracle,
    holmes_thompson_disc_oracle,
    indicatrix_reduction_check,
)

TOLERANCES = {"analytic": 1e-10, "fd": 1e-6, "nested-fd": 1e-4}
SUITES = ("identities", "measures", "geodesics", "all")
SUITES_2D_ONLY = ("measures", "all")  # the suites that run the 2D measures

# check -> (tolerance class, tolerance or None for the class's)
CHECKS = {
    # identities: pointwise, then the 2D-only checks
    "norm-homogeneity": ("analytic", None),
    "euler-contractions": ("analytic", 1e-8),
    "horizontal-norm-compatibility": ("analytic", 1e-8),
    "determinant-identity": ("analytic", None),
    "frame-orthonormality": ("analytic", 1e-8),
    "cartan-frame-factorization": ("analytic", 1e-8),
    # identities: against the FD oracles, then the 2D-only checks
    "fundamental-tensor-vs-hessian-oracle": ("fd", None),
    "spray-factorized-vs-variational": ("fd", None),
    "nonlinear-connection-vs-spray-derivative": ("fd", 1e-5),
    "cross-term-dN-identity": ("analytic", 1e-6),
    "oneform-roundtrip": ("analytic", 1e-6),
    "sector-weighted-dN-l-contraction": ("analytic", 1e-6),
    "sector-weighted-dN-ml": ("analytic", 1e-6),
    "sector-weighted-dN-mm": ("analytic", 1e-6),
    "structure-eq1-coefficients": ("analytic", 1e-6),
    "structure-eq2-coefficients": ("analytic", 1e-6),
    "structure-eq3-B-coefficient": ("analytic", 1e-6),
    "cross-term-log-gradient": ("fd", 1e-7),
    "invariant-I-compact-vs-oracle": ("fd", None),
    "landsberg-scalar-vs-directional-derivative": ("nested-fd", 1e-5),
    "riemannian-detection-vs-cartan": ("analytic", None),
    # measures
    "elliptic-endpoint-anchors": ("analytic", 1e-14),
    "holmes-thompson-three-modes": ("fd", None),
    "busemann-hausdorff-vs-quadrature": ("fd", None),
    "indicatrix-reduction": ("fd", 1e-8),
    "measure-positivity": ("analytic", None),
    # geodesics
    "geodesic-norm-drift": ("analytic", 1e-8),
    "geodesic-time-reversal": ("fd", None),
    "rk4-order-ratio": ("fd", 4.0),
    "action-sector-decomposition": ("analytic", 1e-12),
    "action-vs-conserved-norm": ("analytic", 1e-8),  # the drift's bound: |action - F0 T| <= drift F0 T
}


def _check(name, residual, samples, tol_scale, info=None) -> dict:
    """The report entry of check name, with its tolerance class and tolerance from CHECKS."""
    tol_class, tol = CHECKS[name]
    tolerance = (tol if tol is not None else TOLERANCES[tol_class]) * tol_scale
    residual = float(residual)
    return {
        "check": name,
        "residual": residual,
        "tolerance": tolerance,
        "tolerance_class": tol_class,
        "samples": samples,
        "pass": residual <= tolerance,
        **({"info": info} if info else {}),
    }


def draw_samples(cfg: SpaceConfig, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y of shape (count, n): x uniform in the configured box, y uniform on the
    unit sphere, drawn sample by sample."""
    lo = np.array([b[0] for b in cfg.sampling.box])
    hi = np.array([b[1] for b in cfg.sampling.box])
    xs, ys = [], []
    for _ in range(count):
        xs.append(lo + (hi - lo) * rng.random(cfg.dimension))
        y = rng.normal(size=cfg.dimension)
        ys.append(y / row_norm(y))
    return np.array(xs), np.array(ys)


def pointwise_residuals(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Per-sample residuals (B,) of the pointwise checks at the samples x and y (B, n),
    keyed by check name, the 2D-only checks included in 2D.  Each row is the value
    that sample gives alone, bit for bit."""
    cs = connection_state(space, x, y)
    st = cs.state
    hom = []
    for lam in (0.5, 2.0):
        f2, _ = finsler_norm(space, x, lam * y)
        hom.append(np.abs(f2 - lam * st.F) / st.F)
    columns = {
        "norm-homogeneity": np.max(hom, axis=0),
        "euler-contractions": np.max([
            np.abs(np.vecdot(st.l, st.l_up) - 1.0),
            np.max(np.abs(np.matvec(st.h, y)), axis=-1),
            np.max(np.abs(np.einsum("...ijk,...k->...ij", st.C, y)), axis=(-2, -1))], axis=0),
        "horizontal-norm-compatibility": horizontal_compatibility_residual(space, cs),
    }
    if space.dim == 2:
        fr = frame_from_state(st)
        m = fr.m
        columns |= {
            "determinant-identity": fr.det_identity_residual,
            "frame-orthonormality": np.max([
                np.abs(np.vecdot(m, fr.m_up) - 1.0), np.abs(np.vecdot(st.l_up, m)),
                np.max(np.abs(st.h - m[:, :, None] * m[:, None, :]), axis=(-2, -1))], axis=0),
            "cartan-frame-factorization": np.max(np.abs(
                st.F[:, None, None, None] * st.C
                - fr.I[:, None, None, None] * np.einsum("...i,...j,...k->...ijk", m, m, m)), axis=(-3, -2, -1)),
        }
    return columns


def fd_residuals(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Per-sample residuals (B,) of the FD-oracle checks at the samples x and y (B, n),
    keyed by check name, the 2D-only checks included in 2D, and the largest component
    of the Cartan tensor under "max_cartan_component".  Each row is the value that
    sample gives alone, bit for bit; for a batch of one the oracles run in the order
    of a single sample's checks."""
    cs = connection_state(space, x, y)
    st = cs.state
    gh = fd_fundamental_tensor(space, x, y)
    gv = variational_spray(space, x, y)
    g_abs = np.max(np.abs(st.g), axis=(-2, -1))
    G_abs = np.max(np.abs(cs.G), axis=-1)
    nf = nonlinear_connection_fd(space, x, y)
    columns = {
        "fundamental-tensor-vs-hessian-oracle": np.max(np.abs(st.g - gh), axis=(-2, -1)) / g_abs,
        "spray-factorized-vs-variational": np.max(np.abs(cs.G - gv), axis=-1) / (1.0 + G_abs),
        "nonlinear-connection-vs-spray-derivative": np.max(np.abs(cs.N - nf), axis=(-2, -1)),
    }
    if space.dim == 2:
        r = cartan_structure_residuals(space, cs)
        j_val, _ = invariants_JK(space, cs)

        def i_field(xs, ys):
            return frame_from_state(finsler_state(space, xs, ys)).I

        _, e2_i, _ = frame_derivatives(cs, i_field)
        columns |= {
            "cross-term-dN-identity": r.cross_dN_identity,
            "oneform-roundtrip": r.oneform_roundtrip,
            "sector-weighted-dN-l-contraction": r.sector_l_dN,
            "sector-weighted-dN-ml": r.sector_m_dN_l,
            "sector-weighted-dN-mm": r.sector_m_dN_m,
            "structure-eq1-coefficients": np.max([r.eq1_A_plus_I, r.eq1_B_minus_1, r.eq1_C], axis=0),
            "structure-eq2-coefficients": np.max([r.eq2_A_plus_1, r.eq2_C], axis=0),
            "structure-eq3-B-coefficient": r.eq3_B,
            "cross-term-log-gradient": r.cross_log_gradient,
            "invariant-I-compact-vs-oracle": np.abs(r.I_compact - r.I_oracle),
            "landsberg-scalar-vs-directional-derivative": np.abs(j_val - e2_i) / (1.0 + np.abs(j_val)),
        }
    columns["max_cartan_component"] = np.max(np.abs(st.C), axis=(-3, -2, -1))
    return columns


def _worst(residuals, space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> dict[str, np.float64]:
    """The largest value of each keyed column of residuals(space, x, y) over the samples
    x and y (B, n).  The columns are stacked for one rows_or_first_error call: a batch
    that raises a per-sample error is evaluated again one sample at a time, so the
    first failing sample raises its own error."""
    names = []

    def stacked(xs, ys):
        columns = residuals(space, xs, ys)
        names[:] = columns
        return np.stack(list(columns.values()), axis=-1)

    return dict(zip(names, np.max(rows_or_first_error(stacked, x, y), axis=0)))


def _identity_checks(cfg: SpaceConfig, space: MultiMetricSpace, rng, tol_scale) -> list[dict]:
    n_full = cfg.sampling.count
    n_fd = min(cfg.sampling.count, 40)

    x, y = draw_samples(cfg, rng, n_full)
    out = [_check(name, r, n_full, tol_scale) for name, r in _worst(pointwise_residuals, space, x, y).items()]

    x_fd, y_fd = draw_samples(cfg, rng, n_fd)
    worst = _worst(fd_residuals, space, x_fd, y_fd)
    c_max = float(worst.pop("max_cartan_component"))
    out += [_check(name, r, n_fd, tol_scale) for name, r in worst.items()]
    if space.dim == 2:
        # C grows as the square of the sectors' relative misfit, so a misfit below 1e-5
        # may read as "not Riemannian" while C is below 1e-10
        verdict = riemannian_detect(space, x_fd)
        cartan_zero = c_max <= 1e-10
        consistent = cartan_zero == verdict.riemannian or (cartan_zero and verdict.misfit ** 2 <= 1e-10)
        out.append(_check("riemannian-detection-vs-cartan", 0.0 if consistent else 1.0, n_fd, tol_scale,
                          info={"riemannian": verdict.riemannian, "max_cartan_component": c_max}))
    return out


def _measure_checks(cfg: SpaceConfig, space: MultiMetricSpace, rng, tol_scale) -> list[dict]:
    anchor = max(abs(complete_elliptic_k(0.0) - math.pi / 2.0),
                 abs(complete_elliptic_e(0.0) - math.pi / 2.0),
                 abs(complete_elliptic_e(1.0) - 1.0))

    pts = [cfg.box_center(), *draw_samples(cfg, rng, 3)[0]]
    ht = bh = ind = 0.0
    positive = True
    for x in pts:
        closed = holmes_thompson(space, x).value
        disc = holmes_thompson_disc_oracle(space, x)
        circ = holmes_thompson_circle_oracle(space, x)
        scale = abs(closed)
        ht = max(ht, abs(closed - disc) / scale, abs(closed - circ) / scale)
        positive = positive and closed > 0.0
        rep = busemann_hausdorff(space, x)
        # a report that fell back to the quadrature already holds its value
        quad = rep.value if rep.method == "quadrature" else busemann_hausdorff_quadrature(space, x)
        bh = max(bh, abs(rep.value - quad) / quad)
        positive = positive and rep.value > 0.0
        for w in ("one", "det"):
            r = indicatrix_reduction_check(space, x, w)
            ind = max(ind, r["residual"] / (1.0 + abs(r["circle"])))
    return [
        _check("elliptic-endpoint-anchors", anchor, 3, tol_scale),
        _check("holmes-thompson-three-modes", ht, len(pts), tol_scale),
        _check("busemann-hausdorff-vs-quadrature", bh, len(pts), tol_scale),
        _check("indicatrix-reduction", ind, len(pts), tol_scale),
        _check("measure-positivity", 0.0 if positive else 1.0, len(pts), tol_scale),
    ]


def _geodesic_checks(cfg: SpaceConfig, space: MultiMetricSpace, tol_scale) -> list[dict]:
    x0 = cfg.box_center() + 0.05
    y0 = np.ones(cfg.dimension) / math.sqrt(cfg.dimension)
    path = integrate_geodesic(space, x0, y0, 1.0, 1e-3)
    drift = float(np.max(np.abs(path.F - path.F[0])) / path.F[0])
    back = integrate_geodesic(space, path.x[-1], -path.y[-1], 1.0, 1e-3)
    rev = float(np.max(np.abs(back.x[-1] - x0)))

    # the reference is the forward run's end: within 2.8e-13 of a 1/1024 run's, 3.4+ orders below e2
    e1 = np.max(np.abs(integrate_geodesic(space, x0, y0, 1.0, 1.0 / 32).x[-1] - path.x[-1]))
    e2 = np.max(np.abs(integrate_geodesic(space, x0, y0, 1.0, 1.0 / 64).x[-1] - path.x[-1]))
    ratio = float(e1 / e2) if e2 > 0 else 16.0
    act = action_of_path(space, path.t, path.x, path.y)
    f0_t = path.F[0] * path.t[-1]  # F is conserved on a geodesic, so its action is F0 T
    return [
        _check("geodesic-norm-drift", drift, len(path.t), tol_scale),
        _check("geodesic-time-reversal", rev, 2, tol_scale),
        _check("rk4-order-ratio", 0.0 if 12.0 <= ratio <= 20.0 else abs(ratio - 16.0), 3, tol_scale,
               info={"ratio": ratio}),
        _check("action-sector-decomposition", act.decomposition_residual, len(path.t), tol_scale),
        _check("action-vs-conserved-norm", abs(act.total - f0_t) / f0_t, len(path.t), tol_scale),
    ]


def run_suite(cfg: SpaceConfig, suite: str, tol_scale: float = 1.0, seed: int | None = None) -> dict:
    """Run a named check suite and return the machine-readable report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'")
    if suite in SUITES_2D_ONLY and cfg.dimension != 2:
        raise ValueError("measure checks require a 2D space")
    space = cfg.space
    use_seed = cfg.sampling.seed if seed is None else seed
    rng = np.random.default_rng(use_seed)

    checks: list[dict] = []
    if suite in ("identities", "all"):
        checks += _identity_checks(cfg, space, rng, tol_scale)
    if suite in ("measures", "all"):
        checks += _measure_checks(cfg, space, rng, tol_scale)
    if suite in ("geodesics", "all"):
        checks += _geodesic_checks(cfg, space, tol_scale)

    checks.sort(key=lambda c: c["check"])
    return {
        "suite": suite,
        "seed": use_seed,
        "tolerance_scale": tol_scale,
        "dimension": cfg.dimension,
        "metrics": [m.name for m in cfg.metrics],
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
