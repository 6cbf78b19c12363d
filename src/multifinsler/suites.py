"""Check suites: identity, measure and geodesic verification over sampled points.

Each check produces a keyed entry with its residual, tolerance class
(analytic / fd / nested-fd) and tolerance.  Reports are deterministic for a
fixed seed; checks are keyed and sorted so assembly order cannot matter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    tol_class: str
    samples: int
    passed: bool
    info: dict

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "tolerance_class": self.tol_class,
            "samples": self.samples,
            "pass": self.passed,
            **({"info": self.info} if self.info else {}),
        }


def _check(name, residual, tol_class, samples, tol_scale, tol=None, info=None) -> CheckResult:
    tolerance = (tol if tol is not None else TOLERANCES[tol_class]) * tol_scale
    residual = float(residual)
    return CheckResult(
        name=name, residual=residual, tolerance=tolerance, tol_class=tol_class,
        samples=samples, passed=residual <= tolerance, info=info or {},
    )


def draw_samples(cfg: SpaceConfig, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y of shape (count, n): x uniform in the configured box, y uniform on the
    unit sphere, drawn sample by sample."""
    lo = np.array([b[0] for b in cfg.sampling.box])
    hi = np.array([b[1] for b in cfg.sampling.box])
    xs, ys = [], []
    for _ in range(count):
        xs.append(lo + (hi - lo) * rng.random(cfg.dimension))
        y = rng.normal(size=cfg.dimension)
        ys.append(y / np.linalg.norm(y))
    return np.array(xs), np.array(ys)


# (check, tolerance class, tolerance or None for the class's), one column each of the
# per-sample residual rows; the 2D-only checks follow in a 2D space
POINTWISE_CHECKS = (
    ("norm-homogeneity", "analytic", None),
    ("euler-contractions", "analytic", 1e-8),
    ("horizontal-norm-compatibility", "analytic", 1e-8),
)
POINTWISE_2D_CHECKS = (
    ("determinant-identity", "analytic", None),
    ("frame-orthonormality", "analytic", 1e-8),
    ("cartan-frame-factorization", "analytic", 1e-8),
)
FD_CHECKS = (
    ("fundamental-tensor-vs-hessian-oracle", "fd", None),
    ("spray-factorized-vs-variational", "fd", None),
    ("nonlinear-connection-vs-spray-derivative", "fd", 1e-5),
)
FD_2D_CHECKS = (
    ("cross-term-dN-identity", "analytic", 1e-6),
    ("oneform-roundtrip", "analytic", 1e-6),
    ("sector-weighted-dN-l-contraction", "analytic", 1e-6),
    ("sector-weighted-dN-ml", "analytic", 1e-6),
    ("sector-weighted-dN-mm", "analytic", 1e-6),
    ("structure-eq1-coefficients", "analytic", 1e-6),
    ("structure-eq2-coefficients", "analytic", 1e-6),
    ("structure-eq3-B-coefficient", "analytic", 1e-6),
    ("cross-term-log-gradient", "fd", 1e-7),
    ("invariant-I-compact-vs-oracle", "fd", None),
    ("landsberg-scalar-vs-directional-derivative", "nested-fd", 1e-5),
)


def pointwise_residuals(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample residuals (B, k) of the pointwise checks at the samples x and y
    (B, n), one column per entry of POINTWISE_CHECKS, then of POINTWISE_2D_CHECKS
    in 2D.  Each row is the value that sample gives alone, bit for bit."""
    cs = connection_state(space, x, y)
    st = cs.state
    hom = []
    for lam in (0.5, 2.0):
        f2, _ = finsler_norm(space, x, lam * y)
        hom.append(np.abs(f2 - lam * st.F) / st.F)
    columns = [
        np.max(hom, axis=0),
        np.max([np.abs(np.vecdot(st.l, st.l_up) - 1.0),
                np.max(np.abs(np.matvec(st.h, y)), axis=-1),
                np.max(np.abs(np.einsum("...ijk,...k->...ij", st.C, y)), axis=(-2, -1))], axis=0),
        horizontal_compatibility_residual(space, cs),
    ]
    if space.dim == 2:
        fr = frame_from_state(st)
        m = fr.m
        columns += [
            fr.det_identity_residual,
            np.max([np.abs(np.vecdot(m, fr.m_up) - 1.0), np.abs(np.vecdot(st.l_up, m)),
                    np.max(np.abs(st.h - m[:, :, None] * m[:, None, :]), axis=(-2, -1))], axis=0),
            np.max(np.abs(st.F[:, None, None, None] * st.C
                          - fr.I[:, None, None, None] * np.einsum("...i,...j,...k->...ijk", m, m, m)),
                   axis=(-3, -2, -1)),
        ]
    return np.stack(columns, axis=-1)


def fd_residuals(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample residuals (B, k) of the FD-oracle checks at the samples x and y
    (B, n), one column per entry of FD_CHECKS, then in 2D of FD_2D_CHECKS, and last
    the largest component of the Cartan tensor.  Each row is the value that sample
    gives alone, bit for bit; for a batch of one the oracles run in the order of a
    single sample's checks."""
    cs = connection_state(space, x, y)
    st = cs.state
    gh = fd_fundamental_tensor(space, x, y)
    gv = variational_spray(space, x, y)
    g_abs = np.max(np.abs(st.g), axis=(-2, -1))
    G_abs = np.max(np.abs(cs.G), axis=-1)
    nf = nonlinear_connection_fd(space, x, y)
    columns = [
        np.max(np.abs(st.g - gh), axis=(-2, -1)) / g_abs,
        np.max(np.abs(cs.G - gv), axis=-1) / (1.0 + G_abs),
        np.max(np.abs(cs.N - nf), axis=(-2, -1)),
    ]
    if space.dim == 2:
        r = cartan_structure_residuals(space, cs)
        j_val, _ = invariants_JK(space, cs)

        def i_field(xs, ys):
            return frame_from_state(finsler_state(space, xs, ys)).I

        _, e2_i, _ = frame_derivatives(cs, i_field)
        columns += [
            r.cross_dN_identity, r.oneform_roundtrip, r.sector_l_dN, r.sector_m_dN_l, r.sector_m_dN_m,
            np.max([r.eq1_A_plus_I, r.eq1_B_minus_1, r.eq1_C], axis=0),
            np.max([r.eq2_A_plus_1, r.eq2_C], axis=0),
            r.eq3_B,
            r.cross_log_gradient,
            np.abs(r.I_compact - r.I_oracle),
            np.abs(j_val - e2_i) / (1.0 + np.abs(j_val)),
        ]
    columns.append(np.max(np.abs(st.C), axis=(-3, -2, -1)))
    return np.stack(columns, axis=-1)


def _checks(table, residuals, samples, tol_scale) -> list[CheckResult]:
    return [_check(name, r, tol_class, samples, tol_scale, tol=tol)
            for (name, tol_class, tol), r in zip(table, residuals)]


def _identity_checks(cfg: SpaceConfig, space: MultiMetricSpace, rng, tol_scale) -> list[CheckResult]:
    n_full = cfg.sampling.count
    n_fd = min(cfg.sampling.count, 40)
    is2d = space.dim == 2

    # one batch per stage; a batch that raises a per-sample error is evaluated again
    # one sample at a time, so the first failing sample raises its own error
    x, y = draw_samples(cfg, rng, n_full)
    worst = np.max(rows_or_first_error(functools.partial(pointwise_residuals, space), x, y), axis=0)
    out = _checks(POINTWISE_CHECKS + (POINTWISE_2D_CHECKS if is2d else ()), worst, n_full, tol_scale)

    x_fd, y_fd = draw_samples(cfg, rng, n_fd)
    worst = np.max(rows_or_first_error(functools.partial(fd_residuals, space), x_fd, y_fd), axis=0)
    out += _checks(FD_CHECKS + (FD_2D_CHECKS if is2d else ()), worst[:-1], n_fd, tol_scale)
    if is2d:
        c_max = float(worst[-1])
        verdict = riemannian_detect(space, x_fd)
        consistent = (c_max <= 1e-10) == verdict.riemannian
        out.append(_check(
            "riemannian-detection-vs-cartan", 0.0 if consistent else 1.0,
            "analytic", n_fd, tol_scale,
            info={"riemannian": verdict.riemannian, "max_cartan_component": c_max},
        ))
    return out


def _measure_checks(cfg: SpaceConfig, space: MultiMetricSpace, rng, tol_scale) -> list[CheckResult]:
    out = []
    anchor = max(abs(complete_elliptic_k(0.0) - math.pi / 2.0),
                 abs(complete_elliptic_e(0.0) - math.pi / 2.0),
                 abs(complete_elliptic_e(1.0) - 1.0))
    out.append(_check("elliptic-endpoint-anchors", anchor, "analytic", 3, tol_scale, tol=1e-14))

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
    out.append(_check("holmes-thompson-three-modes", ht, "fd", len(pts), tol_scale))
    out.append(_check("busemann-hausdorff-vs-quadrature", bh, "fd", len(pts), tol_scale))
    out.append(_check("indicatrix-reduction", ind, "fd", len(pts), tol_scale, tol=1e-8))
    out.append(_check("measure-positivity", 0.0 if positive else 1.0, "analytic", len(pts), tol_scale))
    return out


def _geodesic_checks(cfg: SpaceConfig, space: MultiMetricSpace, tol_scale) -> list[CheckResult]:
    out = []
    x0 = cfg.box_center() + 0.05
    y0 = np.ones(cfg.dimension) / math.sqrt(cfg.dimension)
    path = integrate_geodesic(space, x0, y0, 1.0, 1e-3)
    drift = float(np.max(np.abs(path.F - path.F[0])) / path.F[0])
    out.append(_check("geodesic-norm-drift", drift, "analytic", len(path.t), tol_scale, tol=1e-8))

    back = integrate_geodesic(space, path.x[-1], -path.y[-1], 1.0, 1e-3)
    rev = float(np.max(np.abs(back.x[-1] - x0)))
    out.append(_check("geodesic-time-reversal", rev, "fd", 2, tol_scale))

    ref = integrate_geodesic(space, x0, y0, 1.0, 1.0 / 1024)
    e1 = np.max(np.abs(integrate_geodesic(space, x0, y0, 1.0, 1.0 / 32).x[-1] - ref.x[-1]))
    e2 = np.max(np.abs(integrate_geodesic(space, x0, y0, 1.0, 1.0 / 64).x[-1] - ref.x[-1]))
    ratio = float(e1 / e2) if e2 > 0 else 16.0
    ok = 12.0 <= ratio <= 20.0
    out.append(_check("rk4-order-ratio", 0.0 if ok else abs(ratio - 16.0), "fd", 3, tol_scale,
                      tol=4.0, info={"ratio": ratio}))

    act = action_of_path(space, path.t, path.x, path.y)
    out.append(_check("action-sector-decomposition", act.decomposition_residual, "analytic",
                      len(path.t), tol_scale, tol=1e-12))
    return out


def run_suite(cfg: SpaceConfig, suite: str, tol_scale: float = 1.0, seed: int | None = None) -> dict:
    """Run a named check suite and return the machine-readable report."""
    if suite not in ("identities", "measures", "geodesics", "all"):
        raise ValueError(f"unknown suite '{suite}'")
    space = cfg.build_space()
    use_seed = cfg.sampling.seed if seed is None else seed
    rng = np.random.default_rng(use_seed)

    checks: list[CheckResult] = []
    if suite in ("identities", "all"):
        checks += _identity_checks(cfg, space, rng, tol_scale)
    if suite in ("measures", "all"):
        if space.dim != 2:
            raise ValueError("measure checks require a 2D space")
        checks += _measure_checks(cfg, space, rng, tol_scale)
    if suite in ("geodesics", "all"):
        checks += _geodesic_checks(cfg, space, tol_scale)

    checks.sort(key=lambda c: c.name)
    return {
        "suite": suite,
        "seed": use_seed,
        "tolerance_scale": tol_scale,
        "dimension": cfg.dimension,
        "metrics": [m.name for m in cfg.metrics],
        "checks": [c.to_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
