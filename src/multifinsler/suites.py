"""Check suites: identity, measure and geodesic verification over sampled points.

Each check produces a keyed entry with its residual, tolerance class
(analytic / fd / nested-fd) and tolerance.  Reports are deterministic for a
fixed seed; checks are keyed and sorted so assembly order cannot matter.
"""

from __future__ import annotations

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
    invariants_JK_from_state,
)
from .finsler import (
    MultiMetricSpace,
    TangentSample,
    fd_fundamental_tensor,
    finsler_norm,
    finsler_state,
    riemannian_detect,
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
from .riemann import gauss_curvature

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


def draw_samples(cfg: SpaceConfig, rng: np.random.Generator, count: int) -> list[TangentSample]:
    """x uniform in the configured box, y uniform on the unit sphere."""
    lo = np.array([b[0] for b in cfg.sampling.box])
    hi = np.array([b[1] for b in cfg.sampling.box])
    out = []
    for _ in range(count):
        x = lo + (hi - lo) * rng.random(cfg.dimension)
        y = rng.normal(size=cfg.dimension)
        y /= np.linalg.norm(y)
        out.append(TangentSample(x, y))
    return out


def _identity_checks(cfg: SpaceConfig, space: MultiMetricSpace, rng, tol_scale) -> list[CheckResult]:
    n_full = cfg.sampling.count
    n_fd = min(cfg.sampling.count, 40)
    samples = draw_samples(cfg, rng, n_full)
    out = []

    hom = det_id = euler = frame_res = cartan_fact = 0.0
    struct = {
        "structure-eq1-coefficients": 0.0,
        "structure-eq2-coefficients": 0.0,
        "structure-eq3-B-coefficient": 0.0,
        "oneform-roundtrip": 0.0,
        "sector-weighted-dN-l-contraction": 0.0,
        "sector-weighted-dN-ml": 0.0,
        "sector-weighted-dN-mm": 0.0,
        "cross-term-dN-identity": 0.0,
    }
    a_rel = 0.0
    delta_f = 0.0
    for s in samples:
        cs = connection_state(space, s)
        st = cs.state
        for lam in (0.5, 2.0):
            f2, _ = finsler_norm(space, TangentSample(s.x, lam * s.y))
            hom = max(hom, abs(f2 - lam * st.F) / st.F)
        euler = max(
            euler,
            abs(st.l @ st.l_up - 1.0),
            float(np.max(np.abs(st.h @ s.y))),
            float(np.max(np.abs(np.einsum("ijk,k->ij", st.C, s.y)))),
        )
        delta_f = max(delta_f, horizontal_compatibility_residual(space, cs))
        if space.dim == 2:
            fr = frame_from_state(st)
            det_id = max(det_id, fr.det_identity_residual)
            frame_res = max(
                frame_res,
                abs(fr.m @ fr.m_up - 1.0),
                abs(st.l_up @ fr.m),
                float(np.max(np.abs(st.h - np.outer(fr.m, fr.m)))),
            )
            cartan_fact = max(
                cartan_fact,
                float(np.max(np.abs(st.F * st.C - fr.I * np.einsum("i,j,k->ijk", fr.m, fr.m, fr.m)))),
            )
    out.append(_check("norm-homogeneity", hom, "analytic", n_full, tol_scale))
    out.append(_check("euler-contractions", euler, "analytic", n_full, tol_scale, tol=1e-8))
    out.append(_check("horizontal-norm-compatibility", delta_f, "analytic", n_full, tol_scale, tol=1e-8))
    if space.dim == 2:
        out.append(_check("determinant-identity", det_id, "analytic", n_full, tol_scale))
        out.append(_check("frame-orthonormality", frame_res, "analytic", n_full, tol_scale, tol=1e-8))
        out.append(_check("cartan-frame-factorization", cartan_fact, "analytic", n_full, tol_scale, tol=1e-8))

    fd_samples = draw_samples(cfg, rng, n_fd)
    g_fd = spray_fd = n_fd_res = c_max = 0.0
    i_modes = j_res = 0.0
    for s in fd_samples:
        cs = connection_state(space, s)
        st = cs.state
        gh = fd_fundamental_tensor(space, s.x, s.y)
        g_fd = max(g_fd, float(np.max(np.abs(st.g - gh)) / np.max(np.abs(st.g))))
        c_max = max(c_max, float(np.max(np.abs(st.C))))
        gv = variational_spray(space, s)
        spray_fd = max(spray_fd, float(np.max(np.abs(cs.G - gv)) / (1.0 + np.max(np.abs(cs.G)))))
        nf = nonlinear_connection_fd(space, s)
        n_fd_res = max(n_fd_res, float(np.max(np.abs(cs.N - nf))))
        if space.dim == 2:
            r = cartan_structure_residuals(space, cs)
            fr = frame_from_state(st)
            gauss = [gauss_curvature(m, s.x) for m in space.metrics]
            j_val, _ = invariants_JK_from_state(space, cs, fr, gauss)
            struct["structure-eq1-coefficients"] = max(
                struct["structure-eq1-coefficients"], r.eq1_A_plus_I, r.eq1_B_minus_1, r.eq1_C)
            struct["structure-eq2-coefficients"] = max(
                struct["structure-eq2-coefficients"], r.eq2_A_plus_1, r.eq2_C)
            struct["structure-eq3-B-coefficient"] = max(struct["structure-eq3-B-coefficient"], r.eq3_B)
            struct["oneform-roundtrip"] = max(struct["oneform-roundtrip"], r.oneform_roundtrip)
            struct["sector-weighted-dN-l-contraction"] = max(
                struct["sector-weighted-dN-l-contraction"], r.sector_l_dN)
            struct["sector-weighted-dN-ml"] = max(struct["sector-weighted-dN-ml"], r.sector_m_dN_l)
            struct["sector-weighted-dN-mm"] = max(struct["sector-weighted-dN-mm"], r.sector_m_dN_m)
            struct["cross-term-dN-identity"] = max(struct["cross-term-dN-identity"], r.cross_dN_identity)
            a_rel = max(a_rel, r.cross_log_gradient)
            i_modes = max(i_modes, abs(r.I_compact - r.I_oracle))

            def i_field(xx, yy):
                return frame_from_state(finsler_state(space, TangentSample(xx, yy))).I

            _, e2_i, _ = frame_derivatives(cs, i_field)
            j_res = max(j_res, abs(j_val - e2_i) / (1.0 + abs(j_val)))

    out.append(_check("fundamental-tensor-vs-hessian-oracle", g_fd, "fd", n_fd, tol_scale))
    out.append(_check("spray-factorized-vs-variational", spray_fd, "fd", n_fd, tol_scale))
    out.append(_check("nonlinear-connection-vs-spray-derivative", n_fd_res, "fd", n_fd, tol_scale, tol=1e-5))
    if space.dim == 2:
        for name, val in sorted(struct.items()):
            out.append(_check(name, val, "analytic", n_fd, tol_scale, tol=1e-6))
        out.append(_check("cross-term-log-gradient", a_rel, "fd", n_fd, tol_scale, tol=1e-7))
        out.append(_check("invariant-I-compact-vs-oracle", i_modes, "fd", n_fd, tol_scale))
        out.append(_check("landsberg-scalar-vs-directional-derivative", j_res, "nested-fd", n_fd, tol_scale, tol=1e-5))

        verdict = riemannian_detect(space, [s.x for s in fd_samples])
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

    pts = [cfg.box_center()] + [s.x for s in draw_samples(cfg, rng, 3)]
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
        quad = busemann_hausdorff_quadrature(space, x)
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
