"""2D frame machinery: zweibeins, cross terms, the scalars I, J, K, and
coefficient-level residuals of the three structure equations on the sphere bundle.

Orientation is pinned to eps_12 = +1 with m_i = sqrt(det g) eps_ij l^j; the
scalars I and the cross terms are pseudoscalars, so the fixed orientation makes
them reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connection import FD_STEP, ConnectionState, central_difference, connection_state
from .finsler import (
    FinslerState,
    MultiMetricSpace,
    TangentSample,
    finsler_state,
    require_2d,
    sector_norms,
)
from .riemann import gauss_curvature


def _perp_down(vec_up: np.ndarray, scale: float) -> np.ndarray:
    """m_i = scale * eps_ij v^j with eps_12 = +1."""
    return scale * np.array([vec_up[1], -vec_up[0]])


def _perp_up(vec_down: np.ndarray, inv_scale: float) -> np.ndarray:
    """m^i = inv_scale * eps^ij v_j with eps^12 = +1."""
    return inv_scale * np.array([vec_down[1], -vec_down[0]])


@dataclass(frozen=True)
class Frame2D:
    """Berwald zweibein data at a 2D sample."""

    state: FinslerState
    l: np.ndarray
    l_up: np.ndarray
    m: np.ndarray
    m_up: np.ndarray
    l_mu: np.ndarray      # (N, 2)
    m_mu: np.ndarray      # (N, 2) per-sector covectors
    m_mu_up: np.ndarray   # (N, 2)
    cross: np.ndarray     # (N, N) antisymmetric cross terms A[mu, nu]
    sqrt_g: float
    det_identity_residual: float  # relative residual of det g / F^3 = sum det a_mu / F_mu^3
    I: float              # main scalar, closed cross-term formula


def frame_from_state(state: FinslerState) -> Frame2D:
    """The frame of an already evaluated 2D state; evaluates nothing at other points."""
    require_2d(len(state.y))
    sqrt_g = float(np.sqrt(state.det_g))
    m = _perp_down(state.l_up, sqrt_g)
    m_up = _perp_up(state.l, 1.0 / sqrt_g)

    sqrt_det = np.sqrt(state.a_det)
    m_mu = np.stack([
        _perp_down(state.y / state.F_mu[k], sqrt_det[k]) for k in range(len(state.F_mu))
    ])
    m_mu_up = np.stack([
        _perp_up(state.l_mu[k], 1.0 / sqrt_det[k]) for k in range(len(state.F_mu))
    ])

    lm = state.l_mu
    cross = (np.outer(lm[:, 0], lm[:, 1]) - np.outer(lm[:, 1], lm[:, 0])) / sqrt_g

    lhs = state.det_g / state.F**3
    rhs = float(np.sum(state.a_det / state.F_mu**3))
    resid = abs(lhs - rhs) / abs(lhs)

    w = state.a_det / state.F_mu**4
    i_compact = float(1.5 * state.F**4 / state.det_g * np.einsum("n,mn->", w, cross))

    return Frame2D(
        state=state, l=state.l, l_up=state.l_up, m=m, m_up=m_up,
        l_mu=state.l_mu, m_mu=m_mu, m_mu_up=m_mu_up, cross=cross,
        sqrt_g=sqrt_g, det_identity_residual=resid, I=i_compact,
    )


def invariant_I_oracle(space: MultiMetricSpace, fr: Frame2D) -> float:
    """Oracle for the main scalar Frame2D.I at the sample of fr:
    (F / 2 det g) m^i d(det g)/dy_i with the fiber derivative by central
    differences of the assembled determinant.
    """
    x, y = fr.state.x, fr.state.y
    h = FD_STEP * (1.0 + float(np.linalg.norm(y)))
    grad = central_difference(lambda yy: finsler_state(space, TangentSample(x, yy)).det_g, y, h)
    return float(fr.state.F / (2.0 * fr.state.det_g) * fr.m_up @ grad)


def _horizontal_derivative(cs: ConnectionState, field: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(delta_i phi = d_i phi - N^j_i d phi/dy_j, d phi/dy_i) at the sample of cs by central
    differences; phi may be scalar- or array-valued, both results are (2, *phi.shape)."""
    x, y = cs.state.x, cs.state.y
    hx = FD_STEP * (1.0 + float(np.linalg.norm(x)))
    hy = FD_STEP * (1.0 + float(np.linalg.norm(y)))
    dx = central_difference(lambda xx: field(xx, y), x, hx)
    dy = central_difference(lambda yy: field(x, yy), y, hy)
    return dx - np.einsum("ji,j...->i...", cs.N, dy), dy


def frame_derivatives(cs: ConnectionState, field: Callable) -> tuple:
    """(e1 phi, e2 phi, e3 phi) at the sample of cs, e1 = m^i delta_i, e2 = l^i delta_i and
    e3 = F m^i d/dy_i, from one x- and one y-stencil (8 evaluations of phi(x, y)).
    phi may be scalar- or array-valued; each result has its shape."""
    fr = frame_from_state(cs.state)
    delta, dy = _horizontal_derivative(cs, field)
    return fr.m_up @ delta, fr.l_up @ delta, fr.state.F * fr.m_up @ dy


def invariants_JK(space: MultiMetricSpace, sample: TangentSample) -> tuple[float, float]:
    """Landsberg scalar J and the curvature scalar K of the third structure equation.

    J comes from the omega^1 wedge omega^3 coefficient; K combines the sector
    Gauss curvatures with frame-derivative corrections.  For a single metric,
    K reduces to the Gauss curvature.
    """
    require_2d(space.dim)
    cs = connection_state(space, sample)
    gauss = [gauss_curvature(m, cs.state.x) for m in space.metrics]
    return invariants_JK_from_state(space, cs, frame_from_state(cs.state), gauss)


def invariants_JK_from_state(
    space: MultiMetricSpace, cs: ConnectionState, fr: Frame2D, gauss: list[float]
) -> tuple[float, float]:
    """J and K (see invariants_JK) at the sample of cs, whose frame is fr.

    gauss holds the sector Gauss curvatures at the sample's x, which callers
    evaluating many fiber directions at one x compute once.  The frame
    derivatives of all sectors and the fiber derivative of N come from one
    array-valued field, so J and K evaluate 8 neighbours for any number of
    metrics.
    """
    st = cs.state
    F, F_mu, det_g = st.F, st.F_mu, st.det_g
    n = space.n_metrics

    def sector_scalars(xx, yy):
        """(s_mu, t_mu) for every sector, then N flattened: s_mu = F/F_mu^2 sqrt(det a_mu/det g)
        m.dN_mu.m^, t_mu = F/F_mu sqrt(det a_mu/det g)."""
        c = connection_state(space, TangentSample(xx, yy))
        f = frame_from_state(c.state)
        s = c.state
        ratio = np.sqrt(s.a_det / s.det_g)
        m_dn_m = np.array([float(f.m @ d @ f.m_up) for d in c.dN_mu])
        return np.concatenate([s.F / s.F_mu**2 * ratio * m_dn_m, s.F / s.F_mu * ratio, c.N.ravel()])

    delta, dy = _horizontal_derivative(cs, sector_scalars)
    # dN[r, i, j] = dN^i_j / dy_r
    dN = dy[:, 2 * n:].reshape(2, 2, 2)

    w3 = (F / F_mu) ** 3 * st.a_det / det_g
    a_coeff = 0.0
    for k in range(n):
        u = cs.dN_mu[k] @ fr.m_up
        vec = 1.5 * st.l_mu[k] / F_mu[k] - st.l / F
        gamma_t = cs.gamma_mu[k].transpose(2, 0, 1)  # [r, i, j] = Gamma^i_{jr}
        ddN = dN - gamma_t
        contr = np.einsum("i,j,r,rij->", fr.m, fr.m_up, fr.m_up, ddN)
        a_coeff += w3[k] * (float(vec @ u) - contr)
    J = -a_coeff

    e2_s = fr.l_up @ delta[:, :n]
    e1_t = fr.m_up @ delta[:, n:2 * n]

    K = 0.0
    sq = np.sqrt(st.a_det / det_g)
    for k in range(n):
        K += gauss[k] * (F / F_mu[k]) * (st.a_det[k] / det_g)
        m_dn_l = float(fr.m @ cs.dN_mu[k] @ fr.l_up)
        K -= (F / F_mu[k]) * sq[k] * e2_s[k]
        K -= (F / F_mu[k] ** 2) * sq[k] * m_dn_l * e1_t[k]
    return float(J), float(K)


@dataclass(frozen=True)
class StructureReport:
    """Coefficient-level residuals of the three structure equations at one sample."""

    I_compact: float
    I_oracle: float
    eq1_A_plus_I: float     # omega^1: A vs -I (oracle route)
    eq1_B_minus_1: float
    eq1_C: float
    eq2_A_plus_1: float     # omega^2
    eq2_C: float
    eq3_B: float            # omega^3
    oneform_roundtrip: float
    # supporting matrix-element identity residuals
    sector_l_dN: float      # sum_mu l^mu . dN^mu = 0
    sector_m_dN_l: float    # weighted m . dN^mu . l = 0
    sector_m_dN_m: float
    cross_dN_identity: float
    cross_log_gradient: float


def _oneform_roundtrip(space, cs: ConnectionState, fr: Frame2D) -> float:
    """Sector coframes expressed in the full coframe and back; residual from identity.

    Covers both the per-sector relations (their composition must be the 3x3
    identity) and the sector-summed expressions for each full coframe element.
    """
    st = cs.state
    F, F_mu, det_g = st.F, st.F_mu, st.det_g
    worst = 0.0
    summed = np.zeros((3, 3))
    for k in range(space.n_metrics):
        ratio = np.sqrt(st.a_det[k] / det_g)
        c1 = (F / F_mu[k]) * ratio
        c2 = (F / F_mu[k]) ** 2 * ratio
        m_dn_m = float(fr.m @ cs.dN_mu[k] @ fr.m_up)
        m_dn_l = float(fr.m @ cs.dN_mu[k] @ fr.l_up)
        a_col = float(fr.cross[:, k].sum())  # sum_nu A[nu, k]

        # rows: sector coframe (w_k^1, w_k^2, w_k^3) in the (w1, w2, w3) basis
        to_sector = np.array([
            [c1, 0.0, 0.0],
            [-a_col, F_mu[k] / F, 0.0],
            [-c2 * m_dn_m / F, -c2 * m_dn_l / F, c2],
        ])
        # rows: full coframe in the sector basis
        mm_k = float(fr.m_mu[k] @ cs.dN_mu[k] @ fr.m_mu_up[k])
        ml_k = float(fr.m_mu[k] @ cs.dN_mu[k] @ (st.y / F_mu[k]))
        from_sector = np.array([
            [1.0 / c1, 0.0, 0.0],
            [a_col / ratio, F / F_mu[k], 0.0],
            [
                (F_mu[k] / F**2) / ratio * mm_k,
                (F_mu[k] / F**2) / ratio * ml_k,
                1.0 / c2,
            ],
        ])
        worst = max(worst, float(np.max(np.abs(from_sector @ to_sector - np.eye(3)))))

        summed[0] += (F / F_mu[k]) ** 2 * ratio * to_sector[0]
        summed[1] += to_sector[1]
        summed[2] += c1 * (
            to_sector[2]
            + np.array([
                float(fr.m_mu[k] @ cs.dN_mu[k] @ fr.m_up) / F_mu[k],
                float(fr.m_mu[k] @ cs.dN_mu[k] @ fr.l_up) / F_mu[k],
                0.0,
            ])
        )
    worst = max(worst, float(np.max(np.abs(summed - np.eye(3)))))
    return worst


def cartan_structure_residuals(space: MultiMetricSpace, cs: ConnectionState) -> StructureReport:
    """Residuals of the structure-equation coefficients at the sample of cs.

    J and K are not part of it; they come from invariants_JK_from_state.
    """
    fr = frame_from_state(cs.state)
    st = cs.state
    F, F_mu, det_g = st.F, st.F_mu, st.det_g

    I_c = fr.I
    I_o = invariant_I_oracle(space, fr)

    w3 = (F / F_mu) ** 3 * st.a_det / det_g           # (F/F_mu)^3 det a / det g
    w2 = F**2 / F_mu**3 * st.a_det / det_g
    w4 = F**3 / F_mu**4 * st.a_det / det_g

    l_dn_l = np.array([float(st.l @ cs.dN_mu[k] @ fr.l_up) for k in range(space.n_metrics)])
    m_dn_l = np.array([float(fr.m @ cs.dN_mu[k] @ fr.l_up) for k in range(space.n_metrics)])
    m_dn_m = np.array([float(fr.m @ cs.dN_mu[k] @ fr.m_up) for k in range(space.n_metrics)])
    cross_col = fr.cross.sum(axis=0)  # sum_nu A[nu, mu]

    eq1_A = -1.5 * F**4 / det_g * float(np.einsum("m,nm->", st.a_det / F_mu**4, fr.cross))
    eq1_B = float(w3.sum())
    eq1_C = float(
        -0.5 * np.sum(w2 * l_dn_l)
        + 1.5 * np.sum(w4 * cross_col * m_dn_l)
        + np.sum(w2 * m_dn_m)
    )
    eq2_A = -float(w3.sum())
    eq2_C = float(np.sum(w2 * m_dn_l))
    eq3_B = float(
        np.sum(w4 * (-0.5 * (F_mu / F) * l_dn_l + 1.5 * cross_col * m_dn_l))
        + np.sum(w2 * m_dn_m)
    )

    # matrix-element identities
    sector_l_dN = float(np.max(np.abs(np.einsum("ki,kij->j", st.l_mu, cs.dN_mu))))
    sector_m_dN_l = abs(float(np.sum(w3 * m_dn_l)))

    bracket = np.zeros(space.n_metrics)
    for k in range(space.n_metrics):
        vec = (
            st.l_mu[k] / (2.0 * F)
            + w3[k] * (1.5 * cross_col[k] / F_mu[k] * fr.m - I_c / F * fr.m - st.l / (2.0 * F))
        )
        bracket[k] = float(vec @ cs.G_mu[k])
    sector_m_dN_m = abs(float(np.sum(w3 * m_dn_m) - bracket.sum()))

    an_lhs = float(np.einsum("m,nm,m->", F**3 / F_mu**4 * st.a_det / det_g, fr.cross, m_dn_l))
    an_rhs = 0.0
    for k in range(space.n_metrics):
        vec = st.l / F - st.l_mu[k] / F_mu[k]
        an_rhs += w3[k] * float(vec @ cs.dN_mu[k] @ fr.l_up)
    cross_dN = abs(an_lhs - an_rhs)

    # cross-term/log-gradient relation, FD of log(F / F_mu) for all sectors on the right side
    def log_ratios(yy):
        f_mu = sector_norms(st.a_mu, yy)
        return np.log(f_mu.sum() / f_mu)

    hy = FD_STEP * (1.0 + float(np.linalg.norm(st.y)))
    rhs = central_difference(log_ratios, st.y, hy)  # [i, nu]
    a_rel = 0.0
    for nu in range(space.n_metrics):
        lhs_vec = (fr.cross[:, nu].sum() / F_mu[nu]) * fr.m
        a_rel = max(a_rel, float(np.max(np.abs(lhs_vec - rhs[:, nu]))))

    return StructureReport(
        I_compact=I_c, I_oracle=I_o,
        eq1_A_plus_I=abs(eq1_A + I_o), eq1_B_minus_1=abs(eq1_B - 1.0), eq1_C=abs(eq1_C),
        eq2_A_plus_1=abs(eq2_A + 1.0), eq2_C=abs(eq2_C),
        eq3_B=abs(eq3_B),
        oneform_roundtrip=_oneform_roundtrip(space, cs, fr),
        sector_l_dN=sector_l_dN, sector_m_dN_l=sector_m_dN_l, sector_m_dN_m=sector_m_dN_m,
        cross_dN_identity=cross_dN, cross_log_gradient=a_rel,
    )
