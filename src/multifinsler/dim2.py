"""2D frame machinery: zweibeins, cross terms, the scalars I, J, K, and
coefficient-level residuals of the three structure equations on the sphere bundle.

Orientation is pinned to eps_12 = +1 with m_i = sqrt(det g) eps_ij l^j; the
scalars I and the cross terms are pseudoscalars, so the fixed orientation makes
them reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .connection import FD_STEP, ConnectionState, central_difference, connection_state
from .finsler import (
    FinslerState,
    MultiMetricSpace,
    _distinct_points,
    _power,
    _scalar,
    finsler_state,
    require_2d,
    rows_or_first_error,
    sector_norms,
)
from .riemann import _christoffel


def _perp(v: np.ndarray, scale) -> np.ndarray:
    """scale * eps v over leading batch axes, in either index position: m_i = scale
    eps_ij v^j and m^i = scale eps^ij v_j, with eps_12 = eps^12 = +1."""
    return np.asarray(scale)[..., None] * np.stack([v[..., 1], -v[..., 0]], axis=-1)


def _sector_products(u: np.ndarray, dN_mu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . dN_mu . v for every sector mu, over leading batch axes; u and v hold one
    vector per sector (..., N, n) or one for all sectors (..., 1, n)."""
    return np.vecdot(np.vecmat(u, dN_mu), v)


def _contract(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """u^i a_i over the coordinate axis of a, which holds one value (..., n) or
    one vector (..., n, k) per coordinate."""
    return np.vecdot(u, a) if a.ndim == u.ndim else np.vecmat(u, a)


@dataclass(frozen=True)
class Frame2D:
    """Berwald zweibein at a 2D sample, or at a batch with a leading batch axis: l
    and l^ are state.l and state.l_up.  The properties read the sector data of the
    state and are computed on first access."""

    state: FinslerState
    m: np.ndarray
    m_up: np.ndarray

    @functools.cached_property
    def cross(self) -> np.ndarray:
        """(N, N) antisymmetric cross terms A[mu, nu]."""
        lm = self.state.l_mu
        outer = lm[..., :, None, 0] * lm[..., None, :, 1] - lm[..., :, None, 1] * lm[..., None, :, 0]
        return outer / np.sqrt(np.asarray(self.state.det_g))[..., None, None]

    @functools.cached_property
    def I(self) -> float | np.ndarray:
        """Main scalar, closed cross-term formula; a float for one sample."""
        st = self.state
        return _scalar(1.5 * _power(st.F, 4) / st.det_g
                       * np.einsum("...n,...mn->...", st.a_det / st.F_mu**4, self.cross))

    @functools.cached_property
    def det_identity_residual(self) -> float | np.ndarray:
        """Relative residual of det g / F^3 = sum det a_mu / F_mu^3; a float for one sample."""
        st = self.state
        lhs = st.det_g / _power(st.F, 3)
        return _scalar(np.abs(lhs - np.sum(st.a_det / st.F_mu**3, axis=-1)) / np.abs(lhs))


def frame_from_state(state: FinslerState) -> Frame2D:
    """The frame of an already evaluated 2D state or batch of states; evaluates
    nothing at other points."""
    require_2d(state.y.shape[-1])
    sqrt_g = np.sqrt(state.det_g)
    return Frame2D(state=state, m=_perp(state.l_up, sqrt_g), m_up=_perp(state.l, 1.0 / sqrt_g))


def invariant_I_oracle(space: MultiMetricSpace, fr: Frame2D) -> float | np.ndarray:
    """Oracle for the main scalar Frame2D.I at the sample of fr, or at each sample of a
    batch: (F / 2 det g) m^i d(det g)/dy_i with the fiber derivative by central
    differences of the assembled determinant.
    """
    x, y = fr.state.x, fr.state.y
    h = FD_STEP * (1.0 + np.sqrt(np.vecdot(y, y)))  # the bits of np.linalg.norm of one point
    grad = central_difference(lambda xs, ys: finsler_state(space, xs, ys).det_g, y, h, at=x)
    scale = np.asarray(fr.state.F / (2.0 * fr.state.det_g))[..., None]
    return _scalar(np.vecdot(scale * fr.m_up, grad))


def _horizontal_derivative(cs: ConnectionState, field: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(delta_i phi = d_i phi - N^j_i d phi/dy_j, d phi/dy_i) at the samples of cs by central
    differences, from one call of phi(xs, ys) on the 8 neighbours of every sample: the
    x-stencil, then the y-stencil.  phi takes points (P, 2) and gives (P,) or (P, k); both
    results are (..., 2) or (..., 2, k)."""
    x, y = cs.state.x, cs.state.y
    n = x.shape[-1]
    hx = FD_STEP * (1.0 + np.sqrt(np.vecdot(x, x)))  # the bits of np.linalg.norm of one point
    hy = FD_STEP * (1.0 + np.sqrt(np.vecdot(y, y)))
    steps = np.repeat(np.stack([hx, hy], axis=-1), n, axis=-1)  # hx for each x_i, then hy for each y_i
    d = central_difference(lambda v: field(v[:, :n].copy(), v[:, n:].copy()), np.concatenate([x, y], axis=-1), steps)
    dx, dy = np.split(d, 2, axis=x.ndim - 1)
    if dy.ndim == x.ndim:
        return dx - np.einsum("...ji,...j->...i", cs.N, dy), dy
    return dx - np.einsum("...ji,...jk->...ik", cs.N, dy), dy


def frame_derivatives(cs: ConnectionState, field: Callable) -> tuple:
    """(e1 phi, e2 phi, e3 phi) at the samples of cs, e1 = m^i delta_i, e2 = l^i delta_i and
    e3 = F m^i d/dy_i, from one x- and one y-stencil (one call of phi on 8 points per sample,
    see _horizontal_derivative).  Each result has the shape of phi's value per sample."""
    st = cs.state
    fr = frame_from_state(st)
    delta, dy = _horizontal_derivative(cs, field)
    return (_contract(fr.m_up, delta), _contract(st.l_up, delta),
            _contract(np.asarray(st.F)[..., None] * fr.m_up, dy))


def gauss_curvature(space: MultiMetricSpace, x) -> np.ndarray:
    """Gauss curvatures of the N sector metrics of a 2D space, via the curvature tensor
    of each Levi-Civita connection, at one point (2,) or at points (P, 2): an array
    (N,) or (P, N).

    The sector data comes from the space: metric_values validates the matrices as
    SPD before metric_derivatives evaluates their first and second derivatives.
    The curvatures are taken once per distinct point, in the order the points
    first occur; each is the single call's bits, and the first failing point
    raises the error it raises alone (see rows_or_first_error).
    """
    require_2d(space.dim)

    def curvatures(points):
        a, inv, det = space.metric_values(points)
        dA, d2A = space.metric_derivatives(points, 1), space.metric_derivatives(points, 2)
        gamma = _christoffel(inv, dA)
        # d inv / d x_s = -inv dA_s inv
        dinv = -np.einsum("...im,...smn,...nl->...sil", inv, dA, inv)
        # T[j,l,k] = d_j a_lk + d_k a_lj - d_l a_jk and its x-derivative
        T = dA + np.swapaxes(dA, -3, -1) - np.swapaxes(dA, -3, -2)
        dT = d2A + np.swapaxes(d2A, -3, -1) - np.swapaxes(d2A, -3, -2)
        dgamma = 0.5 * (np.einsum("...sil,...jlk->...sijk", dinv, T) + np.einsum("...il,...sjlk->...sijk", inv, dT))

        # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}
        riem = (
            np.einsum("...kilj->...ijkl", dgamma)
            - np.einsum("...likj->...ijkl", dgamma)
            + np.einsum("...iks,...slj->...ijkl", gamma, gamma)
            - np.einsum("...ils,...skj->...ijkl", gamma, gamma)
        )
        r_low = np.einsum("...im,...mjkl->...ijkl", a, riem)
        return r_low[..., 0, 1, 0, 1] / det

    points, spread = _distinct_points(np.asarray(x, dtype=float))
    return spread(rows_or_first_error(curvatures, points))


def invariants_JK(space: MultiMetricSpace, cs: ConnectionState) -> tuple:
    """Landsberg scalar J and the curvature scalar K of the third structure equation
    at the sample of cs, or at each sample of a batch.

    J comes from the omega^1 wedge omega^3 coefficient; K combines the sector
    Gauss curvatures with frame-derivative corrections.  For a single metric,
    K reduces to the Gauss curvature.  The Gauss curvatures of all sectors come
    from one gauss_curvature call at the points of the batch, before the 8
    neighbours of every sample; one array-valued field on those neighbours
    gives the frame derivatives of all sectors and the fiber derivative of N,
    so J and K take one batched connection state for any number of metrics and
    samples.  Floats for one sample, arrays of shape (...) for a batch.
    """
    gauss = gauss_curvature(space, cs.state.x)
    st = cs.state
    fr = frame_from_state(st)
    F, F_mu, det_g = np.asarray(st.F), st.F_mu, np.asarray(st.det_g)
    F_c, det_g_c = F[..., None], det_g[..., None]  # against the sector axis
    n = space.n_metrics

    def sector_scalars(xs, ys):
        """(s_mu, t_mu) for every sector, then N flattened: s_mu = F/F_mu^2 sqrt(det a_mu/det g)
        m.dN_mu.m^, t_mu = F/F_mu sqrt(det a_mu/det g)."""
        c = connection_state(space, xs, ys)
        f = frame_from_state(c.state)
        s = c.state
        F_s = s.F[:, None]
        ratio = np.sqrt(s.a_det / s.det_g[:, None])
        m_dn_m = _sector_products(f.m[:, None], c.dN_mu, f.m_up[:, None])
        return np.concatenate([F_s / s.F_mu**2 * ratio * m_dn_m, F_s / s.F_mu * ratio, c.N.reshape(-1, 4)],
                              axis=-1)

    delta, dy = _horizontal_derivative(cs, sector_scalars)
    # dN[..., r, i, j] = dN^i_j / dy_r
    dN = dy[..., 2 * n:].reshape(dy.shape[:-1] + (2, 2))

    w3 = (F_c / F_mu) ** 3 * st.a_det / det_g_c
    a_coeff = 0.0
    for k in range(n):
        u = np.matvec(cs.dN_mu[..., k, :, :], fr.m_up)
        vec = 1.5 * st.l_mu[..., k, :] / F_mu[..., k, None] - st.l / F_c
        gamma_t = np.moveaxis(cs.gamma_mu[..., k, :, :, :], -1, -3)  # [r, i, j] = Gamma^i_{jr}
        ddN = dN - gamma_t
        contr = np.einsum("...i,...j,...r,...rij->...", fr.m, fr.m_up, fr.m_up, ddN)
        a_coeff += w3[..., k] * (np.vecdot(vec, u) - contr)
    J = -a_coeff

    e2_s = np.vecmat(st.l_up, delta[..., :n])
    e1_t = np.vecmat(fr.m_up, delta[..., n:2 * n])

    K = 0.0
    sq = np.sqrt(st.a_det / det_g_c)
    m_dn_l = _sector_products(fr.m[..., None, :], cs.dN_mu, st.l_up[..., None, :])
    for k in range(n):
        F_k = F_mu[..., k]
        K += gauss[..., k] * (F / F_k) * (st.a_det[..., k] / det_g)
        K -= (F / F_k) * sq[..., k] * e2_s[..., k]
        K -= (F / _power(F_k, 2)) * sq[..., k] * m_dn_l[..., k] * e1_t[..., k]
    return _scalar(J), _scalar(K)


@dataclass(frozen=True)
class StructureReport:
    """Coefficient-level residuals of the three structure equations at one sample, or
    arrays of shape (B,) for a batch."""

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


def _entries(*values) -> np.ndarray:
    """Per-sample values stacked on a new last axis; a float is the same at every sample."""
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def _oneform_roundtrip(cs: ConnectionState, fr: Frame2D, m_dn_m: np.ndarray, m_dn_l: np.ndarray):
    """Sector coframes expressed in the full coframe and back; residual from identity.

    m_dn_m and m_dn_l hold m . dN_mu . m^ and m . dN_mu . l^ per sector; m_k is the
    zweibein covector of sector k.  Covers both the per-sector relations (their
    composition must be the 3x3 identity) and the sector-summed expressions for
    each full coframe element.  Over leading batch axes, with one 3x3 product per
    sample and sector.
    """
    st = cs.state
    F, F_mu, det_g = np.asarray(st.F), st.F_mu, np.asarray(st.det_g)
    sqrt_det = np.sqrt(st.a_det)
    l_up_mu = st.y[..., None, :] / F_mu[..., None]
    m_mu = _perp(l_up_mu, sqrt_det)  # m_k, the zweibein covector of sector k
    mk_dn_mk = _sector_products(m_mu, cs.dN_mu, _perp(st.l_mu, 1.0 / sqrt_det))
    mk_dn_lk = _sector_products(m_mu, cs.dN_mu, l_up_mu)
    mk_dn_m = _sector_products(m_mu, cs.dN_mu, fr.m_up[..., None, :])
    mk_dn_l = _sector_products(m_mu, cs.dN_mu, st.l_up[..., None, :])
    F2 = _power(F, 2)
    worst = []
    summed = np.zeros(F.shape + (3, 3))
    for k in range(F_mu.shape[-1]):
        F_k = F_mu[..., k]
        ratio = np.sqrt(st.a_det[..., k] / det_g)
        c1 = (F / F_k) * ratio
        c2 = _power(F / F_k, 2) * ratio
        a_col = fr.cross[..., :, k].sum(axis=-1)  # sum_nu A[nu, k]

        # rows: sector coframe (w_k^1, w_k^2, w_k^3) in the (w1, w2, w3) basis
        to_sector = np.stack([
            _entries(c1, 0.0, 0.0),
            _entries(-a_col, F_k / F, 0.0),
            _entries(-c2 * m_dn_m[..., k] / F, -c2 * m_dn_l[..., k] / F, c2),
        ], axis=-2)
        # rows: full coframe in the sector basis
        from_sector = np.stack([
            _entries(1.0 / c1, 0.0, 0.0),
            _entries(a_col / ratio, F / F_k, 0.0),
            _entries(
                (F_k / F2) / ratio * mk_dn_mk[..., k],
                (F_k / F2) / ratio * mk_dn_lk[..., k],
                1.0 / c2,
            ),
        ], axis=-2)
        worst.append(np.max(np.abs(from_sector @ to_sector - np.eye(3)), axis=(-2, -1)))

        summed[..., 0, :] += np.asarray(c2)[..., None] * to_sector[..., 0, :]
        summed[..., 1, :] += to_sector[..., 1, :]
        summed[..., 2, :] += np.asarray(c1)[..., None] * (
            to_sector[..., 2, :]
            + _entries(mk_dn_m[..., k] / F_k, mk_dn_l[..., k] / F_k, 0.0)
        )
    worst.append(np.max(np.abs(summed - np.eye(3)), axis=(-2, -1)))
    return _scalar(np.max(worst, axis=0))


def cartan_structure_residuals(space: MultiMetricSpace, cs: ConnectionState) -> StructureReport:
    """Residuals of the structure-equation coefficients at the sample of cs, or at
    each sample of a batch (every field then an array of shape (B,)).

    J and K are not part of it; they come from invariants_JK.
    """
    fr = frame_from_state(cs.state)
    st = cs.state
    F, F_mu, det_g = np.asarray(st.F), st.F_mu, np.asarray(st.det_g)
    F_c, det_g_c = F[..., None], det_g[..., None]  # against the sector axis

    I_c = fr.I
    I_o = invariant_I_oracle(space, fr)

    w3 = (F_c / F_mu) ** 3 * st.a_det / det_g_c           # (F/F_mu)^3 det a / det g
    w2 = np.asarray(_power(F, 2))[..., None] / F_mu**3 * st.a_det / det_g_c
    w4 = np.asarray(_power(F, 3))[..., None] / F_mu**4 * st.a_det / det_g_c

    l_dn_l = _sector_products(st.l[..., None, :], cs.dN_mu, st.l_up[..., None, :])
    m_dn_l = _sector_products(fr.m[..., None, :], cs.dN_mu, st.l_up[..., None, :])
    m_dn_m = _sector_products(fr.m[..., None, :], cs.dN_mu, fr.m_up[..., None, :])
    cross_col = fr.cross.sum(axis=-2)  # sum_nu A[nu, mu]

    eq1_A = -I_c
    eq1_B = w3.sum(axis=-1)
    eq1_C = (
        -0.5 * np.sum(w2 * l_dn_l, axis=-1)
        + 1.5 * np.sum(w4 * cross_col * m_dn_l, axis=-1)
        + np.sum(w2 * m_dn_m, axis=-1)
    )
    eq2_A = -eq1_B
    eq2_C = np.sum(w2 * m_dn_l, axis=-1)
    eq3_B = (
        np.sum(w4 * (-0.5 * (F_mu / F_c) * l_dn_l + 1.5 * cross_col * m_dn_l), axis=-1)
        + np.sum(w2 * m_dn_m, axis=-1)
    )

    # matrix-element identities
    sector_l_dN = np.max(np.abs(np.einsum("...ki,...kij->...j", st.l_mu, cs.dN_mu)), axis=-1)
    sector_m_dN_l = np.abs(np.sum(w3 * m_dn_l, axis=-1))

    bracket = []
    for k in range(space.n_metrics):
        vec = (
            st.l_mu[..., k, :] / (2.0 * F_c)
            + w3[..., k, None] * (1.5 * cross_col[..., k, None] / F_mu[..., k, None] * fr.m
                                  - np.asarray(I_c / F)[..., None] * fr.m - st.l / (2.0 * F_c))
        )
        bracket.append(np.vecdot(vec, cs.G_mu[..., k, :]))
    sector_m_dN_m = np.abs(np.sum(w3 * m_dn_m, axis=-1) - np.sum(np.stack(bracket, axis=-1), axis=-1))

    an_lhs = np.einsum("...m,...nm,...m->...", w4, fr.cross, m_dn_l)
    an_dn = _sector_products((st.l / F_c)[..., None, :] - st.l_mu / F_mu[..., None], cs.dN_mu,
                             st.l_up[..., None, :])
    an_rhs = 0.0
    for k in range(space.n_metrics):
        an_rhs += w3[..., k] * an_dn[..., k]
    cross_dN = np.abs(an_lhs - an_rhs)

    # cross-term/log-gradient relation, FD of log(F / F_mu) for all sectors on the right
    # side; each neighbour carries the sector matrices of its sample
    a_shape = st.a_mu.shape[-3:]

    def log_ratios(a_mu, ys):
        f_mu = sector_norms(a_mu.reshape((-1,) + a_shape), ys)
        return np.log(f_mu.sum(axis=-1, keepdims=True) / f_mu)

    hy = FD_STEP * (1.0 + np.sqrt(np.vecdot(st.y, st.y)))  # the bits of np.linalg.norm of one point
    rhs = central_difference(log_ratios, st.y, hy, at=st.a_mu.reshape(st.a_mu.shape[:-3] + (-1,)))  # [..., i, nu]
    a_rel = []
    for nu in range(space.n_metrics):
        lhs_vec = (fr.cross[..., :, nu].sum(axis=-1) / F_mu[..., nu])[..., None] * fr.m
        a_rel.append(np.max(np.abs(lhs_vec - rhs[..., :, nu]), axis=-1))

    fields = dict(
        I_compact=I_c, I_oracle=I_o,
        eq1_A_plus_I=np.abs(eq1_A + I_o), eq1_B_minus_1=np.abs(eq1_B - 1.0), eq1_C=np.abs(eq1_C),
        eq2_A_plus_1=np.abs(eq2_A + 1.0), eq2_C=np.abs(eq2_C),
        eq3_B=np.abs(eq3_B),
        oneform_roundtrip=_oneform_roundtrip(cs, fr, m_dn_m, m_dn_l),
        sector_l_dN=sector_l_dN, sector_m_dN_l=sector_m_dN_l, sector_m_dN_m=sector_m_dN_m,
        cross_dN_identity=cross_dN, cross_log_gradient=np.max(a_rel, axis=0),
    )
    return StructureReport(**{k: _scalar(v) for k, v in fields.items()})
