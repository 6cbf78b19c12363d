"""Spray coefficients, nonlinear and Chern connections, Landsberg/Berwald residuals.

Conventions: the spray satisfies G^i = N^i_j y^j, so for a single metric it
reduces to Gamma^i_jk y^j y^k and the geodesic equation reads
x'' + G(x, x') = 0.  The quarter-normalized variational spray used as an
oracle is converted by the factor 2 at the comparison boundary.

Horizontal derivatives combine exact symbolic x-derivatives of the metric
data with closed-form fiber derivatives; central finite differences (step
1e-5 per coordinate) are the documented fallback for objects without a
closed-form x-derivative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .finsler import (
    FinslerState,
    MultiMetricSpace,
    _scalar,
    _fd_hessian,
    _sym3,
    finsler_norm,
    finsler_state,
    row_norm,
    rows_or_first_error,
    sector_norms,
)
from .riemann import _christoffel

FD_STEP = 1e-5
MIXED_FD_STEP = 1e-4


def fd_step(v: np.ndarray, base=FD_STEP):
    """The central-difference step base * (1 + |v|) at each row of v (..., n), |v| by
    row_norm; the dtype follows base, so a long double base gives long double steps."""
    return base * (1.0 + row_norm(v))


def _stencil(v: np.ndarray, steps) -> np.ndarray:
    """[..., i, 0, :] = v + steps_i e_i and [..., i, 1, :] = v - steps_i e_i for each
    coordinate i of v (..., n), with one step per coordinate (..., n), in the dtype of v."""
    n = v.shape[-1]
    e = np.zeros(v.shape + (n,), dtype=v.dtype)
    e[..., range(n), range(n)] = steps
    return np.stack([v[..., None, :] + e, v[..., None, :] - e], axis=-2)


def central_difference(f, v: np.ndarray, h, at=None) -> np.ndarray:
    """D[..., i, :] = (f(v + h_i e_i) - f(v - h_i e_i)) / 2 h_i for each coordinate i of v.

    v is one point (n,) or a batch (..., n); h is one step, one step per point
    (...) or one per coordinate (..., n), and the steps take the dtype of v.
    f is called once on the 2n shifted points of every point of v, stacked as
    (P, n) in the order v + h_0 e_0, v - h_0 e_0, v + h_1 e_1, ..., and
    returns one value per point, (P, *shape); each point keeps the error it
    raises alone (see finsler.rows_or_first_error).  With at (..., k), f takes
    (at_rows, shifted) with at_rows (P, k), each shifted point's own row of at,
    unshifted: a field of y at each sample's x takes at=x.  D has the shape
    (..., n, *shape).
    """
    n = v.shape[-1]
    h = np.asarray(h)
    steps = np.broadcast_to(h if h.shape == v.shape else h[..., None], v.shape)
    shifted = _stencil(v, steps)  # (..., n, 2, n)
    if at is None:
        out = rows_or_first_error(f, shifted.reshape(-1, n))
    else:
        at = np.broadcast_to(at[..., None, None, :], shifted.shape[:-1] + at.shape[-1:])
        out = rows_or_first_error(f, at.reshape(-1, at.shape[-1]), shifted.reshape(-1, n))
    out = out.reshape(v.shape + (2,) + out.shape[1:])
    step = (2.0 * steps).reshape(v.shape + (1,) * (out.ndim - v.ndim - 1))
    return (np.take(out, 0, axis=v.ndim) - np.take(out, 1, axis=v.ndim)) / step


@dataclass(frozen=True)
class ConnectionState:
    """Spray and nonlinear-connection data at one sample.

    The spray G is computed up front; N and dN_mu are built on first access,
    so a caller that reads only G (an RK4 stage) never builds the Cartan
    tensor or the fiber derivatives of P.  For a batch of samples every
    array gains a leading batch axis, N and dN_mu included.
    """

    state: FinslerState
    G: np.ndarray        # (n,) full spray
    G_mu: np.ndarray     # (N, n) per-sector Riemannian sprays
    N_mu: np.ndarray     # (N, n, n) per-sector Riemannian connections
    gamma_mu: np.ndarray  # (N, n, n, n) per-sector Christoffels
    P: np.ndarray        # (N, n, n) P_mu[r, j] = d(F l^mu_j)/dy_r
    b: np.ndarray        # (n,) sum_mu P_mu G_mu, so that G = g^-1 b

    @functools.cached_property
    def N(self) -> np.ndarray:
        """(n, n) Cartan nonlinear connection N^i_j, computed on first access."""
        state = self.state
        F, F_mu = np.asarray(state.F)[..., None], state.F_mu
        l, l_mu, h, h_mu = state.l, state.l_mu, state.h, state.h_mu

        # dP[mu, k, r, j] = d P_mu[r, j] / dy_k
        dP = (
            np.einsum("...kr,...mj->...mkrj", h / F[..., None], l_mu)
            + np.einsum("...r,...mkj->...mkrj", l, h_mu / F_mu[..., None, None])
            + np.einsum("...mk,...mrj->...mkrj",
                        (1.0 / F_mu[..., None] * l[..., None, :] - F[..., None] * l_mu / F_mu[..., None] ** 2), h_mu)
            - np.einsum("...m,...mkr,...mj->...mkrj", F / F_mu**2, h_mu, l_mu)
            - np.einsum("...m,...mr,...mkj->...mkrj", F / F_mu**2, l_mu, h_mu)
        )

        raised_C = np.einsum("...is,...rt,...kst->...kir", state.g_inv, state.g_inv, state.C)
        term1 = -np.einsum("...kir,...r->...ik", raised_C, self.b)
        term2 = 0.5 * np.einsum("...ir,...mkrj,...mj->...ik", state.g_inv, dP, self.G_mu)
        term3 = np.einsum("...ir,...mrj,...mjk->...ik", state.g_inv, self.P, self.N_mu)
        return term1 + term2 + term3

    @functools.cached_property
    def dN_mu(self) -> np.ndarray:
        """(N, n, n) N - N_mu, computed on first access."""
        return self.N[..., None, :, :] - self.N_mu


@dataclass(frozen=True)
class XDerivatives:
    """Exact x-derivatives of the assembled pointwise data (index s first)."""

    dF: np.ndarray       # (n,)
    dg: np.ndarray       # (n, n, n) [s, i, j]
    dC: np.ndarray       # (n, n, n, n) [s, i, j, k]


def _norm_x_derivatives(dA: np.ndarray, state: FinslerState) -> np.ndarray:
    """dF_mu[..., mu, s] = d F_mu / d x_s from the metric derivatives dA[..., mu, s, i, j]."""
    return 0.5 * np.einsum("...ksij,...i,...j->...ks", dA, state.y, state.y) / state.F_mu[..., None]


def x_derivatives(space: MultiMetricSpace, state: FinslerState) -> XDerivatives:
    """Differentiate the assembled quantities in x via exact metric derivatives."""
    y = state.y
    dA = space.metric_derivatives(state.x, 1)  # (N, s, i, j)

    dF_mu = _norm_x_derivatives(dA, state)
    dF = dF_mu.sum(axis=0)
    dl_mu = (
        np.einsum("ksij,j->ksi", dA, y) / state.F_mu[:, None, None]
        - np.einsum("ks,ki->ksi", dF_mu, state.l_mu) / state.F_mu[:, None, None]
    )
    dl = dl_mu.sum(axis=0)
    dh_mu = (
        dA
        - np.einsum("ksi,kj->ksij", dl_mu, state.l_mu)
        - np.einsum("ki,ksj->ksij", state.l_mu, dl_mu)
    )

    F, F_mu = state.F, state.F_mu
    dg = np.einsum("si,j->sij", dl, state.l) + np.einsum("i,sj->sij", state.l, dl)
    for k in range(space.n_metrics):
        wk = dF / F_mu[k] - F * dF_mu[k] / F_mu[k] ** 2
        dg += np.einsum("s,ij->sij", wk, state.h_mu[k]) + (F / F_mu[k]) * dh_mu[k]
    dC = _cartan_derivative(state, dF, dF_mu, dl, dl_mu, dh_mu)
    return XDerivatives(dF=dF, dg=dg, dC=dC)


def _cartan_derivative(state: FinslerState, dF, dF_mu, dl, dl_mu, dh_mu) -> np.ndarray:
    """Chain rule for the closed-form Cartan tensor: dC[s, i, j, k] from the
    derivatives of F, F_mu, l, l_mu and h_mu, with s after any sector index."""
    F, F_mu, l = state.F, state.F_mu, state.l
    n = len(l)
    dC2 = np.zeros((n, n, n, n))  # derivative of 2C
    for k in range(len(F_mu)):
        hk = state.h_mu[k]
        dC2 += (
            -np.einsum("s,ijk->sijk", dF_mu[k] / F_mu[k] ** 2, _sym3(l, hk))
            + _dsym3(dl, hk, l, dh_mu[k]) / F_mu[k]
        )
        dw = dF / F_mu[k] ** 2 - 2.0 * F * dF_mu[k] / F_mu[k] ** 3
        dC2 -= (
            np.einsum("s,ijk->sijk", dw, _sym3(state.l_mu[k], hk))
            + (F / F_mu[k] ** 2) * _dsym3(dl_mu[k], hk, state.l_mu[k], dh_mu[k])
        )
    return 0.5 * dC2


def _dsym3(dv: np.ndarray, H: np.ndarray, v: np.ndarray, dH: np.ndarray) -> np.ndarray:
    """Derivative (leading index s) of sym3(v, H) given dv[s,i] and dH[s,i,j]."""
    return (
        np.einsum("si,jk->sijk", dv, H)
        + np.einsum("sj,ik->sijk", dv, H)
        + np.einsum("sk,ij->sijk", dv, H)
        + np.einsum("i,sjk->sijk", v, dH)
        + np.einsum("j,sik->sijk", v, dH)
        + np.einsum("k,sij->sijk", v, dH)
    )


def _fiber_dh(h: np.ndarray, l: np.ndarray, F) -> np.ndarray:
    """[..., r, i, j] = d h_ij / dy_r for h = a - l (x) l of a norm F with covector l,
    over leading batch axes (F of shape (...))."""
    return -(np.einsum("...ri,...j->...rij", h, l) + np.einsum("...i,...rj->...rij", l, h)) / (
        np.asarray(F)[..., None, None, None])


def cartan_y_derivative(state: FinslerState) -> np.ndarray:
    """Closed-form fiber derivative dC[r,i,j,k] = dC_ijk / dy_r.

    The x-derivative chain rule with dF -> l, dF_mu -> l_mu, dl -> h/F and
    dl_mu -> h_mu/F_mu.
    """
    F_mu, l_mu, h_mu = state.F_mu, state.l_mu, state.h_mu
    dh_mu = _fiber_dh(h_mu, l_mu, F_mu)
    return _cartan_derivative(
        state, state.l, l_mu, state.h / state.F, h_mu / F_mu[:, None, None], dh_mu,
    )


def connection_state(space: MultiMetricSpace, x, y) -> ConnectionState:
    """Assemble the spray at a sample (x, y), or at a batch of samples with x and y
    of shape (B, n); the Cartan nonlinear connection follows on access."""
    state = finsler_state(space, x, y)
    # per-sector Christoffels, connections Gamma y and sprays Gamma y y, from the
    # inverses that metric_values validated at x
    gamma_mu = _christoffel(state.a_inv, space.metric_derivatives(state.x, 1))
    y_mu = state.y[..., None, :]  # the same y for every sector
    N_mu = np.einsum("...ijk,...k->...ij", gamma_mu, y_mu)
    G_mu = np.matvec(N_mu, y_mu)
    ratio = np.asarray(state.F)[..., None] / state.F_mu

    # P_mu[r, j] = d(F l^mu_j)/dy_r = l_r l^mu_j + (F/F_mu) h^mu_rj
    P = state.l[..., None, :, None] * state.l_mu[..., :, None, :] + ratio[..., None, None] * state.h_mu
    b = np.einsum("...krj,...kj->...r", P, G_mu)
    G = np.matvec(state.g_inv, b)

    return ConnectionState(state=state, G=G, G_mu=G_mu, N_mu=N_mu, gamma_mu=gamma_mu, P=P, b=b)


def variational_spray(space: MultiMetricSpace, x, y) -> np.ndarray:
    """Independent spray oracle G from finite differences of F^2 alone, at a sample
    (x, y) or at a batch of samples with x and y of shape (B, n).

    Computes 2 * (1/4) g^{il} (y^k d^2F^2/dx^k dy^l - dF^2/dx^l) with the
    Hessian g and all derivatives taken by central differences of F^2,
    evaluated in extended precision.  It shares only the sector matrices,
    validated at x by the Hessian of fd_fundamental_tensor, with
    connection_state.  Each row is the single call's bits, and the first
    failing row raises its own error (see rows_or_first_error).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    G = rows_or_first_error(functools.partial(_variational_spray_rows, space), np.atleast_2d(x), np.atleast_2d(y))
    return G.reshape(y.shape)


def _variational_spray_rows(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """variational_spray at the rows of x and y (B, n).  The FD Hessian comes first: it
    validates the samples (finsler_norm) before |x| and |y| size the steps."""
    g_inv = np.linalg.inv(_fd_hessian(space, x, y))
    n = x.shape[-1]
    ld = np.longdouble
    hy, hx = fd_step(y, ld(MIXED_FD_STEP)), fd_step(x, ld(MIXED_FD_STEP))

    # the stencils [b, k, s] of x and y in long double
    xs, ys = _stencil(x.astype(ld), hx[:, None]), _stencil(y.astype(ld), hy[:, None])
    # the sector matrices at each stencil x, in the order a single sample meets them; the
    # points x +- h e_k of one sample are distinct, so each is evaluated once
    a = np.array([[m.value(xx) for m in space.metrics] for xx in xs.reshape(-1, n)]).astype(ld)
    a = a.reshape(xs.shape[:3] + a.shape[1:])  # [b, k, s, mu, i, j]

    # F^2 at (x +- h e_k, y +- h e_m) as [b, k, m, sx, sy], then at (x +- h e_k, y) as [b, k, sx]
    shape = (len(x), n, n, 2, 2)
    a_mixed = np.broadcast_to(a[:, :, None, :, None], shape + a.shape[-3:]).reshape((-1,) + a.shape[-3:])
    y_mixed = np.broadcast_to(ys[:, None, :, None, :, :], shape + (n,)).reshape(-1, n)
    a_dx = a.reshape((-1,) + a.shape[-3:])
    y_dx = np.broadcast_to(y.astype(ld)[:, None, None, :], xs.shape).reshape(-1, n)
    s = sector_norms(np.concatenate([a_mixed, a_dx]), np.concatenate([y_mixed, y_dx])).sum(axis=-1)
    f2 = s * s
    f_mixed, f_dx = f2[:len(y_mixed)].reshape(shape), f2[len(y_mixed):].reshape(xs.shape[:3])

    # mixed[b, k, l] = d^2 F^2 / dx_k dy_l
    mixed = ((f_mixed[..., 0, 0] - f_mixed[..., 0, 1] - f_mixed[..., 1, 0] + f_mixed[..., 1, 1])
             / (4.0 * hx * hy)[:, None, None]).astype(float)
    dx_f2 = ((f_dx[..., 0] - f_dx[..., 1]) / (2.0 * hx)[:, None]).astype(float)
    return np.matvec(0.5 * g_inv, np.vecmat(y, mixed) - dx_f2)


def nonlinear_connection_fd(space: MultiMetricSpace, x, y) -> np.ndarray:
    """Oracle N = (1/2) dG/dy by central differences of the factorized spray, at a
    sample (x, y) or at a batch of samples, each with its own step.  Each row is the
    single call's bits, and the first failing row raises its own error (see
    rows_or_first_error)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    xs = np.broadcast_to(x, y.shape).reshape(rows.shape)
    return rows_or_first_error(functools.partial(_nonlinear_connection_rows, space), xs, rows).reshape(
        y.shape + y.shape[-1:])


def _nonlinear_connection_rows(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """nonlinear_connection_fd at the rows of x and y (B, n).  The samples first pass
    finsler_norm's checks, so a y whose quadratic forms overflow raises its
    NonFiniteSampleError before |y| sizes the step."""
    finsler_norm(space, x, y)
    dG = central_difference(lambda xs, ys: connection_state(space, xs, ys).G, y, FD_STEP * row_norm(y), at=x)
    return 0.5 * np.swapaxes(dG, -1, -2)


def horizontal_compatibility_residual(space: MultiMetricSpace, cs: ConnectionState):
    """Max |d_i F - N^j_i l_j| at the sample of cs, or at each sample of a batch; zero for
    the Cartan nonlinear connection."""
    st = cs.state
    dF = _norm_x_derivatives(space.metric_derivatives(st.x, 1), st).sum(axis=-2)
    resid = dF - np.einsum("...ji,...j->...i", cs.N, st.l)
    return _scalar(np.max(np.abs(resid), axis=-1))


def chern_connection(space: MultiMetricSpace, cs: ConnectionState) -> np.ndarray:
    """Chern connection coefficients [k, i, j] at the sample of cs, symmetric in (i, j)."""
    return _chern_from_dg(cs, x_derivatives(space, cs.state).dg)


def _chern_from_dg(cs: ConnectionState, dg: np.ndarray) -> np.ndarray:
    """Chern coefficients from the x-derivatives dg[s, i, j] of the fundamental tensor."""
    state = cs.state
    # delta_s g_ij = d_s g_ij - N^r_s * 2 C_rij
    dgh = dg - 2.0 * np.einsum("rs,rij->sij", cs.N, state.C)
    # T[i, s, j] = delta_i g_sj + delta_j g_si - delta_s g_ij
    inner = dgh + dgh.transpose(2, 1, 0) - dgh.transpose(1, 0, 2)
    return 0.5 * np.einsum("ks,isj->kij", state.g_inv, inner)


@dataclass(frozen=True)
class LandsbergBerwald:
    """Horizontal derivatives of the Cartan tensor and per-pair factorized residuals."""

    C_dot: np.ndarray            # (n, n, n) Landsberg tensor C_ijk|s y^s
    C_horizontal: np.ndarray     # (n, n, n, n) Berwald residual C_ijk|s, index s last
    pair_residuals: np.ndarray   # (N, N) max-abs residual of the factorized cubic condition


def landsberg_berwald(space: MultiMetricSpace, x, y) -> LandsbergBerwald:
    """Landsberg and Berwald tensors and the pair residuals at one sample (x, y)."""
    cs = connection_state(space, x, y)
    state = cs.state
    xd = x_derivatives(space, state)
    chern = _chern_from_dg(cs, xd.dg)
    dyC = cartan_y_derivative(state)

    delta_C = xd.dC - np.einsum("rs,rijk->sijk", cs.N, dyC)  # [s, i, j, k]
    c_hor = (
        delta_C.transpose(1, 2, 3, 0)
        - np.einsum("rjk,ris->ijks", state.C, chern)
        - np.einsum("irk,rjs->ijks", state.C, chern)
        - np.einsum("ijr,rks->ijks", state.C, chern)
    )
    c_dot = np.einsum("ijks,s->ijk", c_hor, state.y)

    nm = space.n_metrics
    pair = np.zeros((nm, nm))
    chern_y = np.einsum("arj,j->ar", chern, state.y)
    for mu in range(nm):
        for nu in range(mu + 1, nm):
            resid = _pair_cubic_residual(space, state, cs, chern_y, mu, nu)
            pair[mu, nu] = pair[nu, mu] = resid
    return LandsbergBerwald(C_dot=c_dot, C_horizontal=c_hor, pair_residuals=pair)


def _pair_cubic_tensor(space: MultiMetricSpace, x, y, mu: int, nu: int) -> np.ndarray:
    """(1/F) * third fiber derivative of F_mu F_nu, closed form, [..., r, s, t] at a
    sample or at each sample of a batch."""
    st = finsler_state(space, x, y)
    Fm, Fn = st.F_mu[..., mu, None], st.F_mu[..., nu, None]  # against a vector axis
    lm, ln = st.l_mu[..., mu, :], st.l_mu[..., nu, :]
    hm, hn = st.h_mu[..., mu, :, :], st.h_mu[..., nu, :, :]
    dhm, dhn = _fiber_dh(hm, lm, Fm[..., 0]), _fiber_dh(hn, ln, Fn[..., 0])
    hm_Fm, hn_Fn = hm / Fm[..., None], hn / Fn[..., None]

    termA = (
        np.einsum("...r,...st->...rst", ln / Fm - Fn * lm / Fm**2, hm) + (Fn / Fm)[..., None, None] * dhm
    )
    termB = np.einsum("...rt,...s->...rst", hm_Fm, ln) + np.einsum("...t,...rs->...rst", lm, hn_Fn)
    termC = np.einsum("...rs,...t->...rst", hm_Fm, ln) + np.einsum("...s,...rt->...rst", lm, hn_Fn)
    termD = (
        np.einsum("...r,...st->...rst", lm / Fn - Fm * ln / Fn**2, hn) + (Fm / Fn)[..., None, None] * dhn
    )
    return (termA + termB + termC + termD) / np.asarray(st.F)[..., None, None, None]


def _pair_cubic_residual(space, state, cs, chern_y, mu, nu) -> float:
    """Max-abs of the horizontal spray derivative of the pair cubic tensor."""
    x, y = state.x, state.y
    dx = central_difference(lambda ys, xs: _pair_cubic_tensor(space, xs, ys, mu, nu), x, fd_step(x), at=y)
    dy = central_difference(lambda xs, ys: _pair_cubic_tensor(space, xs, ys, mu, nu), y, fd_step(y), at=x)
    acc = np.einsum("s,s...->...", y, dx) - np.einsum("a,a...->...", cs.G, dy)

    t0 = _pair_cubic_tensor(space, x, y, mu, nu)
    acc -= (
        np.einsum("ast,ar->rst", t0, chern_y)
        + np.einsum("rat,as->rst", t0, chern_y)
        + np.einsum("rsa,at->rst", t0, chern_y)
    )
    return float(np.max(np.abs(acc)))
