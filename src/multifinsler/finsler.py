"""Multimetric Finsler norm and its pointwise tensors.

The norm is the sum of Riemannian norms F_mu = sqrt(y' a_mu(x) y).  The
fundamental tensor is assembled in factorized form

    g = l (x) l + sum_mu (F / F_mu) h_mu,        h_mu = a_mu - l_mu (x) l_mu,

and the Cartan tensor from closed-form fiber derivatives of that expression.
A finite-difference Hessian of F^2/2 is kept as an independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import ExprError
from .riemann import MetricField, NotPositiveDefiniteError, spd_inverse_det

EPS_SLIT = 1e-8          # |y| below this is on the zero section
HESSIAN_REL_STEP = 1e-5  # FD Hessian oracle step, relative to |y|


class SlitViolationError(Exception):
    """Fiber vector too close to the zero section."""


class ConvexityError(Exception):
    """Fundamental tensor failed to be positive definite at a sample."""


# Errors that belong to one sample: a batch that raises one may hold rows that
# evaluate, and each row alone raises what that row raises.  Any other
# exception belongs to the whole call.
SAMPLE_ERRORS = (SlitViolationError, NotPositiveDefiniteError, ConvexityError, ExprError,
                 np.linalg.LinAlgError)


@dataclass(frozen=True)
class TangentSample:
    """A point (x, y) on the slit tangent bundle."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        object.__setattr__(self, "x", np.asarray(x, dtype=float))
        object.__setattr__(self, "y", np.asarray(y, dtype=float))


class MultiMetricSpace:
    """An ordered family of Riemannian metrics on a shared coordinate patch."""

    def __init__(self, metrics: Sequence[MetricField]):
        if len(metrics) < 1:
            raise ValueError("need at least one metric")
        coords = metrics[0].coords
        for m in metrics:
            if m.coords != coords:
                raise ValueError(f"metric '{m.name}' does not share coordinates {coords}")
        self.metrics = tuple(metrics)
        self.coords = coords
        self.dim = len(coords)
        self.n_metrics = len(self.metrics)
        self._last_values: tuple[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def metric_values(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a_mu, inv_mu, det_mu) stacked over sectors, SPD-validated.

        x is one point (n,) or a batch (B, n); for a batch every array gains a
        leading batch axis.  Components are evaluated point by point, and an
        evaluation error is raised only if no earlier (point, metric) fails
        the SPD check, so each point keeps the error it raises alone.  The
        whole stack is then validated at once by `spd_inverse_det`.

        The most recent x is remembered, keyed on its shape and bytes, so
        the many evaluations at one x (fiber differences, quadrature over y)
        validate it once.  The returned arrays are read-only.  An x that
        fails the SPD check is not remembered.
        """
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        last = self._last_values  # one read, so a concurrent caller cannot swap it in between
        if last is not None and last[0] == key:
            return last[1]
        names = [m.name for m in self.metrics]
        points = x.reshape(-1, x.shape[-1])
        mats = np.empty((len(points), self.n_metrics, self.dim, self.dim))
        for p, xp in enumerate(points):
            for k, m in enumerate(self.metrics):
                try:
                    mats[p, k] = m.value(xp)
                except ExprError:
                    spd_inverse_det(mats[:p], points[:p], names)
                    spd_inverse_det(mats[p, :k], xp, names)
                    raise
        invs, dets = spd_inverse_det(mats, points, names)
        lead = x.shape[:-1]
        values = (mats.reshape(lead + mats.shape[1:]), invs.reshape(lead + invs.shape[1:]),
                  dets.reshape(lead + dets.shape[1:]))
        for v in values:
            v.flags.writeable = False
        self._last_values = (key, values)
        return values

    def metric_derivatives(self, x) -> np.ndarray:
        """dA[..., mu, s, i, j] = d a^mu_ij / d x_s at one point (n,) or a batch (B, n)."""
        x = np.asarray(x, dtype=float)
        dA = np.array([[m.derivative(xp) for m in self.metrics] for xp in x.reshape(-1, x.shape[-1])])
        return dA.reshape(x.shape[:-1] + dA.shape[1:])

    def check_sample(self, sample: TangentSample):
        """Reject coordinate vectors of the wrong length, batches of x and y that
        differ in shape, and fiber vectors on the slit; for a batch, the first
        point on the slit raises."""
        if sample.x.shape[-1] != self.dim:
            raise ValueError(f"point of length {sample.x.shape[-1]}, expected {self.dim}")
        if sample.y.shape[-1] != self.dim:
            raise ValueError(f"fiber vector of length {sample.y.shape[-1]}, expected {self.dim}")
        if sample.x.shape != sample.y.shape or sample.y.ndim > 2:
            raise ValueError(f"x and y must both have shape (n,) or (B, n), "
                             f"got {sample.x.shape} and {sample.y.shape}")
        y = sample.y
        for v in (y,) if y.ndim == 1 else y.reshape(-1, self.dim):
            norm = float(np.linalg.norm(v))
            if norm < EPS_SLIT:
                raise SlitViolationError(f"|y| = {norm:.3e} below slit tolerance {EPS_SLIT:.3e}")


def require_2d(dim: int):
    if dim != 2:
        raise ValueError(f"this operation is defined for 2D spaces only, got dimension {dim}")


def sector_norms(a_mu: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sector norms F_mu = sqrt(y' a_mu y) over a stack a_mu of shape (N, n, n),
    or over a batch: a_mu of shape (B, N, n, n) and y of shape (B, n).

    The norm is F = F_mu.sum(axis=-1).  The dtype follows the inputs, so the
    extended-precision oracles evaluate the same definition in longdouble.
    """
    if y.ndim == 1:
        q = np.einsum("kij,i,j->k", a_mu, y, y)
    else:
        # einsum's summation order depends on the operand shapes (one 2D
        # sector is summed row by row, a stack term by term), so each point
        # of a batch is summed alone, as a single sample is
        q = np.array([np.einsum("kij,i,j->k", a, v, v) for a, v in zip(a_mu, y)])
    if (q <= 0.0).any():
        rows = q.reshape(-1, q.shape[-1])
        first = rows[np.argmax((rows <= 0.0).any(axis=1))]
        raise NotPositiveDefiniteError(f"degenerate quadratic form y' a_mu y = {first.tolist()}")
    return np.sqrt(q)


@dataclass(frozen=True)
class FinslerState:
    """All pointwise data of the norm at one tangent-bundle sample.

    For a batch of samples every field gains a leading batch axis (F and
    det_g become arrays of shape (B,)).
    """

    x: np.ndarray
    y: np.ndarray
    F: float
    F_mu: np.ndarray          # (N,)
    l: np.ndarray             # (n,) covector dF/dy
    l_up: np.ndarray          # (n,) = y / F
    l_mu: np.ndarray          # (N, n) per-sector covectors
    h: np.ndarray             # (n, n) angular part, g - l (x) l
    h_mu: np.ndarray          # (N, n, n)
    g: np.ndarray             # (n, n) fundamental tensor
    det_g: float
    a_mu: np.ndarray          # (N, n, n) sector metrics at x
    a_inv: np.ndarray
    a_det: np.ndarray

    @functools.cached_property
    def g_inv(self) -> np.ndarray:
        """Inverse fundamental tensor, computed on first access."""
        return np.linalg.inv(self.g)

    @functools.cached_property
    def C(self) -> np.ndarray:
        """(n, n, n) Cartan tensor, computed on first access.

        Closed form: 2C = sum_mu sym3(l, h_mu)/F_mu - sum_mu (F/F_mu^2) sym3(l_mu, h_mu).
        """
        n = self.l.shape[-1]
        C = np.zeros(self.l.shape + (n, n))
        F = np.asarray(self.F)[..., None, None, None]
        for k in range(self.F_mu.shape[-1]):
            F_k = self.F_mu[..., k, None, None, None]
            C += _sym3(self.l, self.h_mu[..., k, :, :]) / F_k
            C -= (F / F_k ** 2) * _sym3(self.l_mu[..., k, :], self.h_mu[..., k, :, :])
        C *= 0.5
        return C


def _sym3(v: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Fully symmetric combination v_i H_jk + v_j H_ik + v_k H_ij, over leading batch axes."""
    return (
        v[..., :, None, None] * H[..., None, :, :]
        + v[..., None, :, None] * H[..., :, None, :]
        + v[..., None, None, :] * H[..., :, :, None]
    )


def finsler_state(space: MultiMetricSpace, sample: TangentSample) -> FinslerState:
    """Evaluate the norm and fundamental tensor at a sample, or at a batch of
    samples with x and y of shape (B, n); C and g_inv follow on access.

    A batch raises the error of its first failing sample for each check in
    turn: slit, SPD, degenerate sector, convexity.
    """
    space.check_sample(sample)
    x, y = sample.x, sample.y
    a_mu, a_inv, a_det = space.metric_values(x)

    F_mu = sector_norms(a_mu, y)
    F_col = F_mu.sum(axis=-1, keepdims=True)
    F = F_col[..., 0]
    l_mu = np.einsum("...kij,...j->...ki", a_mu, y) / F_mu[..., None]
    l = l_mu.sum(axis=-2)
    h_mu = a_mu - l_mu[..., :, None] * l_mu[..., None, :]

    ll = l[..., :, None] * l[..., None, :]
    g = ll + np.einsum("...k,...kij->...ij", F_col / F_mu, h_mu)
    w = np.linalg.eigvalsh(g)
    if w[..., 0].min() <= 0.0:
        r = np.argmax(w.reshape(-1, w.shape[-1])[:, 0] <= 0.0)
        raise ConvexityError(
            f"fundamental tensor not positive definite at x={x.reshape(-1, x.shape[-1])[r].tolist()}, "
            f"y={y.reshape(-1, y.shape[-1])[r].tolist()} (eigenvalues {w.reshape(-1, w.shape[-1])[r].tolist()})"
        )
    det_g = np.linalg.det(g)
    h = g - ll
    l_up = y / F_col
    if F.ndim == 0:
        F, det_g = float(F), float(det_g)

    return FinslerState(
        x=x, y=y, F=F, F_mu=F_mu, l=l, l_up=l_up, l_mu=l_mu, h=h, h_mu=h_mu,
        g=g, det_g=det_g, a_mu=a_mu, a_inv=a_inv, a_det=a_det,
    )


def finsler_norm(space: MultiMetricSpace, sample: TangentSample) -> tuple[float, np.ndarray]:
    """The norm F and the per-sector values F_mu at a sample, or at a batch
    (arrays of shape (B,) and (B, N))."""
    space.check_sample(sample)
    a_mu, _, _ = space.metric_values(sample.x)
    F_mu = sector_norms(a_mu, sample.y)
    F = F_mu.sum(axis=-1)
    return (float(F) if F.ndim == 0 else F), F_mu


def fd_fundamental_tensor(space: MultiMetricSpace, x, y) -> np.ndarray:
    """Central-difference Hessian of F^2/2 in y; the independent oracle for g.

    Evaluated in extended precision so the second differences at the stated
    step are not dominated by rounding.  It shares only the sector matrices
    at x with the assembled route.  y is one fiber vector (n,) or a batch
    (B, n) at the one point x, giving (n, n) or (B, n, n); each row takes its
    own step and stencil and is the single call's bits, and a batch raises
    the error of the first stencil point that a loop of single calls would.
    """
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    n = rows.shape[-1]
    h = [HESSIAN_REL_STEP * float(np.linalg.norm(v)) for v in rows]
    h2 = np.array([np.longdouble(step) ** 2 for step in h])
    a_ld = space.metric_values(x)[0].astype(np.longdouble)

    y_ld = rows.astype(np.longdouble)
    e = np.eye(n, dtype=np.longdouble) * np.array(h, dtype=np.longdouble)[:, None, None]

    def stencil():
        """Shifted fiber vectors, (B, n) each, in the order a single call evaluates them."""
        yield y_ld
        for i in range(n):
            yield y_ld + e[:, i]
            yield y_ld - e[:, i]
            for j in range(i + 1, n):
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    yield y_ld + si * e[:, i] + sj * e[:, j]

    points = np.stack(list(stencil()), axis=1)  # (B, P, n), row-major as evaluated
    flat = points.reshape(-1, n)
    s = sector_norms(np.broadcast_to(a_ld, (len(flat),) + a_ld.shape), flat).sum(axis=-1)
    f2 = iter((s * s).reshape(points.shape[:2]).T)

    g = np.empty((len(rows), n, n))
    f0 = next(f2)
    for i in range(n):
        g[:, i, i] = (next(f2) - 2.0 * f0 + next(f2)) / h2 / 2.0
        for j in range(i + 1, n):
            mixed = (next(f2) - next(f2) - next(f2) + next(f2)) / (4.0 * h2)
            g[:, i, j] = g[:, j, i] = mixed / 2.0
    return g.reshape(y.shape + (n,))


PROPORTIONALITY_RTOL = 1e-10
PIVOT_FLOOR = 1e-12


@dataclass(frozen=True)
class RiemannianVerdict:
    """Outcome of the pointwise-proportionality test over a set of sample points."""

    riemannian: bool
    factors: np.ndarray | None          # (P, N) ratios per point and sector when riemannian
    counterexample: tuple[int, int, int, np.ndarray] | None  # (mu, i, j, point)

    def effective_metric(self, space: MultiMetricSpace, x) -> np.ndarray:
        """(sum_mu sqrt(phi_mu))^2 a_1(x) for a proportional family."""
        if not self.riemannian:
            raise ValueError("space is not Riemannian")
        a1 = space.metrics[0].value(x)
        phis = []
        for m in space.metrics:
            a = m.value(x)
            piv = np.unravel_index(np.argmax(np.abs(a1)), a1.shape)
            phis.append(a[piv] / a1[piv])
        return float(sum(np.sqrt(p) for p in phis)) ** 2 * a1


def riemannian_detect(space: MultiMetricSpace, sample_points) -> RiemannianVerdict:
    """Decide whether all sector metrics are pointwise proportional to the first."""
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    factors = np.empty((len(pts), space.n_metrics))
    for p, x in enumerate(pts):
        a1 = space.metrics[0].value(x)
        for k, m in enumerate(space.metrics):
            a = m.value(x)
            # pivot: largest-magnitude component of a_1, floor-protected
            piv = np.unravel_index(np.argmax(np.abs(a1)), a1.shape)
            if abs(a1[piv]) < PIVOT_FLOOR:
                raise NotPositiveDefiniteError(f"first metric vanishes at x={x.tolist()}")
            phi = a[piv] / a1[piv]
            factors[p, k] = phi
            scale = np.max(np.abs(a)) + np.max(np.abs(a1))
            resid = np.abs(a - phi * a1)
            if np.any(resid > PROPORTIONALITY_RTOL * scale):
                i, j = np.unravel_index(np.argmax(resid), a.shape)
                return RiemannianVerdict(False, None, (k, int(i), int(j), x))
    return RiemannianVerdict(True, factors, None)
