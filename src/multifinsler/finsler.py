"""Multimetric Finsler norm and its pointwise tensors.

The norm is the sum of Riemannian norms F_mu = sqrt(y' a_mu(x) y).  The
fundamental tensor is assembled in factorized form

    g = l (x) l + sum_mu (F / F_mu) h_mu,        h_mu = a_mu - l_mu (x) l_mu,

and the Cartan tensor from closed-form fiber derivatives of that expression.
A finite-difference Hessian of F^2/2 is kept as an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import ExprError
from .riemann import MetricField, NotPositiveDefiniteError, spd_det_2x2, spd_inverse_det

EPS_SLIT = 1e-8          # |y| below this is on the zero section
HESSIAN_REL_STEP = 1e-5  # FD Hessian oracle step, relative to |y|


class SlitViolationError(Exception):
    """Fiber vector too close to the zero section."""


class NonFiniteSampleError(Exception):
    """A sample, or a quadratic form y' a_mu y at it, is not finite."""


# Errors that belong to one sample: a batch that raises one may hold rows that
# evaluate, and each row alone raises what that row raises.  Any other
# exception belongs to the whole call.
SAMPLE_ERRORS = (SlitViolationError, NonFiniteSampleError, NotPositiveDefiniteError, ExprError,
                 np.linalg.LinAlgError)


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
        self._memos: dict[int, tuple] = {}  # see _sector_data

    def metric_values(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a_mu, inv_mu, det_mu) stacked over sectors at one point x (n,) or a batch
        (B, n), SPD-validated; for a batch every array gains a leading batch axis."""
        return self._sector_data(x, 0)

    def metric_derivatives(self, x, order: int) -> np.ndarray:
        """The exact x-derivatives of the sector metrics at one point (n,) or a batch
        (B, n): order 1 gives dA[..., mu, s, i, j] = d a^mu_ij / d x_s, order 2 gives
        d2A[..., mu, s, t, i, j] = d^2 a^mu_ij / (d x_s d x_t)."""
        return self._sector_data(x, order)[0]

    def _sector_data(self, x, order: int) -> tuple[np.ndarray, ...]:
        """The read-only order-th derivative arrays of the sector metrics at x, and for
        order 0 their inverses and determinants, by one generated call per distinct
        point and metric in the order the points first occur, on the point as Python
        floats (an overflow raises an EvalDomainError, with no numpy warning).

        Order 0 validates the distinct points at once by `spd_inverse_det`.  If an
        evaluation fails, it replays the (point, metric) pairs in C order through
        `MetricField.spd_value`, so an earlier SPD failure is raised first and each
        point keeps the error it raises alone.

        One memo per order holds the most recent x that passed: its shape and bytes,
        the bytes of its distinct points, their data, the arrays returned, and the
        distinct points with their spread.  An exact repeat of x returns the same
        arrays; an x with the same distinct points (a tile, a stencil that repeats x)
        spreads the stored data without evaluating again.  A higher order at the x
        that order 0 holds takes its distinct points without walking x again.  An x
        that fails is not stored.
        """
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        # one read each, so a concurrent caller cannot swap a memo midway
        memo, base = self._memos.get(order), self._memos.get(0)
        if memo is not None and memo[0] == key:
            return memo[3]
        if base is not None and base[0] == key:
            raw, points, spread = base[1], base[4], base[5]
        else:
            points, spread = _distinct_points(x, None if memo is None else memo[4])
            if len(points):
                self.metrics[0]._check_point(points[0])
            raw = points.tobytes()
        if memo is not None and memo[1] == raw:
            data = memo[2]
        else:
            tables = [m.evaluator(order) for m in self.metrics]
            done = []  # the flat arrays, point after point, as one list
            for xp in points.tolist():
                for table in tables:
                    try:
                        done += table(xp)
                    except ExprError:
                        if order == 0:  # raises an earlier pair's SPD failure, else this error
                            for xq in points.tolist():
                                for m in self.metrics:
                                    m.spd_value(xq)
                        raise
            data = (np.array(done).reshape((len(points), len(tables)) + (self.dim,) * (order + 2)),)
            if order == 0:
                data += spd_inverse_det(data[0], points, [m.name for m in self.metrics])
        values = tuple(map(spread, data))
        for v in values:
            v.flags.writeable = False
        # the points as a copy (raw), never as a view of the caller's x
        self._memos[order] = (key, raw, data, values, np.frombuffer(raw).reshape(points.shape), spread)
        return values

    def check_sample(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """x and y as float arrays, a sample (n,) of the slit tangent bundle or a
        batch (B, n).  Rejects coordinate vectors of the wrong length, batches of
        x and y that differ in shape, a non-finite x or y, and fiber vectors on the
        slit; for a batch, the first non-finite x, then y, then point on the slit
        raises."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point of length {x.shape[-1]}, expected {self.dim}")
        if y.shape[-1] != self.dim:
            raise ValueError(f"fiber vector of length {y.shape[-1]}, expected {self.dim}")
        if x.shape != y.shape or y.ndim > 2:
            raise ValueError(f"x and y must both have shape (n,) or (B, n), got {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            for name, v in (("x", x), ("y", y)):
                rows = v.reshape(-1, self.dim)
                finite = np.isfinite(rows).all(axis=1)
                if not finite.all():
                    raise NonFiniteSampleError(f"{name} = {rows[np.argmin(finite)].tolist()} is not finite")
        # a norm is at least its largest |y_i|, also in floating point, so a row with a
        # component at EPS_SLIT or above is off the slit; the norms run only otherwise
        if not (np.abs(y) >= EPS_SLIT).any(axis=-1).all():
            with np.errstate(over="ignore"):  # sector_norms rejects a y whose forms overflow
                norms = row_norm(y).reshape(-1)
            if (norms < EPS_SLIT).any():
                norm = float(norms[np.argmax(norms < EPS_SLIT)])
                raise SlitViolationError(f"|y| = {norm:.3e} below slit tolerance {EPS_SLIT:.3e}")
        return x, y


def row_norm(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm |v| of each row of v (..., n), each row of a batch with the
    bits it has alone.  The package's one |v|: a fiber vector y is on the slit where
    |y| < EPS_SLIT, and every finite-difference step is sized by it."""
    return np.sqrt(np.vecdot(v, v))


def step_norm(v: np.ndarray) -> np.ndarray:
    """row_norm(v) where it sizes a finite-difference step: the first row of v whose |v|
    overflows raises NonFiniteSampleError, and numpy warns of nothing."""
    with np.errstate(over="ignore"):
        norms = row_norm(v)
    finite = np.isfinite(norms)
    if not finite.all():
        rows = v.reshape(-1, v.shape[-1])
        raise NonFiniteSampleError(f"|v| of v = {rows[np.argmin(finite.reshape(-1))].tolist()} is not finite")
    return norms


def _distinct_points(x: np.ndarray, known: np.ndarray | None = None):
    """The distinct points of x (n,) or (B, n), compared bit for bit and in the
    order they first occur, and a function that spreads an array of values at
    them, one per distinct point, back over the points of x.

    If known holds one point (1, n), a tile of it is recognised by one bitwise
    comparison of the whole array, before any walk over the rows."""
    flat = x.reshape(-1, x.shape[-1])
    if (known is not None and len(known) == 1 and flat.shape[0] > 1 and known.shape[-1] == flat.shape[-1]
            and (flat.view(np.uint64) == known.view(np.uint64)).all()):
        index = np.zeros(x.shape[:-1], dtype=int)
        return known, lambda v: v[index]
    raw, width = flat.tobytes(), flat.shape[-1] * flat.itemsize
    ids: dict[bytes, int] = {}
    rows = [ids.setdefault(raw[i:i + width], len(ids)) for i in range(0, len(raw), width)]
    if len(ids) == len(rows):
        return flat, lambda v: v.reshape(x.shape[:-1] + v.shape[1:])
    index = np.array(rows).reshape(x.shape[:-1])
    return np.frombuffer(b"".join(ids), dtype=flat.dtype).reshape(-1, flat.shape[-1]), lambda v: v[index]


def rows_or_first_error(f, *arrays: np.ndarray) -> np.ndarray:
    """f(*arrays) for a batch whose arrays hold one row per sample (B, ...), where f
    gives each sample the value it gives that sample alone.

    If the batch raises a per-sample error, f takes the samples one at a time, as
    batches of one and in order, every array sliced at the same row, so the first
    failing sample raises the error it raises alone.
    """
    try:
        return f(*arrays)
    except SAMPLE_ERRORS:
        return np.concatenate([f(*(a[k:k + 1] for a in arrays)) for k in range(len(arrays[0]))])


def _power(a, p):
    """a ** p as one sample takes it on a float.  numpy's array power rounds a few
    per cent of values differently, so a batch takes it value by value.  A power
    that overflows raises NonFiniteSampleError naming the first value it overflows at."""
    try:
        if np.ndim(a) == 0:
            return float(a) ** p
        return np.array([v ** p for v in a.ravel().tolist()]).reshape(a.shape)
    except OverflowError:
        for v in np.ravel(a).tolist():
            try:
                v ** p
            except OverflowError:
                raise NonFiniteSampleError(f"power {v!r} ** {p} is not finite") from None


def _scalar(a):
    """A float for one sample, the array for a batch."""
    return float(a) if np.ndim(a) == 0 else a


def require_2d(dim: int):
    if dim != 2:
        raise ValueError(f"this operation is defined for 2D spaces only, got dimension {dim}")


def sector_norms(a_mu: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sector norms F_mu = sqrt(y' a_mu y) over a stack a_mu of shape (N, n, n),
    or over a batch: a_mu of shape (B, N, n, n) and y of shape (B, n).

    The norm is F = F_mu.sum(axis=-1).  The dtype follows the inputs, so the
    extended-precision oracles evaluate the same definition in longdouble.
    """
    if a_mu.shape[-3:] == (1, 2, 2):
        # one 2D sector: einsum sums a single sample row by row but a batch term
        # by term, so both take the single sample's order
        a, y0, y1 = a_mu[..., 0, :, :], y[..., 0], y[..., 1]
        with np.errstate(over="ignore"):  # a form that overflows is rejected below
            q = ((a[..., 0, 0] * y0 * y0 + a[..., 0, 1] * y0 * y1)
                 + (a[..., 1, 0] * y1 * y0 + a[..., 1, 1] * y1 * y1))[..., None]
    else:
        q = np.einsum("...kij,...i,...j->...k", a_mu, y, y)
    if not ((q > 0.0) & (q < np.inf)).all():
        rows = q.reshape(-1, q.shape[-1])
        if (q <= 0.0).any():
            first = rows[np.argmax((rows <= 0.0).any(axis=1))]
            raise NotPositiveDefiniteError(f"degenerate quadratic form y' a_mu y = {first.tolist()}")
        first = rows[np.argmin(np.isfinite(rows).all(axis=1))]
        raise NonFiniteSampleError(f"quadratic form y' a_mu y = {first.tolist()} is not finite")
    return np.sqrt(q)


@dataclass(frozen=True)
class FinslerState:
    """All pointwise data of the norm at one tangent-bundle sample.

    l_up, h, det_g, g_inv and C are computed on first access, so the spray
    builds only the g_inv it reads.  For a batch of samples every field gains
    a leading batch axis (F and det_g become arrays of shape (B,)).
    """

    x: np.ndarray
    y: np.ndarray
    F: float
    F_mu: np.ndarray          # (N,)
    l: np.ndarray             # (n,) covector dF/dy
    l_mu: np.ndarray          # (N, n) per-sector covectors
    h_mu: np.ndarray          # (N, n, n)
    g: np.ndarray             # (n, n) fundamental tensor
    a_mu: np.ndarray          # (N, n, n) sector metrics at x
    a_inv: np.ndarray
    a_det: np.ndarray

    @functools.cached_property
    def l_up(self) -> np.ndarray:
        """(n,) y / F, computed on first access."""
        return self.y / np.asarray(self.F)[..., None]

    @functools.cached_property
    def h(self) -> np.ndarray:
        """(n, n) angular part g - l (x) l, computed on first access."""
        return self.g - self.l[..., :, None] * self.l[..., None, :]

    @functools.cached_property
    def det_g(self):
        """det g, a float for one sample and (B,) for a batch, computed on first access."""
        return _scalar(np.linalg.det(self.g))

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


def finsler_state(space: MultiMetricSpace, x, y) -> FinslerState:
    """Evaluate the norm and fundamental tensor at a sample (x, y), or at a batch of
    samples with x and y of shape (B, n); the lazy fields follow on access.

    A batch raises the error of its first failing sample for each check in
    turn: finiteness, slit, SPD, degenerate or non-finite sector norm.  g is
    positive definite wherever every a_mu is SPD, so it is not tested again.
    """
    x, y = space.check_sample(x, y)
    a_mu, a_inv, a_det = space.metric_values(x)

    F_mu = sector_norms(a_mu, y)
    F_col = F_mu.sum(axis=-1, keepdims=True)
    F = F_col[..., 0]
    l_mu = np.einsum("...kij,...j->...ki", a_mu, y) / F_mu[..., None]
    l = l_mu.sum(axis=-2)
    h_mu = a_mu - l_mu[..., :, None] * l_mu[..., None, :]

    g = l[..., :, None] * l[..., None, :] + np.einsum("...k,...kij->...ij", F_col / F_mu, h_mu)
    return FinslerState(x=x, y=y, F=_scalar(F), F_mu=F_mu, l=l, l_mu=l_mu, h_mu=h_mu, g=g,
                        a_mu=a_mu, a_inv=a_inv, a_det=a_det)


def finsler_norm(space: MultiMetricSpace, x, y) -> tuple[float, np.ndarray]:
    """The norm F and the per-sector values F_mu at a sample (x, y), or at a batch
    (arrays of shape (B,) and (B, N))."""
    x, y = space.check_sample(x, y)
    a_mu, _, _ = space.metric_values(x)
    F_mu = sector_norms(a_mu, y)
    F = F_mu.sum(axis=-1)
    return (float(F) if F.ndim == 0 else F), F_mu


def kernel_row(space: MultiMetricSpace, x: list, y: list, order: int, row, batched) -> list:
    """A kernel on Python floats at one sample (x, y), each a list of n floats.

    In 2D, where the sample passes the tests below, row(y0, y1, sectors) gives the list
    of values, or None.  sectors holds per sector (a00, a01, a10, a11, det, f, d): the
    entries of a_mu at x, its determinant, its norm f = F_mu = sqrt(q) with q = y' a_mu y
    summed as sector_norms sums it (so f has its bits), and for order 1 the flat table d
    of the first x-derivatives, d[4 s + 2 i + j] = d a_ij / d x_s (None for order 0).  A
    sample passes if x and y are finite, some |y_i| >= EPS_SLIT, every table evaluates,
    each sector passes riemann.spd_det_2x2, and 0 < q < inf: each test at least as strict
    as one of check_sample, metric_values and sector_norms.

    Any other sample, one whose row() is None, and every sample in another dimension
    take batched(x, y), the batched route, on the sample as a batch of one (1, n), which
    raises what it raises; the values come back as floats (.tolist() of each row).
    """
    if space.dim == 2 and len(x) == 2 == len(y):
        (x0, x1), (y0, y1) = x, y
        if (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(y0) and math.isfinite(y1)
                and (abs(y0) >= EPS_SLIT or abs(y1) >= EPS_SLIT)):
            one = space.n_metrics == 1  # sector_norms' summation order; see there
            sectors = []
            for m in space.metrics:
                try:
                    a00, a01, a10, a11 = m.evaluator(0)(x)
                    d = m.evaluator(1)(x) if order else None
                except ExprError:
                    break
                det = spd_det_2x2(a00, a01, a11)
                if det is None:
                    break
                if one:
                    q = (a00 * y0 * y0 + a01 * y0 * y1) + (a10 * y1 * y0 + a11 * y1 * y1)
                else:
                    q = a00 * y0 * y0 + a01 * y0 * y1 + a10 * y1 * y0 + a11 * y1 * y1
                if not 0.0 < q < math.inf:
                    break
                sectors.append((a00, a01, a10, a11, det, math.sqrt(q), d))
            else:
                value = row(y0, y1, sectors)
                if value is not None:
                    return value
    return [v[0].tolist() for v in batched(np.array([x], dtype=float), np.array([y], dtype=float))]


def norm_row(space: MultiMetricSpace, x: list, y: list) -> list:
    """finsler_norm at one sample (x, y), two lists of n floats, as [F, F_mu] in Python
    floats: in 2D by the kernel of kernel_row, with finsler_norm's bits, and by
    finsler_norm on the sample where that declines, which raises its own error."""
    def row(_y0, _y1, sectors):
        f_mu = [s[5] for s in sectors]
        F = f_mu[0]
        for f in f_mu[1:]:  # left to right, as numpy sums the few sectors (sum may compensate)
            F += f
        return [F, f_mu]

    return kernel_row(space, x, y, 0, row, lambda a, b: finsler_norm(space, a, b))


def norm_rows(space: MultiMetricSpace, x, y) -> tuple[np.ndarray, np.ndarray]:
    """finsler_norm at the rows of a batch x, y (B, n): F (B,) and F_mu (B, N).  In 2D
    each row takes norm_row in turn, so the first failing row raises its own error; in
    any other dimension, and for arrays not of one shape (B, 2), this is finsler_norm
    on the batch."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if space.dim != 2 or x.shape != y.shape or x.shape[1:] != (2,) or not len(x):
        return finsler_norm(space, x, y)
    F, F_mu = zip(*(norm_row(space, a, b) for a, b in zip(x.tolist(), y.tolist())))
    return np.array(F), np.array(F_mu)


def fd_fundamental_tensor(space: MultiMetricSpace, x, y) -> np.ndarray:
    """Central-difference Hessian of F^2/2 in y; the independent oracle for g.

    Evaluated in extended precision so the second differences at the stated
    step are not dominated by rounding.  It shares only the sector matrices
    at x with the assembled route.  y is one fiber vector (n,) or a batch
    (B, n), at the one point x (n,) or at one point per row (B, n), giving
    (n, n) or (B, n, n); each row takes its own step and stencil, is the
    single call's bits, and the first failing row raises its own error (see
    rows_or_first_error).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    g = rows_or_first_error(functools.partial(_fd_hessian, space), *_oracle_rows(x, y))
    return g.reshape(y.shape + y.shape[-1:])


def _oracle_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples of an oracle call as rows (B, n) of x and of y: y one fiber vector
    (n,) or a batch (B, n), x one point (n,) for all of them or one point per row."""
    rows = y.reshape(-1, y.shape[-1])
    return np.broadcast_to(x, y.shape[:-1] + x.shape[-1:]).reshape(len(rows), x.shape[-1]), rows


def _fd_hessian(space: MultiMetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fd_fundamental_tensor at the rows of x and y (B, n): (B, n, n).  The samples
    first pass finsler_norm's checks, so a y whose quadratic forms overflow raises its
    NonFiniteSampleError before |y| sizes the step; a |y| that overflows raises
    step_norm's."""
    finsler_norm(space, x, y)
    n = y.shape[-1]
    # a long double squares as exactly in an array
    h = (HESSIAN_REL_STEP * step_norm(y)).astype(np.longdouble)
    h2 = np.square(h)
    a_ld = space.metric_values(x)[0].astype(np.longdouble)

    y_ld = y.astype(np.longdouble)
    e = np.eye(n, dtype=np.longdouble) * h[:, None, None]

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
    # each row's sector matrices over its stencil
    s = sector_norms(np.broadcast_to(a_ld[:, None], points.shape[:2] + a_ld.shape[1:]), points).sum(axis=-1)
    f2 = iter((s * s).T)

    g = np.empty((len(y), n, n))
    f0 = next(f2)
    for i in range(n):
        g[:, i, i] = (next(f2) - 2.0 * f0 + next(f2)) / h2 / 2.0
        for j in range(i + 1, n):
            mixed = (next(f2) - next(f2) - next(f2) + next(f2)) / (4.0 * h2)
            g[:, i, j] = g[:, j, i] = mixed / 2.0
    return g


PROPORTIONALITY_RTOL = 1e-10
PIVOT_FLOOR = 1e-12


@dataclass(frozen=True)
class RiemannianVerdict:
    """Outcome of the pointwise-proportionality test over a set of sample points."""

    riemannian: bool
    factors: np.ndarray | None          # (P, N) ratios per point and sector when riemannian
    counterexample: tuple[int, int, int, np.ndarray] | None  # (mu, i, j, point)
    misfit: float                       # largest |a_mu - phi_mu a_1| / scale over all points

    def effective_metric(self, space: MultiMetricSpace, x) -> np.ndarray:
        """(sum_mu sqrt(phi_mu))^2 a_1(x) for a proportional family."""
        if not self.riemannian:
            raise ValueError("space is not Riemannian")
        x = np.asarray(x, dtype=float)
        a = space.metric_values(x)[0]
        return sum(np.sqrt(_sector_ratios(a, x)).tolist()) ** 2 * a[0]


def _sector_ratios(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi_mu = a_mu / a_1 at the pivot, the largest-magnitude component of a_1, for the
    sector matrices a (..., N, n, n) at the points x (..., n): (..., N).  A pivot below
    PIVOT_FLOOR raises at the first point in C order."""
    a1 = a[..., 0, :, :].reshape(a.shape[:-3] + (-1,))
    piv = np.argmax(np.abs(a1), axis=-1)[..., None]
    pivot = np.take_along_axis(a1, piv, axis=-1)
    small = np.abs(pivot[..., 0]) < PIVOT_FLOOR
    if small.any():
        at = np.asarray(x)[np.unravel_index(np.argmax(small), small.shape)]
        raise NotPositiveDefiniteError(f"first metric vanishes at x={at.tolist()}")
    return np.take_along_axis(a.reshape(a.shape[:-2] + (-1,)), piv[..., None], axis=-1)[..., 0] / pivot


def riemannian_detect(space: MultiMetricSpace, sample_points) -> RiemannianVerdict:
    """Decide whether all sector metrics are pointwise proportional to the first, from
    the sector matrices that metric_values validates at the sample points.

    The relative misfit of a sector at a point is max|a_mu - phi_mu a_1| over
    max|a_mu| + max|a_1|; a family is proportional if no misfit exceeds
    PROPORTIONALITY_RTOL.  The verdict reports the largest misfit over all points,
    and the first point, sector and component that exceed the tolerance.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    a = space.metric_values(pts)[0]  # (P, N, n, n)
    factors = _sector_ratios(a, pts)
    peak = np.max(np.abs(a), axis=(-2, -1))
    scale = peak + peak[:, :1]
    resid = np.abs(a - factors[..., None, None] * a[:, :1])
    # the largest misfit, passing over a NaN as a running max() over the points would
    misfit = float(np.fmax.reduce(np.max(resid, axis=(-2, -1)) / scale, axis=None, initial=0.0))
    failing = (resid > (PROPORTIONALITY_RTOL * scale)[..., None, None]).any(axis=(-2, -1))
    counterexample = None
    if failing.any():
        p, k = np.unravel_index(np.argmax(failing), failing.shape)
        i, j = np.unravel_index(np.argmax(resid[p, k]), resid.shape[-2:])
        counterexample = (int(k), int(i), int(j), pts[p])
    riemannian = counterexample is None
    return RiemannianVerdict(riemannian, factors if riemannian else None, counterexample, misfit)
