"""Geodesics of the multimetric norm and the point-particle action.

The trajectory solves x'' + G(x, x') = 0 with the factorized spray, by
classical fixed-step fourth-order Runge-Kutta (no adaptivity, so runs are
reproducible bit for bit).  The norm F(x(t), x'(t)) is a first integral and
its drift is the integrator's self-check.  A fan of rays advances in
lockstep as one (B, n) state.

Each RK4 stage takes G from connection.spray_rows and each step's end its
norm from finsler.norm_rows.  In 2D both compute row by row on Python floats
(finsler.kernel_rows); a row that fails the kernel's tests (a non-finite or
slit sample, a table that does not evaluate, a sector that is not clearly SPD,
a degenerate or overflowing form, a G that is not finite) takes
connection_state or finsler_norm on that row, which raises its own error.  In
any other dimension the stages are the batched numpy calls.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .connection import spray_rows
from .finsler import (
    EPS_SLIT,
    SAMPLE_ERRORS,
    MultiMetricSpace,
    norm_rows,
    row_norm,
    rows_or_first_error,
)


@dataclass(frozen=True)
class GeodesicPath:
    """Samples of a spray trajectory with the conserved-norm trace.

    A batch of rays shares t; x, y and F then carry a leading ray axis, and
    errors holds per ray None or the exception that retired it.  A retired
    ray's samples from the failing step on are NaN.
    """

    t: np.ndarray       # (K,)
    x: np.ndarray       # (K, n), or (B, K, n) for a batch
    y: np.ndarray       # velocities, shaped as x
    F: np.ndarray       # (K,), or (B, K) for a batch
    step: float
    errors: tuple = ()  # (B,) for a batch

    def ray(self, k: int) -> "GeodesicPath":
        """Ray k of a batch as a path of its own; raises the exception that retired it."""
        if not self.errors:
            raise ValueError("ray() needs a batch of rays; this path has no ray axis")
        if self.errors[k] is not None:
            raise self.errors[k]
        return GeodesicPath(t=self.t, x=self.x[k], y=self.y[k], F=self.F[k], step=self.step)


def _by_row(fn, x: np.ndarray, y: np.ndarray):
    """fn(x, y), a tuple of per-row arrays, on a batch of rows, and the rows that fail.

    fn runs once on the whole batch.  If that raises a per-sample error, it
    runs on each row as a batch of one, which raises exactly what that row
    raises alone.  Returns the tuple of the stacked arrays of the rows that
    evaluate and a dict from the index of each failing row to its exception.
    """
    try:
        return fn(x, y), {}
    except SAMPLE_ERRORS:
        pass
    values, failed = [], {}
    for i in range(len(x)):
        try:
            values.append(fn(x[i:i + 1], y[i:i + 1]))
        except SAMPLE_ERRORS as exc:
            failed[i] = exc
    return tuple(np.concatenate(rows) for rows in zip(*values)), failed


def integrate_geodesic(space: MultiMetricSpace, x0, y0, t_end: float, step: float) -> GeodesicPath:
    """Integrate the spray equation from (x0, y0) for parameter time t_end.

    y0 of shape (B, n) shoots B rays from x0 of shape (n,) or (B, n) in one
    RK4 loop and returns one GeodesicPath with a ray axis.  A ray that raises
    a per-sample error (SAMPLE_ERRORS: slit, non-finite value, SPD loss,
    expression domain, linear algebra) anywhere in a step is retired with it
    at that step; the others go on, bit for bit as when shot alone.  Any
    other exception ends the call for all rays.  With y0 of shape (n,) the
    path is returned, or the error raised.
    """
    for name, value in (("t_end", t_end), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(t_end / step):
        raise ValueError(f"t_end / step must be finite, got t_end={t_end} and step={step}")
    x = np.asarray(x0, dtype=float)
    y = np.asarray(y0, dtype=float)
    if y.ndim not in (1, 2) or x.ndim not in (1, y.ndim) or x.shape[:-1] not in ((), y.shape[:-1]):
        raise ValueError(f"y0 must have shape (n,) or (B, n) and x0 shape (n,) or that of y0, "
                         f"got {y.shape} and {x.shape}")
    batched = y.ndim == 2
    y = np.atleast_2d(y).copy()
    x = np.broadcast_to(x, (len(y), x.shape[-1])).copy()

    n_steps = max(1, int(round(t_end / step)))
    h = t_end / n_steps

    def start(a, b):
        """The sample (a, b) with its norm, which rejects a point on the slit."""
        return a, b, norm_rows(space, a, b)[0]

    def rk4(a, b):
        """One RK4 step from the rows (a, b): the sample it ends at, with its norm."""
        k1x, k1y = b, -spray_rows(space, a, b)
        k2x = b + 0.5 * h * k1y
        k2y = -spray_rows(space, a + 0.5 * h * k1x, k2x)
        k3x = b + 0.5 * h * k2y
        k3y = -spray_rows(space, a + 0.5 * h * k2x, k3x)
        k4x = b + h * k3y
        k4y = -spray_rows(space, a + h * k3x, k4x)
        return start(a + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                     b + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y))

    rays = len(y)
    xs = np.full((rays, n_steps + 1, space.dim), np.nan)
    ys = np.full_like(xs, np.nan)
    fs = np.full((rays, n_steps + 1), np.nan)
    errors = [None] * rays
    live = np.arange(rays)  # the ray of each row of x and y
    for k in range(n_steps + 1):
        values, failed = _by_row(rk4 if k else start, x, y)
        for i, exc in failed.items():
            errors[live[i]] = exc
        if failed:
            live = np.delete(live, list(failed))
        if not len(live):
            break
        x, y, F = values
        xs[live, k], ys[live, k], fs[live, k] = x, y, F

    path = GeodesicPath(t=h * np.arange(n_steps + 1), x=xs, y=ys, F=fs, step=h, errors=tuple(errors))
    return path if batched else path.ray(0)


@dataclass(frozen=True)
class ActionResult:
    """Length-functional value and its per-sector decomposition."""

    total: float
    sector_totals: np.ndarray

    @property
    def decomposition_residual(self) -> float:
        return abs(self.total - float(self.sector_totals.sum()))


def action_of_path(space: MultiMetricSpace, t, xs, ys=None) -> ActionResult:
    """Integral of F(x, x') along a sampled curve, with the per-sector split.

    Velocities are taken from ``ys`` when given, otherwise estimated by
    second-order finite differences of the position samples (first order
    when there are only two).
    """
    t = np.asarray(t, dtype=float)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if len(t) != len(xs) or len(t) < 2:
        raise ValueError("need matching t and x arrays with at least two samples")
    if ys is not None:
        v = np.atleast_2d(np.asarray(ys, dtype=float))
        if v.shape != xs.shape:
            raise ValueError(f"ys has shape {v.shape}, expected the shape {xs.shape} of xs")
    else:
        v = np.gradient(xs, t, axis=0, edge_order=2 if len(t) > 2 else 1)

    # every sample before the first zero velocity, |v| < EPS_SLIT as on the slit of
    # check_sample, is evaluated, in one call, so a failing earlier sample raises first,
    # as in sample order
    with np.errstate(over="ignore"):  # sector_norms rejects a v whose forms overflow
        slow = row_norm(v) < EPS_SLIT
    stop = int(np.argmax(slow)) if slow.any() else len(t)
    if stop:
        f_mu = rows_or_first_error(lambda x, y: norm_rows(space, x, y)[1], xs[:stop], v[:stop])
    if stop < len(t):
        raise ValueError(f"zero-velocity segment at t={t[stop]}")
    # one rule over the rows [f_1, ..., f_N, sum_mu f_mu], each contiguous, so that each
    # row's value is the bits of a call on that row alone
    rows = np.empty((space.n_metrics + 1, len(t)))
    rows[:-1], rows[-1] = f_mu.T, f_mu.sum(axis=1)
    values = simpson_rows(rows, t)
    return ActionResult(total=float(values[-1]), sector_totals=values[:-1])


def _divide(a, b):
    """a / b where b is not zero and 0 where it is, as scipy's simpson divides spacings."""
    return np.divide(a, b, out=np.zeros(np.broadcast(a, b).shape), where=b != 0)


def simpson_rows(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """scipy.integrate.simpson(y, x=t, axis=-1) bit for bit (scipy >= 1.11), for rows y
    (k, K) at samples t (K,), K >= 2; written out so that a geodesic command does not
    load scipy.integrate, about 50 MB resident.

    Simpson's rule for uneven spacing over the pairs of intervals from the first; for
    an even K, the last interval takes Cartwright's correction (a trapezoid for K = 2).
    A zero spacing divides to 0, as in scipy.
    """
    h = np.diff(t)
    if len(t) == 2:
        return 0.0 + 0.5 * h[-1:] * (y[..., -1] + y[..., -2])
    stop = len(t) - 3 + len(t) % 2  # the pairs of intervals cover the samples up to stop + 1
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, _divide(h0, h1)
    result = np.sum(hsum / 6.0 * (y[..., 0:stop:2] * (2.0 - _divide(1.0, ratio))
                                  + y[..., 1:stop + 1:2] * (hsum * _divide(hsum, hprod))
                                  + y[..., 2:stop + 2:2] * (2.0 - ratio)), axis=-1)
    if len(t) % 2:
        return result
    h0, h1 = h[-2:-1], h[-1:]
    alpha = _divide(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _divide(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
    eta = _divide(1 * h1 ** 3, 6 * h0 * (h0 + h1))
    return result + (alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3])


def write_csv(header, rows, dest) -> None:
    """Write a numeric table as UTF-8 CSV, values at 17 significant digits; dest '-' or None
    is stdout, in its own encoding."""
    out = sys.stdout if dest in (None, "-") else open(dest, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


def path_to_csv(path: GeodesicPath, dest, coords) -> None:
    """Write a trajectory as CSV with columns t, x1..xn, y1..yn, F."""
    n = len(coords)
    header = ["t", *[f"x{i+1}" for i in range(n)], *[f"y{i+1}" for i in range(n)], "F"]
    rows = ([path.t[k], *path.x[k], *path.y[k], path.F[k]] for k in range(len(path.t)))
    write_csv(header, rows, dest)
