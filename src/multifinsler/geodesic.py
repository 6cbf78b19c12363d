"""Geodesics of the multimetric norm and the point-particle action.

The trajectory solves x'' + G(x, x') = 0 with the factorized spray, by
classical fixed-step fourth-order Runge-Kutta (no adaptivity, so runs are
reproducible bit for bit).  The norm F(x(t), x'(t)) is a first integral and
its drift is the integrator's self-check.  Each ray of a fan is a loop of its
own, with x and y held as lists of Python floats.

Each RK4 stage takes G from connection.spray_row and each step's end its
norm from finsler.norm_row.  In 2D both run a kernel on Python floats
(finsler.kernel_row); a sample that fails the kernel's tests (a non-finite or
slit sample, a table that does not evaluate, a sector that is not clearly SPD,
a degenerate or overflowing form, a G that is not finite) takes
connection_state or finsler_norm as a batch of one, which raises its own
error.  In any other dimension every sample takes that batched route.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .connection import spray_row
from .finsler import (
    EPS_SLIT,
    SAMPLE_ERRORS,
    MultiMetricSpace,
    norm_row,
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


def _rk4_step(space: MultiMetricSpace, a: list, b: list, h: float) -> tuple[list, list]:
    """One RK4 step of length h from the sample (a, b), lists of n floats: element by
    element, the operations of the array form k1 = (b, -G1), k2 = (b + (h/2) k1y, -G2)
    with G2 at (a + (h/2) k1x, k2x), ..., (a, b) + (h/6) (k1 + 2 k2 + 2 k3 + k4), so
    every element rounds as in numpy; b + c (-G) is written b - c G, which IEEE 754
    rounds alike."""
    half = 0.5 * h
    g1 = spray_row(space, a, b)
    k2x = [v - half * g for v, g in zip(b, g1)]
    g2 = spray_row(space, [u + half * v for u, v in zip(a, b)], k2x)
    k3x = [v - half * g for v, g in zip(b, g2)]
    g3 = spray_row(space, [u + half * v for u, v in zip(a, k2x)], k3x)
    k4x = [v - h * g for v, g in zip(b, g3)]
    g4 = spray_row(space, [u + h * v for u, v in zip(a, k3x)], k4x)
    sixth = h / 6.0
    return ([u + sixth * (p + 2.0 * q + 2.0 * r + s) for u, p, q, r, s in zip(a, b, k2x, k3x, k4x)],
            [u + sixth * (-p + 2.0 * -q + 2.0 * -r + -s) for u, p, q, r, s in zip(b, g1, g2, g3, g4)])


def integrate_geodesic(space: MultiMetricSpace, x0, y0, t_end: float, step: float) -> GeodesicPath:
    """Integrate the spray equation from (x0, y0) for parameter time t_end.

    y0 of shape (B, n) shoots B rays from x0 of shape (n,) or (B, n), one
    after the other, and returns one GeodesicPath with a ray axis.  A ray that
    raises a per-sample error (SAMPLE_ERRORS: slit, non-finite value, SPD
    loss, expression domain, linear algebra) anywhere in a step is retired
    with it at that step; the others go on, each as when shot alone.  Any
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
    y = np.atleast_2d(y)
    x = np.broadcast_to(x, (len(y), x.shape[-1]))

    n_steps = max(1, int(round(t_end / step)))
    h = t_end / n_steps
    xs = np.full((len(y), n_steps + 1, space.dim), np.nan)
    ys = np.full_like(xs, np.nan)
    fs = np.full((len(y), n_steps + 1), np.nan)
    errors = [None] * len(y)
    for r, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        try:
            for k in range(n_steps + 1):
                if k:
                    a, b = _rk4_step(space, a, b, h)
                fs[r, k] = norm_row(space, a, b)[0]
                xs[r, k], ys[r, k] = a, b
        except SAMPLE_ERRORS as exc:  # retired at step k: its samples from k on stay NaN
            errors[r] = exc

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


def write_text(text: str, dest) -> None:
    """Write text as UTF-8 to the file dest, or to stdout where dest is '-' or None,
    through its byte stream, so stdout takes the file's bytes whatever the locale's
    encoding; a stdout with no byte stream (an io.StringIO) takes the text."""
    if dest not in (None, "-"):
        with open(dest, "w", newline="", encoding="utf-8") as out:
            out.write(text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def write_csv(header, rows, dest) -> None:
    """Write a numeric table as UTF-8 CSV, values at 17 significant digits, to dest (see
    write_text)."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    write_text(out.getvalue(), dest)


def path_to_csv(path: GeodesicPath, dest, coords) -> None:
    """Write a trajectory as CSV with columns t, x1..xn, y1..yn, F."""
    n = len(coords)
    header = ["t", *[f"x{i+1}" for i in range(n)], *[f"y{i+1}" for i in range(n)], "F"]
    rows = ([path.t[k], *path.x[k], *path.y[k], path.F[k]] for k in range(len(path.t)))
    write_csv(header, rows, dest)
