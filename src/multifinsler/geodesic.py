"""Geodesics of the multimetric norm and the point-particle action.

The trajectory solves x'' + G(x, x') = 0 with the factorized spray, by
classical fixed-step fourth-order Runge-Kutta (no adaptivity, so runs are
reproducible bit for bit).  The norm F(x(t), x'(t)) is a first integral and
its drift is the integrator's self-check.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sciint

from .connection import connection_state
from .finsler import EPS_SLIT, MultiMetricSpace, TangentSample, finsler_norm


@dataclass(frozen=True)
class GeodesicPath:
    """Samples of a spray trajectory with the conserved-norm trace."""

    t: np.ndarray       # (K,)
    x: np.ndarray       # (K, n)
    y: np.ndarray       # (K, n) velocities
    F: np.ndarray       # (K,)
    step: float


def integrate_geodesic(space: MultiMetricSpace, x0, y0, t_end: float, step: float) -> GeodesicPath:
    """Integrate the spray equation from (x0, y0) for parameter time t_end."""
    if step <= 0.0 or t_end <= 0.0:
        raise ValueError("step and t_end must be positive")
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    space.check_sample(TangentSample(x, y))

    n_steps = max(1, int(round(t_end / step)))
    h = t_end / n_steps

    ts = np.empty(n_steps + 1)
    xs = np.empty((n_steps + 1, space.dim))
    ys = np.empty((n_steps + 1, space.dim))
    fs = np.empty(n_steps + 1)

    def record(k, t, xv, yv):
        ts[k] = t
        xs[k] = xv
        ys[k] = yv
        fs[k], _ = finsler_norm(space, TangentSample(xv, yv))

    record(0, 0.0, x, y)
    for k in range(n_steps):
        k1x, k1y = y, -connection_state(space, TangentSample(x, y)).G
        k2x = y + 0.5 * h * k1y
        k2y = -connection_state(space, TangentSample(x + 0.5 * h * k1x, k2x)).G
        k3x = y + 0.5 * h * k2y
        k3y = -connection_state(space, TangentSample(x + 0.5 * h * k2x, k3x)).G
        k4x = y + h * k3y
        k4y = -connection_state(space, TangentSample(x + h * k3x, k4x)).G
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        space.check_sample(TangentSample(x, y))
        record(k + 1, (k + 1) * h, x, y)
    return GeodesicPath(t=ts, x=xs, y=ys, F=fs, step=h)


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
    else:
        v = np.gradient(xs, t, axis=0, edge_order=2 if len(t) > 2 else 1)

    f_mu = np.empty((len(t), space.n_metrics))
    for k in range(len(t)):
        if float(np.linalg.norm(v[k])) < EPS_SLIT:
            raise ValueError(f"zero-velocity segment at t={t[k]}")
        _, per = finsler_norm(space, TangentSample(xs[k], v[k]))
        f_mu[k] = per
    sectors = np.array([
        float(_sciint.simpson(f_mu[:, m], x=t)) for m in range(space.n_metrics)
    ])
    total = float(_sciint.simpson(f_mu.sum(axis=1), x=t))
    return ActionResult(total=total, sector_totals=sectors)


def write_csv(header, rows, dest) -> None:
    """Write a numeric table as CSV, values at 17 significant digits; dest '-' or None is stdout."""
    out = sys.stdout if dest in (None, "-") else open(dest, "w", newline="")
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
