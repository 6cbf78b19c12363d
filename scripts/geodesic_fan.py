#!/usr/bin/env python3
"""Integrate a fan of geodesics from one point and report norm conservation.

Shoots trajectories in evenly spaced directions, all rays by one
integrate_geodesic call, exports each as CSV, and prints the worst norm drift plus the
action of every leg.  If a ray fails with a per-sample error (slit, non-finite
value, loss of positive definiteness, expression domain, linear algebra), the
rays before it are still written and printed, and its error is raised; any
other exception stops the integration of all rays before a file is written.

    python scripts/geodesic_fan.py configs/bimetric.json --rays 8 --t-end 1.0 --out-dir fan/
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multifinsler.cli import ArgumentParser, UsageError, parse_point, positive_float, positive_int
from multifinsler.config import ConfigError, load_config
from multifinsler.geodesic import action_of_path, integrate_geodesic, path_to_csv


def main():
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("config")
    ap.add_argument("--rays", type=positive_int, default=8)
    ap.add_argument("--t-end", type=positive_float, default=1.0)
    ap.add_argument("--step", type=positive_float, default=1e-3)
    ap.add_argument("--x0", default=None, help="start point, comma-separated")
    ap.add_argument("--out-dir", default="fan")
    args = ap.parse_args()

    try:
        cfg = load_config(args.config)
        thetas = [2.0 * math.pi * k / args.rays for k in range(args.rays)]
        directions = [cfg.fiber_direction(th) for th in thetas]
        x0 = cfg.box_center() if args.x0 is None else parse_point(args.x0, "--x0", cfg.dimension)
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):  # the path, or a directory on it, is a file
            raise UsageError(f"--out-dir {args.out_dir} is not a directory") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(2)
    space = cfg.space

    fan = integrate_geodesic(space, x0, np.array(directions), args.t_end, args.step)
    worst_drift = 0.0
    for k, th in enumerate(thetas):
        path = fan.ray(k)  # raises the error that stopped ray k, after rays 0..k-1 are written
        drift = float(np.max(np.abs(path.F - path.F[0])) / path.F[0])
        worst_drift = max(worst_drift, drift)
        act = action_of_path(space, path.t, path.x, path.y)
        dest = out_dir / f"ray_{k:02d}.csv"
        path_to_csv(path, dest, cfg.coordinates)
        print(f"ray {k:2d}  theta={th:6.3f}  action={act.total:.9f}  drift={drift:.2e}  -> {dest}")
    print(f"worst relative norm drift: {worst_drift:.3e}")


if __name__ == "__main__":
    main()
