#!/usr/bin/env python3
"""Integrate a fan of geodesics from one point and report norm conservation.

Shoots trajectories in evenly spaced directions, exports each as CSV, and
prints the worst norm drift plus the action of every leg.

    python scripts/geodesic_fan.py configs/bimetric.json --rays 8 --t-end 1.0 --out-dir fan/
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multifinsler.cli import UsageError, parse_point, positive_float, positive_int
from multifinsler.config import ConfigError, load_config
from multifinsler.geodesic import action_of_path, integrate_geodesic, path_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.exit(2)
    space = cfg.build_space()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    worst_drift = 0.0
    for k, (th, y0) in enumerate(zip(thetas, directions)):
        path = integrate_geodesic(space, x0, y0, args.t_end, args.step)
        drift = float(np.max(np.abs(path.F - path.F[0])) / path.F[0])
        worst_drift = max(worst_drift, drift)
        act = action_of_path(space, path.t, path.x, path.y)
        dest = out_dir / f"ray_{k:02d}.csv"
        path_to_csv(path, dest, cfg.coordinates)
        print(f"ray {k:2d}  theta={th:6.3f}  action={act.total:.9f}  drift={drift:.2e}  -> {dest}")
    print(f"worst relative norm drift: {worst_drift:.3e}")


if __name__ == "__main__":
    main()
