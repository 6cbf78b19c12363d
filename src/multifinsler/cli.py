"""Command-line interface: validate, check, measure, geodesic, sample.

Reports are byte-stable for a fixed config and seed: keys are sorted and
floating-point values are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .connection import connection_state
from .dim2 import frame_from_state, invariants_JK
from .finsler import finsler_state, rows_or_first_error
from .geodesic import action_of_path, integrate_geodesic, path_to_csv, write_csv
from .measure import busemann_hausdorff, holmes_thompson, holmes_thompson_disc_oracle
from .suites import SUITES, SUITES_2D_ONLY, run_suite


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        return '"non-finite"'
    s = format(v, ".17g")
    # keep the token a valid JSON number
    return s if any(c in s for c in ".eE") else s + ".0"


def dumps_stable(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k), ensure_ascii=False)}: {dumps_stable(obj[k], indent + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{dumps_stable(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj), ensure_ascii=False)


class UsageError(Exception):
    """A command-line value the command cannot honour (exit status 2)."""


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


NEGATIVE_VALUE = re.compile(r"-\.?\d")  # "-1,2", "-.5,0", "-1e-3,4"


class ArgumentParser(argparse.ArgumentParser):
    """argparse that reads a value such as '-0.1,0.25' as a value, not as an option.

    argparse takes a token that starts with '-' for an option unless it is a
    single negative number, so '--at -0.1,0.25' would need the '--at=' form.
    Subparsers inherit the class.
    """

    def _parse_optional(self, arg_string):
        if NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def parse_point(text: str, flag: str, dimension: int) -> np.ndarray:
    """A comma-separated point with one finite number per coordinate."""
    try:
        point = np.array([float(v) for v in text.split(",")])
    except ValueError:
        point = None
    if point is None or len(point) != dimension or not np.all(np.isfinite(point)):
        raise UsageError(f"{flag} needs {dimension} comma-separated finite numbers, got '{text}'")
    return point


def emit(obj, dest) -> None:
    """Write a report as stable JSON to dest ('-' for stdout)."""
    text = dumps_stable(obj) + "\n"
    if dest in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)


def _cmd_validate(cfg, args) -> int:
    emit({"valid": True, "config": cfg.to_dict()}, args.out)
    return 0


def _cmd_check(cfg, args) -> int:
    if args.suite in SUITES_2D_ONLY and cfg.dimension != 2:
        raise UsageError(f"--suite {args.suite} needs a 2D config, got dimension {cfg.dimension}")
    report = run_suite(cfg, args.suite, tol_scale=args.tol_scale, seed=args.seed)
    emit(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_measure(cfg, args) -> int:
    if cfg.dimension != 2:
        raise UsageError(f"measure needs a 2D config, got dimension {cfg.dimension}")
    x = cfg.box_center() if args.at is None else parse_point(args.at, "--at", cfg.dimension)
    ht_closed = holmes_thompson(cfg.space, x)
    ht_disc = holmes_thompson_disc_oracle(cfg.space, x)
    bh = busemann_hausdorff(cfg.space, x)
    report = {
        "point": [float(v) for v in x],
        "holmes_thompson": {
            "value": ht_closed.value,
            "diagonal_terms": list(ht_closed.diagonal_terms),
            "cross_terms": list(ht_closed.cross_terms),
            "disc_oracle": ht_disc,
            "abs_deviation": abs(ht_closed.value - ht_disc),
            "rel_deviation": abs(ht_closed.value - ht_disc) / abs(ht_closed.value),
        },
        "busemann_hausdorff": {
            "value": bh.value,
            "method": bh.method,
            "fallback": bh.fallback,
            "parts": bh.parts,
        },
    }
    emit(report, args.out)
    return 0


def _cmd_geodesic(cfg, args) -> int:
    x0 = cfg.box_center() if args.x0 is None else parse_point(args.x0, "--x0", cfg.dimension)
    if args.y0 is None:
        y0 = np.zeros(cfg.dimension)
        y0[0] = 1.0
    else:
        y0 = parse_point(args.y0, "--y0", cfg.dimension)
    path = integrate_geodesic(cfg.space, x0, y0, args.t_end, args.step)
    if args.format == "csv":
        path_to_csv(path, args.out, cfg.coordinates)
    else:
        act = action_of_path(cfg.space, path.t, path.x, path.y)
        emit({
            "t_end": args.t_end, "step": path.step,
            "start": {"x": list(map(float, path.x[0])), "y": list(map(float, path.y[0]))},
            "end": {"x": list(map(float, path.x[-1])), "y": list(map(float, path.y[-1]))},
            "norm_initial": float(path.F[0]),
            "norm_drift": float(np.max(np.abs(path.F - path.F[0]))),
            "action": act.total,
            "action_per_sector": [float(v) for v in act.sector_totals],
        }, args.out)
    return 0


def _cmd_sample(cfg, args) -> int:
    lo = np.array([b[0] for b in cfg.sampling.box])
    hi = np.array([b[1] for b in cfg.sampling.box])
    grid = [np.linspace(lo[i], hi[i], args.grid) for i in range(cfg.dimension)]
    thetas = np.linspace(0.0, 2.0 * math.pi, args.directions, endpoint=False)
    directions = [cfg.fiber_direction(th) for th in thetas]

    is2d = cfg.dimension == 2
    header = [*cfg.coordinates, "theta", "F", "det_g"] + (["I", "J", "K"] if is2d else [])
    mesh = np.meshgrid(*grid, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    def values(x, y):
        """F, det_g and, in 2D, I, J and K at the samples x and y, one row each."""
        if not is2d:
            st = finsler_state(cfg.space, x, y)
            return np.stack([st.F, st.det_g], axis=-1)
        cs = connection_state(cfg.space, x, y)
        return np.stack([cs.state.F, cs.state.det_g, frame_from_state(cs.state).I,
                         *invariants_JK(cfg.space, cs)], axis=-1)

    # one batch; if it raises a per-sample error, the first failing row raises its own
    xs, ys = np.repeat(points, len(thetas), axis=0), np.tile(directions, (len(points), 1))
    table = rows_or_first_error(values, xs, ys)
    samples = [(x, th) for x in points for th in thetas]
    rows = [[*x, th, *v] for (x, th), v in zip(samples, table)]
    write_csv(header, rows, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args keeps no state
    between calls."""
    p = ArgumentParser(
        prog="multifinsler",
        description="Multimetric Finsler geometry: identity checks, measures, geodesics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON space configuration")
        sp.add_argument("--out", default=None, help="output path ('-' for stdout)")

    v = sub.add_parser("validate", help="validate a configuration file")
    common(v)
    v.set_defaults(func=_cmd_validate)

    c = sub.add_parser("check", help="run a verification suite")
    common(c)
    c.add_argument("--suite", default="all", choices=SUITES)
    c.add_argument("--seed", type=non_negative_int, default=None, help="override the config seed")
    c.add_argument("--tol-scale", type=positive_float, default=1.0, help="scale all tolerances")
    c.set_defaults(func=_cmd_check)

    m = sub.add_parser("measure", help="measure densities at a point")
    common(m)
    m.add_argument("--at", default=None, help="evaluation point, comma-separated")
    m.set_defaults(func=_cmd_measure)

    g = sub.add_parser("geodesic", help="integrate a geodesic")
    common(g)
    g.add_argument("--x0", default=None, help="start point, comma-separated")
    g.add_argument("--y0", default=None, help="start velocity, comma-separated")
    g.add_argument("--t-end", type=positive_float, default=1.0)
    g.add_argument("--step", type=positive_float, default=1e-3)
    g.add_argument("--format", default="csv", choices=["csv", "json"])
    g.set_defaults(func=_cmd_geodesic)

    s = sub.add_parser("sample", help="grid evaluation of norm and invariants")
    common(s)
    s.add_argument("--grid", type=positive_int, default=8, help="grid points per axis")
    s.add_argument("--directions", type=positive_int, default=16, help="fiber directions per point")
    s.set_defaults(func=_cmd_sample)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # infrastructure fault: diagnostics, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
