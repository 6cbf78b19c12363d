"""Workload inputs, entry-point items and output checks.

Each workload turns the benchmark seed into inputs for one user entry point
per committed config; the program sees only those inputs.  An item is one
entry-point call; a pass runs every item of the workload once.  Outputs are
checked against independent oracles at every seed and against the stored
reference at the default seed, with the repo's own tolerance classes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import runpy
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
CONFIGS = ("single", "bimetric", "trimetric")
DEFAULT_SEED = 0

VERIFY_SUITES = ("identities", "measures")
SAMPLE_GRID = 1
SAMPLE_DIRECTIONS = 4
FAN_RAYS = 4
FAN_T_END = 0.01
FAN_STEP = 1e-3
DRIFT_BOUND = 1e-8  # the bound of the geodesic-norm-drift check in suites
ACTION_PRINT_QUANTUM = 5e-10  # geodesic_fan.py prints the action with 9 decimals

# Tolerance class of each invariant_map column, named as in suites.TOLERANCES:
# F, det_g and I are closed forms; J takes one fiber difference, K nests them.
SAMPLE_COLUMN_CLASS = {"F": "analytic", "det_g": "analytic", "I": "analytic",
                       "J": "fd", "K": "nested-fd"}

_FUNCS = {name: getattr(math, name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh")}


def tolerances():
    from multifinsler.suites import TOLERANCES
    return TOLERANCES


def config_path(name: str) -> Path:
    return ROOT / "configs" / f"{name}.json"


def load_json(path: Path):
    return json.loads(path.read_text())


def rng_for(workload: str, config: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{config}/{seed}")


# -- independent oracle for the norm ------------------------------------------

class NormOracle:
    """F and det g from the config's component strings, evaluated as Python.

    Shares no code with the package: the component grammar (^ right-associative,
    binding above unary minus) is Python's ** grammar.
    """

    def __init__(self, cfg: dict):
        coords = cfg["coordinates"]
        self.metrics = []
        for m in cfg["metrics"]:
            rows = [[self._compile(e, coords) for e in row] for row in m["components"]]
            self.metrics.append(rows)

    @staticmethod
    def _compile(text: str, coords):
        code = compile(text.replace("^", "**"), "<component>", "eval")
        return lambda x: float(eval(code, {"__builtins__": {}}, {**_FUNCS, **dict(zip(coords, x))}))

    def sectors(self, x):
        return [[[c(x) for c in row] for row in rows] for rows in self.metrics]

    def norm(self, x, y):
        return sum(_quad(a, y) ** 0.5 for a in self.sectors(x))

    def det_g_2d(self, x, y):
        """det g = F^3 sum_mu det a_mu / F_mu^3 in two dimensions."""
        mats = self.sectors(x)
        f_mu = [_quad(a, y) ** 0.5 for a in mats]
        f = sum(f_mu)
        return f ** 3 * sum((a[0][0] * a[1][1] - a[0][1] * a[1][0]) / fm ** 3
                            for a, fm in zip(mats, f_mu))


def _quad(a, y):
    return sum(a[i][j] * y[i] * y[j] for i in range(len(y)) for j in range(len(y)))


def _close(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * (1.0 + abs(ref))


# -- items --------------------------------------------------------------------

@dataclass
class Output:
    rc: int
    text: bytes                                          # everything the call wrote
    files: dict = field(default_factory=dict)            # name -> bytes
    stdout: str = ""


@dataclass
class Item:
    """One entry-point call for one config."""

    workload: str
    config: str
    label: str
    argv: list
    run: object          # callable(argv) -> Output
    check: object        # callable(Output) -> list of failure messages
    points: list         # the item's evaluation points, for expr.eval_us


def _read_outputs(paths) -> dict:
    return {p.name: p.read_bytes() for p in paths if p.exists()}


def _call_cli(argv, out_paths):
    from multifinsler import cli
    for p in out_paths:
        p.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    files = _read_outputs(out_paths)
    return Output(rc=rc, text=b"".join(files.values()) + buf.getvalue().encode(),
                  files=files, stdout=buf.getvalue())


def _call_script(script: Path, argv, out_dir: Path):
    saved_argv, saved_path = sys.argv, list(sys.path)
    for p in out_dir.glob("*.csv"):
        p.unlink()
    buf = io.StringIO()
    rc = 0
    try:
        sys.argv = [str(script), *argv]
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved_argv
        sys.path[:] = saved_path
    files = _read_outputs(sorted(out_dir.glob("*.csv")))
    return Output(rc=rc, text=buf.getvalue().encode() + b"".join(files.values()),
                  files=files, stdout=buf.getvalue())


def _box(cfg):
    return [tuple(b) for b in cfg["sampling"]["box"]]


# verify ------------------------------------------------------------------------

def verify_seed(cfg: dict, seed: int) -> int:
    """The check seed: the config's own seed at the default benchmark seed."""
    return cfg["sampling"]["seed"] + seed


def _check_report(out: Output, ref: dict, at_default: bool) -> list:
    if out.rc != 0:
        return [f"exit code {out.rc}"]
    report = json.loads(next(iter(out.files.values())))
    fails = [f"check {c['check']} failed: {c['residual']} > {c['tolerance']}"
             for c in report["checks"] if not c["pass"]]
    if not report["passed"]:
        fails.append("report not passed")
    names = [c["check"] for c in report["checks"]]
    if names != [c["check"] for c in ref["checks"]]:
        fails.append(f"check list differs from reference: {names}")
    elif at_default:
        for c, r in zip(report["checks"], ref["checks"]):
            if abs(c["residual"] - r["residual"]) > r["tolerance"]:
                fails.append(f"check {c['check']}: residual {c['residual']} vs reference {r['residual']}")
    return fails


def verify_items(seed: int, work: Path) -> list:
    items = []
    for name in CONFIGS:
        cfg = load_json(config_path(name))
        rng = rng_for("verify", name, seed)
        lo_hi = _box(cfg)
        points = [[lo + (hi - lo) * rng.random() for lo, hi in lo_hi] for _ in range(8)]
        for suite in VERIFY_SUITES:
            out_path = work / f"verify-{name}-{suite}.json"
            argv = ["check", "--config", str(config_path(name)), "--suite", suite,
                    "--seed", str(verify_seed(cfg, seed)), "--out", str(out_path)]
            ref = REFERENCE / f"check-{name}-{suite}.json"
            items.append(Item(
                "verify", name, f"{name}/{suite}", argv,
                run=lambda a, p=out_path: _call_cli(a, [p]),
                check=lambda o, r=ref: _check_report(o, load_json(r), seed == DEFAULT_SEED),
                points=points,
            ))
    return items


# invariant_map -------------------------------------------------------------

def sub_box_config(name: str, seed: int) -> dict:
    """The committed config with its box replaced by a seeded sub-box."""
    cfg = load_json(config_path(name))
    rng = rng_for("invariant_map", name, seed)
    box = []
    for lo, hi in _box(cfg):
        width = (hi - lo) * (0.25 + 0.5 * rng.random())
        start = lo + (hi - lo - width) * rng.random()
        box.append([start, start + width])
    cfg["sampling"]["box"] = box
    return cfg


def _sample_rows(cfg: dict):
    """The (x, theta) pairs `sample` evaluates, in its row order."""
    axes = [[lo + (hi - lo) * k / max(SAMPLE_GRID - 1, 1) for k in range(SAMPLE_GRID)]
            for lo, hi in _box(cfg)]
    out = []
    for x1 in axes[0]:
        for x2 in axes[1]:
            for d in range(SAMPLE_DIRECTIONS):
                out.append(([x1, x2], 2.0 * math.pi * d / SAMPLE_DIRECTIONS))
    return out


def _parse_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def _check_sample(out: Output, cfg: dict, ref, tol: dict) -> list:
    if out.rc != 0:
        return [f"exit code {out.rc}"]
    header, rows = _parse_csv(next(iter(out.files.values())))
    expect = [*cfg["coordinates"], "theta", "F", "det_g", "I", "J", "K"]
    if header != expect:
        return [f"header {header} != {expect}"]
    grid = _sample_rows(cfg)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    oracle = NormOracle(cfg)
    col = {h: i for i, h in enumerate(header)}
    fails = []
    for k, (row, (x, th)) in enumerate(zip(rows, grid)):
        if not all(math.isfinite(v) for v in row):
            fails.append(f"row {k}: non-finite value")
            continue
        if max(abs(row[0] - x[0]), abs(row[1] - x[1]), abs(row[2] - th)) > 1e-12:
            fails.append(f"row {k}: sample point {row[:3]} != {[*x, th]}")
        x, y = row[:2], [math.cos(row[2]), math.sin(row[2])]
        f_ref, det_ref = oracle.norm(x, y), oracle.det_g_2d(x, y)
        if abs(row[col["F"]] - f_ref) > tol["analytic"] * f_ref:
            fails.append(f"row {k}: F {row[col['F']]} vs oracle {f_ref}")
        if abs(row[col["det_g"]] - det_ref) > tol["analytic"] * det_ref:
            fails.append(f"row {k}: det_g {row[col['det_g']]} vs determinant identity {det_ref}")
        if ref is not None:
            for name, cls in SAMPLE_COLUMN_CLASS.items():
                if not _close(row[col[name]], ref[k][col[name]], tol[cls]):
                    fails.append(f"row {k}: {name} {row[col[name]]} vs reference {ref[k][col[name]]}")
    return fails


def invariant_map_items(seed: int, work: Path) -> list:
    tol = tolerances()
    items = []
    for name in CONFIGS:
        cfg = sub_box_config(name, seed)
        cfg_path = work / f"invariant_map-{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        out_path = work / f"invariant_map-{name}.csv"
        ref = REFERENCE / f"sample-{name}.csv" if seed == DEFAULT_SEED else None
        argv = ["sample", "--config", str(cfg_path), "--grid", str(SAMPLE_GRID),
                "--directions", str(SAMPLE_DIRECTIONS), "--out", str(out_path)]
        items.append(Item(
            "invariant_map", name, name, argv,
            run=lambda a, p=out_path: _call_cli(a, [p]),
            check=lambda o, c=cfg, r=ref: _check_sample(
                o, c, r and _parse_csv(r.read_bytes())[1], tol),
            points=[x for x, _ in _sample_rows(cfg)[::SAMPLE_DIRECTIONS]],
        ))
    return items


# geodesic_fan ----------------------------------------------------------------

def fan_x0(cfg: dict, name: str, seed: int) -> list:
    """A seeded start point in the inner 80% of the config's box."""
    rng = rng_for("geodesic_fan", name, seed)
    return [lo + (hi - lo) * (0.1 + 0.8 * rng.random()) for lo, hi in _box(cfg)]


def fan_summary(out: Output) -> list:
    """Per ray: action as printed, drift from the CSV, final x, y, F."""
    actions = [float(line.split("action=")[1].split()[0])
               for line in out.stdout.splitlines() if line.startswith("ray ")]
    rays = []
    for (name, data), act in zip(sorted(out.files.items()), actions):
        _, rows = _parse_csv(data)
        f = [r[-1] for r in rows]
        rays.append({"ray": name, "steps": len(rows) - 1, "action": act,
                     "drift": max(abs(v - f[0]) for v in f) / f[0],
                     "F0": f[0], "final": rows[-1][1:], "finite": all(
                         math.isfinite(v) for r in rows for v in r)})
    return rays


def _check_fan(out: Output, cfg: dict, x0, ref, tol: dict) -> list:
    if out.rc != 0:
        return [f"exit code {out.rc}"]
    rays = fan_summary(out)
    if len(rays) != FAN_RAYS:
        return [f"{len(rays)} rays completed, expected {FAN_RAYS}"]
    oracle = NormOracle(cfg)
    steps = round(FAN_T_END / FAN_STEP)
    fails = []
    for k, ray in enumerate(rays):
        th = 2.0 * math.pi * k / FAN_RAYS
        f0 = oracle.norm(x0, [math.cos(th), math.sin(th)])
        if not ray["finite"] or ray["steps"] != steps:
            fails.append(f"ray {k}: {ray['steps']} steps, finite={ray['finite']}")
        if not ray["drift"] < DRIFT_BOUND:
            fails.append(f"ray {k}: norm drift {ray['drift']:.3e} >= {DRIFT_BOUND}")
        if abs(ray["F0"] - f0) > tol["analytic"] * f0:
            fails.append(f"ray {k}: F0 {ray['F0']} vs oracle {f0}")
        # F is conserved, so the action is F0 * t_end up to the drift
        if abs(ray["action"] - f0 * FAN_T_END) > DRIFT_BOUND * f0 * FAN_T_END + ACTION_PRINT_QUANTUM:
            fails.append(f"ray {k}: action {ray['action']} vs F0 * t_end {f0 * FAN_T_END}")
        if ref is not None:
            r = ref[k]
            if abs(ray["action"] - r["action"]) > tol["analytic"] * r["action"] + ACTION_PRINT_QUANTUM:
                fails.append(f"ray {k}: action {ray['action']} vs reference {r['action']}")
            if not all(_close(a, b, tol["analytic"]) for a, b in zip(ray["final"], r["final"])):
                fails.append(f"ray {k}: end state {ray['final']} vs reference {r['final']}")
    return fails


def geodesic_fan_items(seed: int, work: Path) -> list:
    tol = tolerances()
    script = ROOT / "scripts" / "geodesic_fan.py"
    items = []
    for name in CONFIGS:
        cfg = load_json(config_path(name))
        x0 = fan_x0(cfg, name, seed)
        out_dir = work / f"fan-{name}"
        out_dir.mkdir(parents=True, exist_ok=True)
        ref = REFERENCE / f"fan-{name}.json" if seed == DEFAULT_SEED else None
        argv = [str(config_path(name)), "--rays", str(FAN_RAYS), "--t-end", repr(FAN_T_END),
                "--step", repr(FAN_STEP), "--x0=" + ",".join(repr(v) for v in x0),
                "--out-dir", str(out_dir)]
        items.append(Item(
            "geodesic_fan", name, name, argv,
            run=lambda a, d=out_dir: _call_script(script, a, d),
            check=lambda o, c=cfg, x=x0, r=ref: _check_fan(o, c, x, r and load_json(r), tol),
            points=[x0],
        ))
    return items


WORKLOADS = {
    "verify": verify_items,
    "invariant_map": invariant_map_items,
    "geodesic_fan": geodesic_fan_items,
}
