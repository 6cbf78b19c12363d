#!/usr/bin/env python3
"""Benchmark of the multifinsler entry points: `check`, `sample` and geodesic_fan.py.

    python3 perfbench/run.py --workload verify --seed 3 --seconds 20 --trace 0

One process, one thread of work, a closed loop: passes over the workload's
items run back to back, stopping at the pass boundary closest to --seconds
(at least one pass).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
untraced and then traced passes over the same inputs and reports the
per-layer metrics.  Every output is checked; the last line of stdout is
the result object, and a fuller record goes to the line before it and to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

import os

# BLAS/OpenMP threads are pinned before numpy is imported, here and in children.
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REF_NOMINAL_S, SAMPLE_PERIOD_S, Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 7
SETUP_TIMEOUT_S = 60
EXPR_EVAL_REPS = 200


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """Highest order statistic with at least ten samples beyond it, and its percentile.

    With ten or fewer samples no such statistic exists and the maximum is given.
    """
    s = sorted(values)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def stat(values, unit, **extra):
    q1, q3 = quartiles(values)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), **extra}


# -- set-up -------------------------------------------------------------------

def measure_setup(work: Path):
    """Wall and scaled seconds of SETUP_REPS cold set-ups.

    Each probe times the host-speed kernel itself right after its set-up,
    on the CPU it ran on.
    """
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(work)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              env={**os.environ, **THREAD_PINS})
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall, kernel = map(float, proc.stdout.split()[-2:])
        walls.append(wall)
        scaled.append(wall * REF_NOMINAL_S / kernel)
    return walls, scaled


# -- passes -------------------------------------------------------------------

class Runner:
    """Runs passes over the items and checks every output."""

    def __init__(self, items, sample_period=None):
        self.items = items
        self.verdicts = {}  # item index -> {output digest: failure messages}
        self.attempted = 0
        self.clock = Clock(sample_period)
        self.failures = []

    def run_pass(self, tracer=None, pass_no=0):
        """Run every item once: (wall seconds, scaled seconds, outputs)."""
        outputs, wall, scaled = [], 0.0, 0.0
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = pass_no * len(self.items) + i
            out, dt, sc = self.clock.time(self._run_item, item, tracer)
            outputs.append(out)
            wall += dt
            scaled += sc
        return wall, scaled, outputs

    @staticmethod
    def _run_item(item, tracer):
        try:
            if tracer is None:
                return item.run(item.argv)
            return tracer.span(f"item.{item.workload}", item.run, item.argv)
        except Exception:  # an item that raises is a failed item; the pass goes on
            return traceback.format_exc()

    def check(self, outputs):
        """Check each output; an output byte-identical to an earlier one of the
        same item gets that one's verdict, and it must not differ from the first."""
        from workloads import Output

        for i, (item, out) in enumerate(zip(self.items, outputs)):
            self.attempted += 1
            if not isinstance(out, Output):
                self.failures.append(f"{item.label}: raised\n{out}")
                continue
            digest = hashlib.sha256(out.text).hexdigest()
            verdicts = self.verdicts.setdefault(i, {})
            if digest not in verdicts:
                try:
                    verdicts[digest] = item.check(out)
                except Exception:
                    verdicts[digest] = [f"output check raised\n{traceback.format_exc()}"]
                if len(verdicts) > 1:
                    verdicts[digest].append("output differs from the first pass")
            if verdicts[digest]:
                self.failures.append(f"{item.label}: " + "; ".join(verdicts[digest]))

    def measure(self, seconds, tracer=None):
        """Passes back to back, stopping at the pass boundary closest to
        `seconds` (at least one pass): wall and scaled seconds per pass, and
        the outputs of every pass."""
        walls, scaled, all_outputs = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.median(walls) / 2.0 < seconds:
            wall, sc, outputs = self.run_pass(tracer, len(walls))
            walls.append(wall)
            scaled.append(sc)
            self.check(outputs)
            all_outputs.append(outputs)
        return walls, scaled, all_outputs


# -- per-layer metrics -----------------------------------------------------------

def expr_eval_us(items) -> float:
    """Microseconds per call of the compile_expression closures of each
    config's components at the workload's points."""
    from multifinsler import expr
    from workloads import config_path, load_json

    per_call = []
    for name in dict.fromkeys(item.config for item in items):
        cfg = load_json(config_path(name))
        points = [p for item in items if item.config == name for p in item.points]
        fns = [expr.compile_expression(expr.parse_expression(e, cfg["coordinates"]))
               for m in cfg["metrics"] for row in m["components"] for e in row]
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(EXPR_EVAL_REPS):
                for x in points:
                    for f in fns:
                        f(x)
            reps.append((time.perf_counter() - t0) / (EXPR_EVAL_REPS * len(points) * len(fns)))
        per_call.append(statistics.median(reps))
    return 1e6 * statistics.mean(per_call)


def install_hooks(tracer):
    """Counters read from the results of wrapped calls."""

    def bh(args, kwargs, result):
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "auto")
        if mode == "auto":
            tracer.count("bh_auto")
            tracer.count("bh_fallback", 1.0 if result.fallback else 0.0)

    def geodesic(args, kwargs, result):
        tracer.count("rk4_steps", len(result.t) - 1)

    tracer.hooks["measure.busemann_hausdorff"] = bh
    tracer.hooks["geodesic.integrate_geodesic"] = geodesic


def report_identical(workload, seed, phase_outputs, work):
    """Per config: 1.0 if every default-seed check report equals the stored one byte for byte."""
    import workloads as W

    if workload != "verify":
        return {f"suites.report_identical.{name}": 0.0 for name in W.CONFIGS}
    out = {f"suites.report_identical.{name}": 1.0 for name in W.CONFIGS}
    if seed == W.DEFAULT_SEED:
        items, outputs = W.verify_items(seed, work), phase_outputs
    else:
        items = W.verify_items(W.DEFAULT_SEED, work)
        *_, outputs = Runner(items).run_pass()
    for item, o in zip(items, outputs):
        suite = item.label.split("/")[1]
        ref = (W.REFERENCE / f"check-{item.config}-{suite}.json").read_bytes()
        if not isinstance(o, W.Output) or list(o.files.values()) != [ref]:
            out[f"suites.report_identical.{item.config}"] = 0.0
    return out


def layer_metrics(spec_names, workload, tracer, traced, untraced, traced_outputs, items):
    """Per-layer values; traced and untraced are (wall, scaled) pass times."""
    import workloads as W
    from tracer import LAYERS

    passes = len(traced[0])
    summary = tracer.summary()
    m = {name: 0.0 for name in spec_names}
    for name, (calls, _, selft) in summary.items():
        if f"{name}.calls" in m:
            m[f"{name}.calls"] = calls / passes
            m[f"{name}.self_us"] = 1e6 * selft / calls
    total = sum(traced[0])
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = sum(v[2] for k, v in summary.items()
                                      if k.startswith(layer + ".")) / total
    samples = tracer.counters.get("finsler.TangentSample", 0)
    spd = summary.get("riemann.MetricField.spd_value", (0, 0.0, 0.0))[0]
    m["riemann.spd_per_sample"] = spd / samples if samples else 0.0
    steps = tracer.counters.get("rk4_steps", 0)
    m["geodesic.rk4_steps"] = steps / passes
    integ = summary.get("geodesic.integrate_geodesic", (0, 0.0, 0.0))[1]
    m["geodesic.step_us"] = 1e6 * integ / steps if steps else 0.0
    auto = tracer.counters.get("bh_auto", 0)
    m["measure.bh_fallback_ratio"] = tracer.counters.get("bh_fallback", 0) / auto if auto else 0.0
    drift, checks, passed, nbytes = 0.0, 0, 0, 0
    for outputs in traced_outputs:
        for item, o in zip(items, outputs):
            if not isinstance(o, W.Output):
                continue
            nbytes += len(o.text)
            if workload == "geodesic_fan":
                drift = max([drift] + [r["drift"] for r in W.fan_summary(o)])
            if workload == "verify" and o.files:
                report = json.loads(next(iter(o.files.values())))
                checks += len(report["checks"])
                passed += sum(1 for c in report["checks"] if c["pass"])
    m["geodesic.norm_drift_max"] = drift
    m["suites.checks_passed_frac"] = passed / checks if checks else 0.0
    m["cli.bytes_out"] = nbytes / passes
    m["trace_overhead_frac"] = statistics.median(traced[1]) / statistics.median(untraced[1]) - 1.0
    m["expr.eval_us"] = expr_eval_us(items)
    return m


# -- record ---------------------------------------------------------------------

def environment(args):
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "invariant_map", "geodesic_fan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "multifinsler" / "__init__.py",
                   ROOT / "scripts" / "geodesic_fan.py", ROOT / "configs" / "bimetric.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec, work: Path) -> int:
    if args.trace == 0:
        setup_walls, setup_scaled = measure_setup(work)

    import setup_probe
    import workloads as W
    from tracer import Tracer

    setup_probe.first_evaluation(work)  # warm imports in this process, untimed
    items = W.WORKLOADS[args.workload](args.seed, work)
    # Sampling the host speed during items would put kernel time into the
    # traced spans, so traced runs sample around items only.
    runner = Runner(items, SAMPLE_PERIOD_S if args.trace == 0 else None)
    record = {"environment": environment(args)}

    if args.trace == 0:
        walls, scaled, _ = runner.measure(args.seconds)
        tail_value, pct = tail(scaled)
        stats = {
            "setup_s": stat(setup_scaled, "s"),
            "pass_s": stat(scaled, "s"),
            "pass_s_tail": {**stat([tail_value], "s"), "n": len(scaled), "percentile": pct},
            "peak_rss_mb": stat([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
        }
        names = [m["name"] for m in spec["end_to_end"]]
        record["wall"] = {"setup_s": stat(setup_walls, "s"), "pass_s": stat(walls, "s"),
                          "pass_s_tail": tail(walls)[0], "pass_times_s": walls}
        record["pass_times_scaled_s"] = scaled
    else:
        untraced, untraced_scaled, untraced_outputs = runner.measure(args.seconds / 2.0)
        tracer = Tracer()
        install_hooks(tracer)
        tracer.install()
        try:
            traced, traced_scaled, traced_outputs = runner.measure(args.seconds / 2.0)
        finally:
            tracer.uninstall()
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(names, args.workload, tracer, (traced, traced_scaled),
                               (untraced, untraced_scaled), traced_outputs, items)
        values.update(report_identical(args.workload, args.seed, untraced_outputs[0], work))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        stats = {k: {**stat([values[k]], units[k]), "n": len(traced)} for k in names}
        record["wall"] = {"untraced_pass_s": stat(untraced, "s"), "traced_pass_s": stat(traced, "s")}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    record["ref_kernel_s"] = stat(runner.clock.ref, "s")

    failed = len(runner.failures)
    record.update({
        "attempted": runner.attempted, "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20], "metrics": stats,
    })
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for msg in runner.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": stats[k]["median"], "unit": stats[k]["unit"]} for k in names},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
