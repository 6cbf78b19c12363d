#!/usr/bin/env python3
"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

1. Self-time arithmetic on a synthetic span tree.
2. Traced outputs are byte-identical to untraced outputs, on a few items of
   every workload, and the wrappers reach the imports of geodesic_fan.py
   and come off again afterwards.

Exits 0 when every case holds and 1 otherwise.
"""

import os

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def check_self_times() -> list:
    """Tree: a [0, 10] has children b [1, 4] and c [5, 9]; b has d [2, 3]; e [11, 12] is a root."""
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [T.NO_PARENT, 0, 1, 0, T.NO_PARENT]
    want = [3.0, 2.0, 1.0, 4.0, 1.0]
    got = T.self_times(starts, ends, parents)
    fails = [] if got == want else [f"self_times {got} != {want}"]

    tr = T.Tracer()
    for name, s, e, p in zip("abcde", starts, ends, parents):
        tr.span_name.append(tr._intern(name))
        tr.starts.append(s)
        tr.ends.append(e)
        tr.parents.append(p)
        tr.items.append(0)
    summary = tr.summary()
    if summary["a"] != (1, 10.0, 3.0) or summary["b"] != (1, 3.0, 2.0):
        fails.append(f"summary {summary}")
    return fails


def check_traced_identical(work: Path) -> list:
    import multifinsler.cli  # noqa: F401  loads every package module
    import multifinsler.geodesic as geo

    items = [
        *[i for i in W.verify_items(5, work) if i.label == "single/measures"],
        *W.invariant_map_items(5, work)[:2],
        *W.geodesic_fan_items(5, work)[:2],
    ]
    fails = []
    untraced = [item.run(item.argv) for item in items]
    original = geo.integrate_geodesic
    tr = T.Tracer()
    tr.install()
    try:
        traced = [item.run(item.argv) for item in items]
    finally:
        tr.uninstall()
    for item, a, b in zip(items, untraced, traced):
        if a.rc != 0 or a.text != b.text:
            fails.append(f"{item.workload} {item.label}: traced output differs (rc {a.rc}, {b.rc})")
        fails += [f"{item.workload} {item.label}: {m}" for m in item.check(a)]
    calls = tr.summary()
    if calls.get("geodesic.integrate_geodesic", (0,))[0] == 0:
        fails.append("geodesic_fan.py's imports were not traced")
    if calls.get("cli.main", (0,))[0] == 0 or calls.get("measure.holmes_thompson", (0,))[0] == 0:
        fails.append("cli items were not traced")
    if geo.integrate_geodesic is not original:
        fails.append("uninstall left a wrapper in place")
    return fails


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
    try:
        fails = check_self_times() + check_traced_identical(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in fails:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if fails else "ok")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
