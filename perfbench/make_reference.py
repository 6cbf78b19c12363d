#!/usr/bin/env python3
"""Write the stored reference outputs of every workload at the default seed.

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; the benchmark
compares default-seed outputs with these files.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def main() -> int:
    W.REFERENCE.mkdir(exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / "out"))
    try:
        for workload, make_items in W.WORKLOADS.items():
            for item in make_items(W.DEFAULT_SEED, work):
                out = item.run(item.argv)
                if out.rc != 0:
                    print(f"{item.label}: exit code {out.rc}", file=sys.stderr)
                    return 1
                if workload == "verify":
                    suite = item.label.split("/")[1]
                    dest = W.REFERENCE / f"check-{item.config}-{suite}.json"
                    dest.write_bytes(next(iter(out.files.values())))
                elif workload == "invariant_map":
                    dest = W.REFERENCE / f"sample-{item.config}.csv"
                    dest.write_bytes(next(iter(out.files.values())))
                else:
                    dest = W.REFERENCE / f"fan-{item.config}.json"
                    dest.write_text(json.dumps(W.fan_summary(out), indent=1) + "\n")
                print(f"wrote {dest.relative_to(HERE)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
