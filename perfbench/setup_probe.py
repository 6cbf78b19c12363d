"""One cold set-up of the program, timed from a fresh interpreter.

Set-up is the import of the package, load_config and build_space for every
committed config, and the first evaluation (one `sample` row, which compiles
the lazy first and second derivatives).  Prints the seconds it took and then
the seconds of the host-speed kernel, timed right after.

    python3 perfbench/setup_probe.py WORK_DIR
"""

import sys
import time
from pathlib import Path

T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("single", "bimetric", "trimetric")


def first_evaluation(work: Path) -> None:
    """load_config, build_space and one evaluated sample row per config."""
    from multifinsler import cli

    for name in CONFIGS:
        out = work / f"setup-{name}.csv"
        rc = cli.main(["sample", "--config", str(ROOT / "configs" / f"{name}.json"),
                       "--grid", "1", "--directions", "1", "--out", str(out)])
        if rc != 0 or len(out.read_text().splitlines()) != 2:
            raise RuntimeError(f"set-up evaluation failed for {name} (exit code {rc})")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    first_evaluation(Path(sys.argv[1]))
    elapsed = time.perf_counter() - T0
    from hostspeed import reference_kernel_s

    print(repr(elapsed), repr(reference_kernel_s()))
