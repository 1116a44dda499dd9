#!/usr/bin/env python3
"""Entry point of the gaplab benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of lp-headline, lp-cuts, small-oracles, sweep.  Prints every
metric by name with its unit, then an info record (environment, tail
position, error rate), and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without a result when the
gaplab sources are missing.

BLAS may use at most one thread per available processor; the cap is set
here because it only takes effect before numpy loads.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "gaplab" / "__init__.py").is_file():
        print(f"error: gaplab sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    os.environ.pop("GAPLAB_HK_CAP", None)  # the Held-Karp cap stays at its default
    sys.path.insert(0, str(SRC))  # the script's own directory is already on the path
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
