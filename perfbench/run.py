#!/usr/bin/env python3
"""End-to-end benchmark of ``periodickf.filter_series``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
its ``src/`` directory, and the run exits with status 2 when that is
missing. See ``harness.py`` for what a run measures and prints.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, the single-threaded baseline. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "periodickf" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from the "
              "root of a periodickf checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import main
    sys.exit(main(blas_threads=BLAS_THREADS))
