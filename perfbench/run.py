"""Entry point of the hypersat benchmark; see README.md.

    python3 perfbench/run.py --workload small-3sat --seed 1 --seconds 30 --trace 0

Pins the BLAS/OpenMP thread count before numpy is imported: the rounded
quality of a solve depends on BLAS summation order, so it repeats from run
to run only with a fixed thread count.  One thread is at most nproc on any
machine.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "hypersat" / "__init__.py").is_file():
        print(f"run.py: no hypersat sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_harness  # imports numpy, scipy and hypersat

    return bench_harness.main(blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
