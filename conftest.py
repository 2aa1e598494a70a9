"""Pins the BLAS/OpenMP thread count to one before any test imports numpy,
as perfbench/run.py does: the rounded quality of a solve depends on BLAS
summation order, so the recorded results and the acceptance gates repeat
only with a fixed thread count, and on a small machine unpinned BLAS
threads contend with the solve's own worker thread."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
