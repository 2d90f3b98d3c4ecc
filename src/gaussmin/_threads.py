"""Apply the GAUSSMIN_THREADS cap before any BLAS-backed import.

BLAS thread pools read their env vars at load time, so this module must be
imported before numpy.  It is effective when a process starts through the
CLI or imports gaussmin first; best effort otherwise.

The same cap sizes the Monte Carlo pool, in which each worker takes one
whole trial block at a time: it draws the block's normals column block by
column block for the paths still above the lowest level, builds those
paths and counts their hits.  WORKERS is GAUSSMIN_THREADS when that is a
positive integer, but never more than os.cpu_count(), since each worker
holds a block of normals and more workers than cores run no faster;
os.cpu_count() when the cap is unset or not a positive integer.
"""

import os
import sys

_CAP = os.environ.get("GAUSSMIN_THREADS")

if _CAP and "numpy" not in sys.modules:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _CAP)


def _workers(cap):
    cores = os.cpu_count() or 1
    try:
        n = int(cap)
    except (TypeError, ValueError):
        return cores
    return min(n, cores) if n > 0 else cores


WORKERS = _workers(_CAP)
