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

Hit counting runs inside one_blas_thread(), which sets numpy's bundled
OpenBLAS to one thread: the pool already keeps every core busy, and a
spinning OpenBLAS helper thread would take a core from a worker.  The
Cholesky factor is computed inside it too, so the factor, and with it
every Monte Carlo number, does not depend on the cap.  The solver and the
energy and equilibrium check (energy.energy, energy.check_optimality) run
inside it as well: two threads round their products and KKT solves
differently from one, so their results would otherwise depend on the cap.
"""

import contextlib
import functools
import os
import sys
import threading

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


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    dlsym on numpy's extension module also searches the libraries it links,
    the bundled scipy-openblas among them.  None under any other BLAS.
    """
    import ctypes

    import numpy

    try:
        lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# callers inside one_blas_thread() and the thread count the last to leave
# restores; the BLAS count is process-wide, so this state is too
_lock = threading.Lock()
_inside = 0
_restore = None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread; restore the count on exit.

    Concurrent callers share one setting: the first in saves the count and
    the last out restores it.  Does nothing when _openblas() is None.
    """
    global _inside, _restore
    calls = _openblas()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _lock:
        if not _inside:
            _restore = get()
            set_(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if not _inside:
                set_(_restore)
