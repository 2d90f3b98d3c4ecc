"""Monte Carlo validation of the tail decay rate.

Crude Monte Carlo at moderate levels u: simulate paths on a grid, count
paths whose minimum over the nodes exceeds u, and watch the normalized
log-probability log p / u^2 drift toward the theoretical rate
-1 / (2 sigma*^2).

Paths are X = z @ factor.T for the lower Cholesky factor of the grid
covariance, so a path's first coordinates need only its first normals.
Brownian motion has independent increments, so its factor is never
formed: X_j = X_{j-1} + sqrt(t_j - t_{j-1}) z_j with X_{-1} = t_{-1} = 0,
the random-walk construction (Glasserman, Monte Carlo Methods in Financial
Engineering, 2003, section 3.1), from the same normals.

Normals come in fixed blocks: trial block k holds trials
[k * rows, (k + 1) * rows), with rows fixed by the number of grid nodes,
and its columns fall in blocks of widths 8, 16, 32, ...  Column block c of
trial block k is drawn row-major by numpy's ziggurat sampler (Marsaglia &
Tsang, J. Stat. Softw. 5, 2000) from its own stream,
SFC64(SeedSequence(seed, spawn_key=(k, c))).

Hit counting is the only place normals are drawn and paths built.  It
draws each column block only for the rows whose running minimum is still
above the lowest level, builds their coordinates of that block, and drops
the rest: a path at or below the lowest level can exceed no level, and a
path built to the end has its exact minimum.  So a path's normals after
its first column block depend on the lowest level of the call, while its
hits stay exact for that call.

A trial's path does not depend on the total number of trials or on the
worker count, and reruns with the same seed are bit-for-bit identical.
That is what lets a pool of GAUSSMIN_THREADS workers (see _threads) each
take a whole trial block, numpy releasing the interpreter lock in the
ziggurat loop and the product, while the calling thread sums their hit
counts.  Nor does it depend on GAUSSMIN_THREADS as a BLAS cap: the
Cholesky factor and the products run with numpy's bundled OpenBLAS on one
thread whatever the cap (another BLAS keeps its own thread count).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from . import _threads
from .errors import FactorizationError
from .kernels import FractionalBM
from .measures import Grid
from .solver import discretize

__all__ = [
    "LdpEstimate",
    "factorize",
    "ldp_curve",
]

_MAX_JITTER = 1e-6
_BASE_JITTER = 1e-12
# trials per block of the normal stream are sized to keep one block of
# normals near 32 MB, and each worker holds one block at a time.  The block
# size fixes which stream each trial draws from: changing this constant
# changes the numbers a seed gives
_BATCH_DOUBLES = 4_000_000
# width of the first column block of the normal stream and the pruned path
# product; each later block is twice as wide as the one before
_FIRST_BLOCK = 8
# a column block of a Brownian path is summed one column at a time when it
# has at least this many rows per column, and one row at a time otherwise:
# numpy's cumsum and min along short rows pay a call per row
_WALK_ROWS = 64


def factorize(problem):
    """Lower Cholesky factor of the covariance matrix, with jitter escalation.

    Tries no diagonal jitter first, then escalates tenfold from 1e-12 up to
    1e-6 before giving up with FactorizationError.  Returns
    (factor, jitter_used).
    """
    matrix = problem.matrix
    try:
        return np.linalg.cholesky(matrix), 0.0
    except np.linalg.LinAlgError:
        pass
    # one shifted copy, its diagonal rewritten for each jitter
    shifted = np.array(matrix)
    diagonal = np.diagonal(matrix)
    jitter = _BASE_JITTER
    while jitter <= _MAX_JITTER:
        np.fill_diagonal(shifted, diagonal + jitter)
        try:
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationError(
        f"covariance matrix is not positive definite even with jitter {_MAX_JITTER}"
    )


def _path_factor(kernel, grid):
    """(factor, jitter) of the paths on the grid, as _block_minima takes it.

    Brownian motion (the test discretize uses) has independent increments:
    column j of its Cholesky factor is sqrt(t_j - t_{j-1}) from row j down,
    with t_{-1} = 0, so the factor is that step vector and no matrix is
    formed.  kernel.variance raises DomainError for a node below 0.  Every
    other kernel gets factorize's dense factor.
    """
    if isinstance(kernel, FractionalBM) and kernel.H == 0.5:
        return np.sqrt(np.diff(kernel.variance(grid.nodes), prepend=0.0)), 0.0
    return factorize(discretize(kernel, grid))


def _block_rows(draws_per_trial):
    # trials per block of the normal stream
    return max(1, _BATCH_DOUBLES // draws_per_trial)


def _column_blocks(n):
    # column ranges (c0, c1) of widths 8, 16, 32, ..., the last cut at n
    c0, width = 0, _FIRST_BLOCK
    while c0 < n:
        yield c0, min(n, c0 + width)
        c0, width = c0 + width, 2 * width


def _normals(seed, k, c, rows, width):
    # the first `rows` rows of column block c of trial block k
    stream = np.random.SeedSequence(seed, spawn_key=(k, c))
    return np.random.Generator(np.random.SFC64(stream)).standard_normal((rows, width))


def _walk(z, steps, start):
    # the rows of z * steps summed in place, each from its entry of start:
    # (row minima, row ends)
    path = np.multiply(z, steps, out=z)
    path[:, 0] += start
    if path.shape[0] < _WALK_ROWS * path.shape[1]:
        np.cumsum(path, axis=1, out=path)
        low = path.min(axis=1)
    else:
        # the same adds in the same order, a column at a time
        low = path[:, 0].copy()
        for j in range(1, path.shape[1]):
            np.add(path[:, j - 1], path[:, j], out=path[:, j])
            np.minimum(low, path[:, j], out=low)
    return low, path[:, -1].copy()


def _block_minima(seed, k, trials, factor, floor):
    """Path minima of the trials in block k, exact only where they exceed floor.

    factor is lower triangular, so path coordinate j needs only the first
    j + 1 normals.  Column block c of the normals is drawn for the rows
    still alive, in trial order, and builds their coordinates of that block;
    a row leaves as soon as its running minimum is at or below floor and
    keeps that running minimum, an upper bound on its path minimum.  So for
    every level u >= floor, count(minima > u) is the full paths' count.

    A 1-D factor is Brownian motion's step vector (see _path_factor): a
    block's coordinates are then running sums of its normals times the
    steps, continued from each row's last coordinate, and only the rows'
    running minima and last coordinates are kept.
    """
    n = factor.shape[0]
    rows = _block_rows(n)
    m = min(rows, trials - k * rows)
    walk = factor.ndim == 1
    if walk:
        last = np.zeros(m)
    else:
        # trial i's normals are column i, so a path's coordinates of a block
        # are a column of the product and its minimum a reduction down
        # columns; the pages of normals never drawn are never touched
        zt = np.empty((n, m))
    minima = np.empty(m)
    alive = np.arange(m)
    low = np.full(m, np.inf)
    for c, (c0, c1) in enumerate(_column_blocks(n)):
        m = alive.size
        z = _normals(seed, k, c, m, c1 - c0)
        if walk:
            block_low, last = _walk(z, factor[c0:c1], last)
        else:
            zt[c0:c1, :m] = z.T
            block_low = (factor[c0:c1, :c1] @ zt[:c1, :m]).min(axis=0)
        low = np.minimum(low, block_low)
        keep = low > floor
        if not keep.all():
            minima[alive[~keep]] = low[~keep]
            alive, low = alive[keep], low[keep]
            if walk:
                last = last[keep]
            else:
                zt[:c1, : alive.size] = zt[:c1, :m][:, keep]
    minima[alive] = low
    return minima


@_threads.one_blas_thread()
def _hits(kernel, interval, n, u, trials, seed):
    """Counts of paths whose grid minimum exceeds each increasing level u.

    Worker threads take whole trial blocks (draws, product and counts), and
    only hit vectors come back; at most workers + 1 blocks are submitted
    and not yet taken.  The Cholesky factor and every product run with
    OpenBLAS on one thread (see _threads.one_blas_thread), so the factor's
    rounding does not depend on the thread cap.  Returns (hits, jitter),
    jitter being the Cholesky factor's diagonal shift, 0 for Brownian
    motion, whose paths need no factor.
    """
    from concurrent.futures import ThreadPoolExecutor

    if trials < 1:
        raise ValueError("trials must be positive")
    factor, jitter = _path_factor(kernel, Grid(*interval, n))

    def block_hits(k):
        minima = _block_minima(seed, k, trials, factor, u[0])
        return np.count_nonzero(minima[:, None] > u, axis=0)

    hits = np.zeros(u.size, dtype=np.int64)
    pending = collections.deque()
    pool = ThreadPoolExecutor(_threads.WORKERS)
    try:
        for k in range(-(-trials // _block_rows(n))):
            pending.append(pool.submit(block_hits, k))
            if len(pending) > _threads.WORKERS:
                hits += pending.popleft().result()
        for future in pending:
            hits += future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return hits, jitter


@dataclass(frozen=True, eq=False)
class LdpEstimate:
    """Tail estimates for a list of levels, sharing one set of paths.

    For levels with zero hits, log_p falls back to log(1/trials) and the
    level is flagged.  ci_halfwidth is the 95% normal-approximation
    halfwidth on the log scale, infinite for zero-hit levels.  jitter is
    the diagonal shift the Cholesky factor of the grid covariance needed
    (see factorize); it is diagnostic and no command prints it.  It is
    always 0 for Brownian motion, whose paths are built without a factor.
    """

    interval: tuple
    n: int
    trials: int
    seed: int
    u: np.ndarray
    hits: np.ndarray
    p_hat: np.ndarray
    log_p_over_u2: np.ndarray
    ci_halfwidth: np.ndarray
    flagged: np.ndarray
    jitter: float


def ldp_curve(kernel, interval, n, u_list, trials, seed=0):
    """Normalized log tail probabilities along increasing levels.

    All levels share one simulated sample set (common random numbers), so
    p_hat is exactly nonincreasing in u.
    """
    u = np.asarray(list(u_list), dtype=float)
    if u.size == 0:
        raise ValueError("u_list must not be empty")
    if not np.all(np.isfinite(u)):
        raise ValueError("levels must be finite")
    if np.any(u <= 0.0):
        raise ValueError("levels must be positive")
    if np.any(np.diff(u) <= 0.0):
        raise ValueError("levels must be strictly increasing")
    hits, jitter = _hits(kernel, interval, n, u, trials, seed)
    p_hat = hits / trials
    flagged = hits == 0
    safe_p = np.where(flagged, 1.0 / trials, p_hat)
    log_p = np.log(safe_p)
    # delta method: sd(log p_hat) ~ sqrt((1 - p) / (p * trials))
    with np.errstate(divide="ignore"):
        sd = np.sqrt((1.0 - safe_p) / (safe_p * trials))
    ci = np.where(flagged, np.inf, 1.96 * sd)
    return LdpEstimate(
        interval=(float(interval[0]), float(interval[1])),
        n=n,
        trials=trials,
        seed=seed,
        u=u,
        hits=hits,
        p_hat=p_hat,
        log_p_over_u2=log_p / u**2,
        ci_halfwidth=ci,
        flagged=flagged,
        jitter=jitter,
    )
