"""Monte Carlo validation of the tail decay rate.

Crude Monte Carlo at moderate levels u: simulate paths on a grid, count
paths whose minimum over the nodes exceeds u, and watch the normalized
log-probability log p / u^2 drift toward the theoretical rate
-1 / (2 sigma*^2).

Draws come in fixed blocks of trials: block k holds trials
[k * rows, (k + 1) * rows), with rows fixed by the number of draws per
trial, and is drawn row by row by numpy's ziggurat sampler (Marsaglia &
Tsang, J. Stat. Softw. 5, 2000) from its own stream,
SFC64(SeedSequence(seed, spawn_key=(k,))).  Every trial's normals are
therefore fixed by the seed and the trial index: estimates do not depend
on batch size or evaluation schedule, and reruns with the same seed are
bit-for-bit identical.

That is what lets the draws run on threads: a pool of GAUSSMIN_THREADS
workers (see _threads) draws whole blocks of normals ahead, numpy
releasing the interpreter lock inside the ziggurat loop, while the calling
thread takes the blocks in trial order.  A worker count of 1 runs the same
loop, so every count of workers gives the same paths.

sample_paths multiplies each block by the Cholesky factor in full.  Hit
counting does not need whole paths: the factor is lower triangular, so a
path's first coordinates depend only on the first normals, and
_path_minima builds coordinates in column blocks and drops a path as soon
as its running minimum falls to the lowest level.  At the levels simulate
runs most paths leave within the first few nodes, so drawing the normals,
not the product, bounds its time.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from . import _threads
from .energy import _rate
from .errors import FactorizationError
from .measures import Grid
from .solver import discretize

__all__ = [
    "LdpEstimate",
    "factorize",
    "normal_block",
    "sample_paths",
    "estimate_tail",
    "ldp_curve",
]

_MAX_JITTER = 1e-6
_BASE_JITTER = 1e-12
# paths per simulation batch, which is one block of the normal stream, are
# sized to keep one batch of normals near 32 MB; up to workers + 1 batches
# are drawn ahead, so the working set is about (workers + 1) * 32 MB.  The
# block size fixes which stream each trial draws from: changing this
# constant changes the numbers a seed gives
_BATCH_DOUBLES = 4_000_000
# width of the first column block of the pruned path product; each later
# block is twice as wide as the one before
_FIRST_BLOCK = 8


def factorize(problem, jitter=0.0):
    """Lower Cholesky factor of the covariance matrix, with jitter escalation.

    Tries the requested diagonal jitter first, then escalates tenfold from
    1e-12 up to 1e-6 before giving up with FactorizationError.  Returns
    (factor, jitter_used).
    """
    matrix = problem.matrix
    n = matrix.shape[0]
    jitters = [jitter]
    j = max(_BASE_JITTER, 10.0 * jitter)
    while j <= _MAX_JITTER:
        jitters.append(j)
        j *= 10.0
    for j in jitters:
        try:
            factor = np.linalg.cholesky(matrix + j * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        return factor, j
    raise FactorizationError(
        f"covariance matrix is not positive definite even with jitter {_MAX_JITTER}"
    )


def _block_rows(draws_per_trial):
    # trials per block of normals, and per batch of paths
    return max(1, _BATCH_DOUBLES // draws_per_trial)


def normal_block(seed, start_trial, trials, draws_per_trial):
    """Standard normals for trials [start_trial, start_trial + trials).

    Trials fall in fixed blocks of rows = max(1, _BATCH_DOUBLES //
    draws_per_trial): block k holds trials [k * rows, (k + 1) * rows) and is
    drawn row by row with numpy's ziggurat from its own generator,
    Generator(SFC64(SeedSequence(seed, spawn_key=(k,)))).  A call that
    starts inside a block first draws and drops that block's earlier rows,
    so the mapping from (seed, trial, coordinate) to value is fixed and any
    split of the trials into calls produces identical numbers.
    """
    rows = _block_rows(draws_per_trial)
    z = np.empty((trials, draws_per_trial))
    trial, stop = start_trial, start_trial + trials
    while trial < stop:
        k, skip = divmod(trial, rows)
        take = min(rows - skip, stop - trial)
        stream = np.random.SeedSequence(seed, spawn_key=(k,))
        gen = np.random.Generator(np.random.SFC64(stream))
        if skip:
            gen.standard_normal(skip * draws_per_trial)
        row = trial - start_trial
        gen.standard_normal(out=z[row : row + take])
        trial += take
    return z


def _path_batches(kernel, interval, n, trials, seed):
    """Normals for paths on the n grid nodes of interval, in batches of rows.

    Yields (z, factor, jitter): a block of normals, the lower Cholesky
    factor of the grid covariance and the diagonal shift it needed; the
    paths of the batch are z @ factor.T.  Consecutive batches cover trials
    0, 1, ..., trials - 1 in order, one normal_block block each; trial i is
    always built from normal_block row i, so the paths do not depend on the
    batch size.  Worker threads draw the blocks ahead while this thread
    consumes them; at most workers + 1 blocks are submitted and not yet
    taken.
    """
    from concurrent.futures import ThreadPoolExecutor

    if trials < 1:
        raise ValueError("trials must be positive")
    factor, jitter = factorize(discretize(kernel, Grid(*interval, n)))
    batch = _block_rows(n)
    starts = range(0, trials, batch)
    workers = _threads.WORKERS
    pool = ThreadPoolExecutor(workers)

    def draw(start):
        return pool.submit(normal_block, seed, start, min(batch, trials - start), n)

    try:
        blocks = collections.deque(map(draw, starts[: workers + 1]))
        for k in range(len(starts)):
            z = blocks.popleft().result()
            if k + workers + 1 < len(starts):
                blocks.append(draw(starts[k + workers + 1]))
            yield z, factor, jitter
    finally:
        pool.shutdown(cancel_futures=True)


def sample_paths(kernel, interval, n, trials, seed=0):
    """Simulate `trials` paths on n >= 2 grid nodes; rows are paths."""
    return np.concatenate(
        [z @ factor.T for z, factor, _ in _path_batches(kernel, interval, n, trials, seed)]
    )


def _path_minima(z, factor, floor):
    """Minima of the paths z @ factor.T, exact only where they exceed floor.

    factor is lower triangular, so path coordinate j needs only z[:, :j+1].
    Coordinates are built in column blocks of widths 8, 16, 32, ... and a
    row leaves as soon as its running minimum is at or below floor; it
    keeps that running minimum, which bounds its path minimum from above.
    So for every level u >= floor, count(minima > u) is the count over the
    full paths.
    """
    n = z.shape[1]
    minima = np.full(z.shape[0], np.inf)
    # a slice while no row has left: the first blocks copy nothing
    rows = slice(None)
    c0, width = 0, _FIRST_BLOCK
    while c0 < n:
        c1 = min(n, c0 + width)
        block = z[rows, :c1] @ factor[c0:c1, :c1].T
        low = np.minimum(minima[rows], block.min(axis=1))
        minima[rows] = low
        keep = low > floor
        if not keep.all():
            rows = np.flatnonzero(keep) if isinstance(rows, slice) else rows[keep]
        c0, width = c1, 2 * width
    return minima


def _hits(kernel, interval, n, u, trials, seed):
    """Counts of paths whose grid minimum exceeds each increasing level u.

    Returns (hits, jitter), jitter being the Cholesky factor's diagonal shift.
    """
    hits = np.zeros(u.size, dtype=np.int64)
    for z, factor, jitter in _path_batches(kernel, interval, n, trials, seed):
        minima = _path_minima(z, factor, u[0])
        hits += np.count_nonzero(minima[:, None] > u, axis=0)
    return hits, jitter


def estimate_tail(kernel, interval, n, u, trials, seed=0):
    """Crude MC estimate of P(min over the grid nodes > u).

    Returns (p_hat, hits).  u may be zero (useful as a symmetry sanity
    check).
    """
    if not 0.0 <= u < np.inf:
        raise ValueError(f"level must be finite and nonnegative, got {u}")
    hits = int(_hits(kernel, interval, n, np.array([float(u)]), trials, seed)[0][0])
    return hits / trials, hits


@dataclass(frozen=True, eq=False)
class LdpEstimate:
    """Tail estimates for a list of levels, sharing one set of paths.

    For levels with zero hits, log_p falls back to log(1/trials) and the
    level is flagged.  ci_halfwidth is the 95% normal-approximation
    halfwidth on the log scale, infinite for zero-hit levels.  jitter is
    the diagonal shift the Cholesky factor of the grid covariance needed
    (see factorize); it is diagnostic and no command prints it.
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
    theoretical_rate: float | None = None


def ldp_curve(kernel, interval, n, u_list, trials, seed=0, sigma_sq=None):
    """Normalized log tail probabilities along increasing levels.

    All levels share one simulated sample set (common random numbers), so
    p_hat is exactly nonincreasing in u.  Pass sigma_sq >= 0 to attach the
    theoretical limit -1 / (2 sigma_sq) for reporting (-inf for zero).
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
    if sigma_sq is not None and not sigma_sq >= 0.0:
        raise ValueError(f"sigma_sq must be nonnegative, got {sigma_sq}")
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
        theoretical_rate=None if sigma_sq is None else _rate(sigma_sq),
    )
