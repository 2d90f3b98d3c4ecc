"""Active-set minimization of the covariance energy on the simplex.

Discretizing the interval turns the measure problem into the quadratic
program

    minimize  w' M w   over the probability simplex,

with M the covariance matrix on the grid nodes.  Iterates stay probability
vectors, and the stopping quantity

    equilibrium_gap = <g, w> - min_i g_i,      g = 2 M w

is exactly twice the violation of the equilibrium optimality condition,
so the certificate the solver reports is the quantity the theory pins down:
energy - optimum <= equilibrium_gap for every feasible iterate.

The solver is a primal active-set method (Lawson & Hanson, "Solving Least
Squares Problems", 1974, ch. 23; Wolfe, "Finding the nearest point in a
polytope", Math. Prog. 11, 1976).  It starts at the best vertex (a Dirac
measure at one node).  Each round adds nodes whose gradient entry lies
below lam = <g, w> and solves the equilibrium system

    M_SS x = c 1,   sum x = 1       (c is then the energy of x)

on the enlarged support S, dropping nodes by a ratio test until the
solution is positive.  A round adds every such node that is a local
minimum of g along the grid, so a minimizer that fills the grid (rough
kernels) is reached in a few rounds, not one node at a time.  Each round
solves the bordered system of its face's block by a dense LU (see
_face_minimum) and forms g from the face's rows of M, or from one product
M w once the face is large (see _gradient).

For stationary kernels and for fBm, Brownian motion included, M is a
Toeplitz matrix T plus the rank-two term (u 1' + 1 u') / 2, with u = 0
for stationary kernels, so M w is an FFT product (see DiscretizedProblem).
Rough kernels (H < 1/2) have minimizers that fill the grid, so their
rounds would grow the face until it is all of M.  Once a round ends on a
face spread across the grid (see _spreads) without ever having dropped a
node, solve tries the whole grid in one step instead (see _whole_grid):
M x = 1 by conjugate gradients with T. Chan's optimal circulant
preconditioner ("An optimal circulant preconditioner for Toeplitz
systems", SIAM J. Sci. Stat. Comput. 9, 1988; Chan & Ng, "Conjugate
gradient methods for Toeplitz systems", SIAM Review 38, 1996).  x / sum(x)
is the minimizer when all its entries are positive; otherwise the rounds
go on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _threads
from .errors import EmptyMeasureError
from .kernels import FractionalBM, finite_values
from .measures import DiscreteMeasure, Grid

__all__ = ["DiscretizedProblem", "SolverResult", "discretize", "solve", "extract_measure"]

# conjugate gradient steps before the whole-grid step gives up
_CG_STEPS = 100
# nodes a face needs before it can be seen to spread (see _spreads)
_SPREAD = 8


class DiscretizedProblem:
    """Grid plus the covariance matrix M on its nodes, read by entries and products.

    entries(rows, cols) returns M[rows][:, cols] for index arrays or
    slices, and diagonal is M's diagonal.  lags, when M is a Toeplitz
    matrix T plus a rank-two term, is T's first row, M[i, j] =
    lags[|i - j|] + (u_i + u_j) / 2 up to rounding with u = diagonal -
    lags[0] (u = 0 when M is Toeplitz), and None otherwise.  product(v) is
    M v.  solve reads nothing else.  matrix, the whole n x n array
    (read-only), is built as entries(slice(None), slice(None)) on first
    access.
    """

    def __init__(self, grid, entries, diagonal, lags=None):
        self.grid = grid
        self.entries = entries
        self.diagonal = diagonal
        self.lags = lags

    @cached_property
    def matrix(self):
        matrix = np.ascontiguousarray(self.entries(slice(None), slice(None)))
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def _circulant(self):
        # the spectrum of the circulant of order _order(n) whose leading
        # n x n block is T / scale, scale a power of two near max|lags|
        # that keeps the spectrum finite and changes no bits, and u, or
        # None when it is 0
        lags, n = self.lags, self.lags.size
        scale = 2.0 ** np.frexp(np.max(np.abs(lags)))[1]
        column = np.concatenate((lags, np.zeros(_order(n) - 2 * n + 1), lags[:0:-1]))
        u = self.diagonal - lags[0]
        return np.fft.rfft(column / scale), scale, u if u.any() else None

    def product(self, v):
        """M v: matrix @ v without lags, else T v + (u sum(v) + (u'v) 1) / 2, T v an FFT."""
        if self.lags is None:
            return self.matrix @ v
        (spectrum, scale, u), n = self._circulant, v.size
        out = np.fft.irfft(spectrum * np.fft.rfft(v, _order(n)), _order(n))[:n] * scale
        return out if u is None else out + 0.5 * (u * v.sum() + u @ v)


def _order(n):
    """The FFT order of a product with a Toeplitz matrix of order n: the power of two >= 2n - 1."""
    return 1 << (2 * n - 2).bit_length()


def _toeplitz(lags):
    """entries(rows, cols) of the matrix lags[|i - j|]: a read-only view for two slices."""
    # row i of the reversed windows over (c_{n-1}, ..., c_0, ..., c_{n-1}) is c_{|i - j|}
    view = sliding_window_view(np.concatenate((lags[:0:-1], lags)), lags.size)[::-1]

    def entries(rows, cols):
        sliced = isinstance(rows, slice) or isinstance(cols, slice)
        return view[rows, cols] if sliced else view[rows[:, None], cols]

    return entries


def discretize(kernel, grid):
    """Covariance of the kernel on the grid nodes, as an entry reader.

    Only O(n) vectors are computed here; entries(rows, cols) builds
    M[rows][:, cols] from them with the same operations for every entry,
    so any two reads agree bit for bit and the whole matrix is exactly
    symmetric.  Stationary kernels keep Gamma(t - t[0]), the problem's
    lags, and read a Toeplitz view of it.  Fractional Brownian motion with
    H != 1/2 has R(s, t) = (V(s) + V(t) - V(|t - s|)) / 2, V(x) = x^{2H};
    an entry is V(t_i) + V(t_j), minus the Toeplitz entry of V(t - t[0]),
    times 1/2: cov's operations with the lag |t_j - t_i| read as
    t_{|i - j|} - t[0], so it differs from cov's by rounding only.  Its
    lags are -V(t - t[0]) / 2, and u = V(t).  Brownian motion (exact
    min(s, t); lags fBm's with V(x) = x) and Tabulated (an exactly
    symmetric table; no lags, so a product builds its matrix) call cov.
    A node below 0 raises DomainError for fBm, and non-finite input
    vectors, or a variance past half the float range, raise
    DegenerateKernelError; every entry is then finite, since no entry
    exceeds the largest variance in size.
    """
    t = grid.nodes
    overflow = f"covariance overflows on the grid over [{t[0]}, {t[-1]}]"
    if kernel.stationary:
        lags = finite_values(lambda: np.asarray(kernel.gamma(t - t[0]), dtype=float), overflow)
        entries = _toeplitz(lags)
        diagonal = np.broadcast_to(lags[0], t.shape)
    elif isinstance(kernel, FractionalBM) and kernel.H != 0.5:
        v = finite_values(lambda: kernel.variance(t), overflow)
        lag_variance = finite_values(lambda: kernel.variance(t - t[0]), overflow)
        toeplitz = _toeplitz(lag_variance)
        lags = -0.5 * lag_variance

        def entries(rows, cols):
            out = np.add.outer(v[rows], v[cols])
            out -= toeplitz(rows, cols)
            out *= 0.5
            return out

        diagonal = finite_values(lambda: 0.5 * ((v + v) - lag_variance[0]), overflow)
    else:

        def entries(rows, cols):
            return np.asarray(kernel.cov(t[rows][:, None], t[cols]), dtype=float)

        diagonal = np.asarray(kernel.cov(t, t), dtype=float)
        lags = -0.5 * (t - t[0]) if isinstance(kernel, FractionalBM) else None
    # solve forms 2 M w, which overflows once a variance passes half the
    # float range
    finite_values(lambda: 2.0 * diagonal, overflow)
    return DiscretizedProblem(grid, entries=entries, diagonal=diagonal, lags=lags)


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Final iterate with its optimality certificate.

    converged is True exactly when equilibrium_gap <= the requested
    tolerance; hitting max_iter or a stalled round first leaves converged
    False and the caller decides what to do with the (still feasible)
    weights.
    energy_trace holds the energy at the start and after each round of
    solve, iterations + 1 floats.
    """

    weights: np.ndarray
    energy: float
    equilibrium_gap: float
    iterations: int
    converged: bool
    energy_trace: np.ndarray | None = None


@_threads.one_blas_thread()
def solve(problem, tol=1e-9, max_iter=200_000):
    """Primal active-set rounds from the best vertex.

    The start is the node with the smallest variance (lowest index on
    ties).  A round adds nodes, inserted at their grid positions, moves to
    the minimizer of the energy on the face they span (see _face_minimum)
    and forms g there (see _gradient).  Normally it adds each node i whose
    g_i is a local minimum along the grid below lam = <g, w>, up to
    rounding: with e = 64 eps max|g|, g_i < lam - e, g_i < g_{i-1} - e and
    g_i <= g_{i+1} + e, so a stretch of g flat up to rounding adds its
    left end only.  After a round that did not lower the energy it adds
    only argmin g, Lawson and Hanson's single step, which lowers it
    whenever the gap is positive.  In exact arithmetic every round lowers
    the energy; in floating point one near the optimum can raise it at
    rounding level, and a single-node round that leaves the weights
    unchanged ends the loop.  Each round is one iteration and one entry of
    energy_trace.  On a large face g off the face comes from an FFT
    product, within 2 eps log2(size) sum|lags| of 2 M w, size <= 4n the
    FFT order, and so does the gap; lam and the energies always read M's
    entries.  Memory is O(k^2 + n log n) for a face of k nodes.  When
    problem.lags is set, the first round that ends on a face spread across
    the grid (see _spreads), no node ever dropped, is followed by one try
    of the whole grid (see _whole_grid); if its weights are all positive
    and its gap is at most tol it is the last round, else the rounds go
    on.  It runs with numpy's bundled OpenBLAS on one thread (see
    _threads.one_blas_thread), so its result does not depend on the
    GAUSSMIN_THREADS cap.  tol is an absolute bound on the gap, in the
    units of M's entries; it must be positive and finite.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    start = int(np.argmin(problem.diagonal))
    # the face: its nodes in grid order and their weights x
    nodes, x = np.array([start]), np.ones(1)
    dropped = False
    w = np.zeros(problem.diagonal.size)
    w[start] = 1.0
    # the start's block is its variance
    g = _gradient(problem, w, nodes, x, problem.diagonal[nodes, None])
    energy = float(problem.diagonal[start])
    trace = [energy]

    iterations = 0
    single = False
    converged = False
    whole = problem.lags is not None
    while iterations < max_iter:
        lam = float(w @ g)
        s = int(np.argmin(g))
        if lam - float(g[s]) <= tol:
            converged = True
            break
        iterations += 1
        if whole and not dropped and _spreads(nodes, w.size):
            # the face seems to fill the grid: try the whole grid, once
            step = _whole_grid(problem, tol)
            whole = False
            if step is not None:
                w, g = step
                trace.append(0.5 * float(w @ g))
                break
        if single:
            added = np.array([s])
        else:
            # local minima of g along the grid, ends included, up to rounding
            e = 64.0 * np.finfo(float).eps * float(np.max(np.abs(g)))
            local = g < lam - e
            local[1:] &= g[1:] < g[:-1] - e
            local[:-1] &= g[:-1] <= g[1:] + e
            added = np.flatnonzero(local)
        new = added[w[added] == 0.0]
        if new.size:
            at = np.searchsorted(nodes, new)
            nodes = np.insert(nodes, at, new)
            x = np.insert(x, at, 0.0)
        k = nodes.size
        # the block is an argument only, so _face_minimum can free it
        nodes, x, block = _face_minimum(problem.entries(nodes, nodes), nodes, x)
        dropped |= nodes.size < k
        trial = np.zeros_like(w)
        trial[nodes] = x
        g = _gradient(problem, trial, nodes, x, block)
        trial_energy = 0.5 * float(x @ g[nodes])
        # a single-node round that changes nothing would repeat forever
        stalled = single and np.array_equal(trial, w)
        single = not trial_energy < energy
        w, energy = trial, trial_energy
        trace.append(energy)
        if stalled:
            break

    # certificate for the returned iterate, from its gradient g
    final_energy = 0.5 * float(w @ g)
    final_gap = float(w @ g) - float(np.min(g))
    if not converged:
        converged = final_gap <= tol
    w.flags.writeable = False
    return SolverResult(
        weights=w, energy=final_energy, equilibrium_gap=final_gap,
        iterations=iterations, converged=converged, energy_trace=np.asarray(trace),
    )


def _gradient(problem, w, face, x, block):
    """g = 2 M w for w = x on face: 2 x' M[face] from M's rows while the face's
    k n entries are at most size log2(size), size = _order(n), the cost of a
    product; else 2 problem.product(w), with g[face] = 2 M_SS x from block.
    """
    n = w.size
    size = _order(n)
    if face.size * n <= size * (size.bit_length() - 1):
        # 2 x is exact, so this is 2 (x' M[face]) to the bit
        return (2.0 * x) @ problem.entries(face, slice(None))
    g = 2.0 * problem.product(w)
    g[face] = 2.0 * (x @ block)
    return g


def _face_minimum(block, face, cur):
    """Minimize the energy over the simplex face spanned by the nodes in face.

    face is strictly increasing (grid order); block holds M_SS, S = face,
    and cur, the start, probability weights on face (nodes just added
    carry weight 0), both in the order of face.  Solves M_SS x = c 1,
    sum x = 1 from its bordered system [[M_SS, 1], [1', 0]], by least
    squares when that is singular.  If some x_i <= 0, it moves from the
    current weights toward x up to the first weight that reaches zero (a
    ratio test), drops that node and every other node left at zero with
    x_i <= 0, and solves again on the system's remaining rows and columns.
    Returns the final face, its weights, summing to one and all positive
    (x once it is positive, or the current weights and their support if
    the system yields non-finite values), in grid order, and its block.
    """
    k = face.size
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = block
    kkt[k, k] = 0.0
    # the bordered system replaces the block, which the caller does not keep
    del block
    while True:
        rhs = np.zeros(len(kkt))
        rhs[-1] = 1.0
        try:
            x = np.linalg.solve(kkt, rhs)[:-1]
        except np.linalg.LinAlgError:
            x = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1]
        finite = np.all(np.isfinite(x))
        if finite and np.all(x > 0.0):
            cur = x
            break
        # with x not finite the face shrinks to the support of the current weights
        keep = cur > 0.0
        if finite:
            blocking = np.flatnonzero(x <= 0.0)
            c = cur[blocking]
            # a node at zero blocks at once; the quotient there would be 0/0
            ratios = np.divide(c, c - x[blocking], out=np.zeros_like(c), where=c > 0.0)
            first = int(np.argmin(ratios))
            cur = cur + ratios[first] * (x - cur)
            cur[blocking[first]] = 0.0
            keep = (x > 0.0) | (cur > 0.0)
        face, cur = face[keep], cur[keep]
        left = np.append(np.flatnonzero(keep), keep.size)
        kkt = kkt[np.ix_(left, left)]
        if not finite:
            break
    return face, cur / cur.sum(), kkt[:-1, :-1]


def _spreads(nodes, n):
    """Whether a face of k nodes seems to fill the grid of n nodes.

    nodes is in grid order.  True when k >= _SPREAD and k times the
    largest gap between consecutive face nodes, in grid steps with both
    ends of the grid included, is at most 4 (n - 1).  Faces that grow to
    fill the grid (rough kernels, H < 1/2) keep k * gap between about 1.4
    and 3.8 n while k <= 33 for fGn, and at 1.7 to 2.7 n when the step
    comes for fBm; clustered supports (H > 1/2) pass 5.3 n once k >= 16,
    and their k * gap grows with k.
    """
    k = nodes.size
    if k < _SPREAD:
        return False
    gap = np.diff(np.concatenate(([0], nodes, [n - 1]))).max()
    return k * gap <= 4 * (n - 1)


def _whole_grid(problem, tol):
    """The energy minimizer on every node, with its gradient, when lags is set.

    M = T + (u 1' + 1 u') / 2, with T the Toeplitz matrix of lags and
    u = diagonal - lags[0] (see DiscretizedProblem).  Solves M x = 1 (see
    _pcg) with M v = problem.product(v): M is a covariance matrix, so it is
    positive definite although T alone need not be (fBm's T has a zero
    diagonal).  T. Chan's preconditioner is the circulant C of order n
    nearest to M in the Frobenius norm: c_k = ((n - k) lags[k] +
    k lags[n - k]) / n from T, plus sum(u) / n for every k from the
    rank-two term, which adds sum(u) to C's eigenvalue at frequency 0.
    C^-1 is a circulant too; its first column d comes from one FFT of
    order n, and C^-1 r, the circular convolution of d and r, is their
    linear convolution at order _order(n), folded mod n (n is often prime,
    and an FFT of prime order is several times slower).  Returns (w, g)
    with w = x / sum(x) and g = 2 M w from one more product, or None when
    CG does not converge, some x_i <= 0, C is not positive definite, or
    the gap <g, w> - min g exceeds tol.
    """
    lags = problem.lags
    u = problem.diagonal - lags[0]
    n = lags.size
    size = _order(n)
    k = np.arange(n)
    chan = np.fft.rfft(((n - k) * lags + k * np.r_[0.0, lags[:0:-1]]) / n).real
    chan[0] += u.sum()
    if not np.all(chan > 0.0):
        return None
    inverse = np.fft.rfft(np.fft.irfft(1.0 / chan, n), size)

    def precondition(r):
        both = np.fft.irfft(inverse * np.fft.rfft(r, size), size)
        both[: n - 1] += both[n : 2 * n - 1]
        return both[:n]

    x = _pcg(problem.product, precondition, np.ones(n))
    if x is None or not np.all(x > 0.0):
        return None
    w = x / x.sum()
    g = 2.0 * problem.product(w)
    if float(w @ g) - float(np.min(g)) > tol:
        return None
    return w, g


def _pcg(product, precondition, b):
    """x with M x = b by preconditioned conjugate gradients, or None.

    product(v) is M v and precondition(r) is C^-1 r, both symmetric
    positive definite.  Stops when the updated residual falls to 8 eps
    |b|, rounding level; None after _CG_STEPS steps, or once a step finds
    p' M p not positive.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = z = precondition(r)
    rz = float(r @ z)
    stop = 8.0 * np.finfo(float).eps * np.linalg.norm(b)
    for _ in range(_CG_STEPS):
        q = product(p)
        curvature = float(p @ q)
        if not curvature > 0.0:
            return None
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= stop:
            return x
        z = precondition(r)
        rz, previous = float(r @ z), rz
        p = z + (rz / previous) * p
    return None


def extract_measure(result, grid, prune=1e-4):
    """Turn solver weights into a sparse measure.

    Nodes with weight <= prune are dropped and the survivors, renormalized,
    are the atoms, one per node, so the measure's energy is the solver's
    when nothing is pruned; renormalizing can raise it by more than the
    pruned mass.  prune must lie in [0, 0.01]; pruning everything raises
    EmptyMeasureError.
    """
    if not 0.0 <= prune <= 0.01:
        raise ValueError(f"prune must lie in [0, 0.01], got {prune}")
    w = np.asarray(result.weights, dtype=float)
    keep = np.flatnonzero(w > prune)
    if keep.size == 0:
        raise EmptyMeasureError("every node weight fell at or below the threshold")
    return DiscreteMeasure(grid.nodes[keep], w[keep] / np.sum(w[keep]))
