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
kernels) is reached in a few rounds, not one node at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyMeasureError
from .kernels import finite_values
from .measures import DiscreteMeasure, Grid

__all__ = ["DiscretizedProblem", "SolverResult", "discretize", "solve", "extract_measure"]

# side of the square tiles a non-stationary covariance matrix is built from:
# a few tiles' temporaries stay far below the n x n matrix itself
_TILE = 256


@dataclass(frozen=True, eq=False)
class DiscretizedProblem:
    """Grid plus the symmetrized covariance matrix on its nodes."""

    grid: Grid
    matrix: np.ndarray


def discretize(kernel, grid):
    """Covariance matrix of the kernel on the grid nodes, exactly symmetric.

    Stationary kernels take the n values Gamma(t - t[0]) on the uniform grid
    and expand them to the symmetric Toeplitz matrix.  Other kernels fill
    one n x n matrix from square tiles of _TILE x _TILE nodes on or above
    the diagonal: each tile is written in place and mirrored below the
    diagonal, and a diagonal tile is first averaged with its transpose, so
    the matrix is exactly symmetric and no other n x n array is made.  For
    a kernel with cov(s, t) == cov(t, s), every entry equals the average
    0.5 * (cov(s, t) + cov(t, s)).  A matrix with non-finite entries (the
    kernel overflows at the grid's scale) raises DegenerateKernelError.
    """
    t = grid.nodes
    overflow = f"covariance overflows on the grid over [{t[0]}, {t[-1]}]"
    if kernel.stationary:
        lags = finite_values(
            lambda: np.asarray(kernel.gamma(t - t[0]), dtype=float), overflow
        )
        # row i of the reversed windows over (c_{n-1}, ..., c_1, c_0, ..., c_{n-1})
        # is c_{|i - j|}, j = 0..n-1
        both = np.concatenate((lags[:0:-1], lags))
        matrix = np.ascontiguousarray(sliding_window_view(both, t.size)[::-1])
    else:

        def tiled():
            matrix = np.empty((t.size, t.size))
            for r0 in range(0, t.size, _TILE):
                rows = slice(r0, r0 + _TILE)
                for c0 in range(r0, t.size, _TILE):
                    cols = slice(c0, c0 + _TILE)
                    tile = np.asarray(kernel.cov(t[rows, None], t[None, cols]), dtype=float)
                    if c0 == r0:
                        # variances bound the other entries, so when any is
                        # past half the float range this average overflows
                        tile = 0.5 * (tile + tile.T)
                    matrix[rows, cols] = tile
                    matrix[cols, rows] = tile.T
            return matrix

        matrix = finite_values(tiled, overflow)
    matrix.flags.writeable = False
    return DiscretizedProblem(grid=grid, matrix=matrix)


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


def solve(problem, tol=1e-9, max_iter=200_000):
    """Primal active-set rounds from the best vertex.

    The start is the node with the smallest variance (lowest index on
    ties).  A round adds nodes to the support and moves to the minimizer
    of the energy on the face they span (see _face_minimum).  Normally it
    adds every node whose gradient entry lies below lam = <g, w> and is a
    local minimum of g along the grid.  After a round that did not lower
    the energy it adds only argmin g, Lawson and Hanson's single step,
    which lowers it whenever the gap is positive.  In exact arithmetic
    every round lowers the energy, so no face repeats; in floating point a
    round near the optimum can raise it at rounding level, and a
    single-node round that leaves the weights unchanged ends the loop.
    Each round counts as one iteration and adds one entry to energy_trace.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    M = problem.matrix
    start = int(np.argmin(np.diagonal(M)))
    w = np.zeros(M.shape[0])
    w[start] = 1.0
    # M is symmetric, so its contiguous rows serve as columns
    g = 2.0 * M[start]
    energy = float(M[start, start])
    trace = [energy]

    iterations = 0
    single = False
    converged = False
    while iterations < max_iter:
        lam = float(w @ g)
        s = int(np.argmin(g))
        if lam - float(g[s]) <= tol:
            converged = True
            break
        iterations += 1
        if single:
            added = [s]
        else:
            local = (g <= np.r_[np.inf, g[:-1]]) & (g <= np.r_[g[1:], np.inf])
            added = np.flatnonzero(local & (g < lam))
        face, x = _face_minimum(M, np.union1d(np.flatnonzero(w), added), w)
        trial = np.zeros_like(w)
        trial[face] = x
        g = 2.0 * (x @ M[face])
        trial_energy = 0.5 * float(x @ g[face])
        # a single-node round that changes nothing would repeat forever
        stalled = single and np.array_equal(trial, w)
        single = not trial_energy < energy
        w, energy = trial, trial_energy
        trace.append(energy)
        if stalled:
            break

    # fresh certificate for the returned iterate
    g = 2.0 * (M @ w)
    final_energy = 0.5 * float(w @ g)
    final_gap = float(w @ g) - float(np.min(g))
    if not converged:
        converged = final_gap <= tol
    w.flags.writeable = False
    return SolverResult(
        weights=w,
        energy=final_energy,
        equilibrium_gap=final_gap,
        iterations=iterations,
        converged=converged,
        energy_trace=np.asarray(trace),
    )


def _face_minimum(M, face, w):
    """Minimize the energy over the simplex face spanned by the nodes in face.

    Starts from w, a probability vector supported inside face (nodes just
    added carry weight 0).  Solves M_SS x = c 1, sum x = 1 on S = face
    (least squares when the system is singular); if some x_i <= 0, it moves
    from the current weights toward x up to the first weight that reaches
    zero (a ratio test), drops that node and every other node left at zero
    with x_i <= 0, and solves again.  Returns the final face and its
    weights, summing to one: x once it is positive, or the current weights
    if the system yields non-finite values.
    """
    cur = w[face]
    while True:
        k = face.size
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = M[np.ix_(face, face)]
        kkt[k, k] = 0.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            x = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            x = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        if not np.all(np.isfinite(x)):
            break
        if np.all(x > 0.0):
            cur = x
            break
        blocking = np.flatnonzero(x <= 0.0)
        c = cur[blocking]
        # a node at zero blocks at once; the quotient there would be 0/0
        ratios = np.divide(c, c - x[blocking], out=np.zeros_like(c), where=c > 0.0)
        first = int(np.argmin(ratios))
        cur = cur + ratios[first] * (x - cur)
        cur[blocking[first]] = 0.0
        keep = (x > 0.0) | (cur > 0.0)
        face, cur = face[keep], cur[keep]
    return face, cur / cur.sum()


def extract_measure(result, grid, prune=1e-4):
    """Turn solver weights into a sparse measure.

    Nodes with weight <= prune are dropped and the survivors, renormalized,
    are the atoms, one per node, so the measure's energy is the solver's
    up to the pruned mass.  prune must lie in [0, 0.01]; pruning everything
    raises EmptyMeasureError.
    """
    if not 0.0 <= prune <= 0.01:
        raise ValueError(f"prune must lie in [0, 0.01], got {prune}")
    w = np.asarray(result.weights, dtype=float)
    keep = np.flatnonzero(w > prune)
    if keep.size == 0:
        raise EmptyMeasureError("every node weight fell at or below the threshold")
    return DiscreteMeasure(grid.nodes[keep], w[keep] / np.sum(w[keep]))
