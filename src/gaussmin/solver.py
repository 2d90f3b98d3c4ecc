"""Pairwise Frank-Wolfe minimization of the covariance energy on the simplex.

Discretizing the interval turns the measure problem into the quadratic
program

    minimize  w' M w   over the probability simplex,

with M the covariance matrix on the grid nodes.  Iterates stay probability
vectors, and the stopping quantity

    equilibrium_gap = <g, w> - min_i g_i,      g = 2 M w

is exactly twice the violation of the equilibrium optimality condition,
so the certificate the solver reports is the quantity the theory pins down:
energy - optimum <= equilibrium_gap for every feasible iterate.

The solver starts at the best vertex (a Dirac measure at one node) and takes
pairwise steps, moving weight from the active node with the largest gradient
entry to the node with the smallest; unlike plain Frank-Wolfe this converges
linearly on the simplex (Lacoste-Julien & Jaggi, "On the Global Linear
Convergence of Frank-Wolfe Optimization Variants", NeurIPS 2015).  Every few
steps a polish solves the equilibrium system

    M_SS w = lam 1,   sum w = 1

on the active set S directly, so the iterate lands on the minimizer as soon
as the pairwise steps have found its support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyMeasureError
from .kernels import finite_values
from .measures import DiscreteMeasure, Grid

__all__ = ["DiscretizedProblem", "SolverResult", "discretize", "solve", "extract_measure"]

# refresh the maintained gradient to cap floating-point drift on long runs
_REFRESH_EVERY = 8192
# a polish follows at least this many iterations, and at least as many as the
# support has nodes, so its O(k^3) solve costs O(k^2) per iteration
_POLISH_EVERY = 16


@dataclass(frozen=True, eq=False)
class DiscretizedProblem:
    """Grid plus the symmetrized covariance matrix on its nodes."""

    grid: Grid
    matrix: np.ndarray


def discretize(kernel, grid):
    """Covariance matrix of the kernel on the grid nodes, exactly symmetric.

    Stationary kernels take the n values Gamma(t - t[0]) on the uniform grid
    and expand them to the symmetric Toeplitz matrix; other kernels are
    evaluated on grid x grid and symmetrized at rounding level.  A matrix
    with non-finite entries (the kernel overflows at the grid's scale)
    raises DegenerateKernelError.
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

        def symmetrized():
            matrix = np.asarray(kernel.cov(t[:, None], t[None, :]), dtype=float)
            return 0.5 * (matrix + matrix.T)

        matrix = finite_values(symmetrized, overflow)
    matrix.flags.writeable = False
    return DiscretizedProblem(grid=grid, matrix=matrix)


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Final iterate with its optimality certificate.

    converged is True exactly when equilibrium_gap <= the requested
    tolerance; hitting max_iter first leaves converged False and the
    caller decides what to do with the (still feasible) weights.
    energy_trace is populated only when solve(..., history=True).
    """

    weights: np.ndarray
    energy: float
    equilibrium_gap: float
    iterations: int
    converged: bool
    energy_trace: np.ndarray | None = None


def solve(problem, tol=1e-9, max_iter=200_000, history=False):
    """Pairwise Frank-Wolfe with an active-set polish, from the best vertex.

    The start is the node with the smallest variance (lowest index on
    ties).  A pairwise step moves weight from the active node with the
    largest gradient entry to the node with the smallest (lowest index on
    ties), with the exact minimizing step clamped to the donor's weight.
    Every so often a polish replaces the pairwise step (see _polish and
    _POLISH_EVERY).  Both kinds count as one iteration, and the energy
    never increases from one iteration to the next.
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
    trace = [energy] if history else None

    iterations = 0
    since_polish = 0
    converged = False
    while iterations < max_iter:
        s = int(np.argmin(g))
        gap = float(w @ g) - float(g[s])
        if gap <= tol:
            converged = True
            break
        iterations += 1
        since_polish += 1
        if since_polish >= max(_POLISH_EVERY, np.count_nonzero(w)):
            energy, g = _polish(M, w, g, energy)
            since_polish = 0
        else:
            energy = _pairwise_step(M, w, g, energy, s)
        if trace is not None:
            trace.append(energy)
        if iterations % _REFRESH_EVERY == 0:
            g = 2.0 * (M @ w)

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
        energy_trace=None if trace is None else np.asarray(trace),
    )


def _pairwise_step(M, w, g, energy, s):
    """Move weight from the worst active node to node s, in place.

    Along d = e_s - e_v the energy changes by step * (step * curvature - slope)
    with slope = g_v - g_s and curvature = d'Md; the exact minimizer is
    clamped to w_v, and a donor emptied by the clamp leaves the active set.
    Returns the new energy.
    """
    active = np.flatnonzero(w)
    v = int(active[np.argmax(g[active])])
    slope = float(g[v]) - float(g[s])
    if slope <= 0.0:
        # slope >= gap > tol, so only rounding in g can land here
        return energy
    curvature = float(M[s, s]) + float(M[v, v]) - 2.0 * float(M[s, v])
    donor = float(w[v])
    step = donor if curvature <= 0.0 else min(donor, slope / (2.0 * curvature))
    energy += step * (step * curvature - slope)
    w[s] += step
    w[v] = 0.0 if step == donor else donor - step
    g += (2.0 * step) * (M[s] - M[v])
    return energy


def _polish(M, w, g, energy):
    """Move toward the equilibrium solution on the support, in place.

    Solves M_SS x = lam 1, sum x = 1 on the support S of w (least squares
    when the system is singular) and moves from w toward x, stopping where
    the first weight reaches zero.  The move is kept only if the energy does
    not rise.  Returns the energy and the gradient of the resulting iterate.
    """
    support = np.flatnonzero(w)
    k = support.size
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = M[np.ix_(support, support)]
    kkt[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        target = np.linalg.solve(kkt, rhs)[:k]
    except np.linalg.LinAlgError:
        target = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    current = w[support]
    direction = target - current
    if not np.all(np.isfinite(direction)):
        return energy, g
    shrinking = np.flatnonzero(direction < 0.0)
    trial = target
    if shrinking.size:
        ratios = current[shrinking] / -direction[shrinking]
        first = int(np.argmin(ratios))
        if ratios[first] < 1.0:
            trial = current + ratios[first] * direction
            trial[shrinking[first]] = 0.0
    # clear rounding below zero and keep the weights on the simplex
    trial = np.maximum(trial, 0.0)
    trial /= trial.sum()
    trial_g = 2.0 * (trial @ M[support])
    trial_energy = 0.5 * float(trial @ trial_g[support])
    if not trial_energy <= energy:
        return energy, g
    w[support] = trial
    return trial_energy, trial_g


def extract_measure(result, grid, prune=1e-4):
    """Turn solver weights into a sparse measure.

    Nodes with weight <= prune are dropped, the survivors are renormalized,
    and runs of grid-adjacent survivors collapse to a single atom at their
    weight-weighted centroid.  prune must lie in [0, 0.01]; pruning
    everything raises EmptyMeasureError.
    """
    if not 0.0 <= prune <= 0.01:
        raise ValueError(f"prune must lie in [0, 0.01], got {prune}")
    w = np.asarray(result.weights, dtype=float)
    nodes = grid.nodes
    keep = np.flatnonzero(w > prune)
    if keep.size == 0:
        raise EmptyMeasureError("every node weight fell at or below the threshold")
    w = w[keep] / np.sum(w[keep])

    locations, weights = [], []
    run_w = w[0]
    run_x = nodes[keep[0]] * w[0]
    for prev, idx, wx in zip(keep[:-1], keep[1:], w[1:]):
        if idx - prev == 1:
            run_w += wx
            run_x += nodes[idx] * wx
        else:
            locations.append(run_x / run_w)
            weights.append(run_w)
            run_w = wx
            run_x = nodes[idx] * wx
    locations.append(run_x / run_w)
    weights.append(run_w)
    return DiscreteMeasure(np.array(locations), np.array(weights))
