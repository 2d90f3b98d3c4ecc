"""Independent oracles the tests compare against.

Nothing here reuses the library's energy, solver, or sampling code: the
Brownian tail oracles are one-dimensional integrations built on the
reflection principle and the Markov property, the brute-force minimizer
is exhaustive search, and the NNLS minimizer is scipy's Lawson-Hanson
solver on a Cholesky factor.  Slow and obvious beats fast and shared.
"""

import itertools

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import nnls
from scipy.special import ndtr


def reflection_tail(a, b, u):
    """P(min over the continuous interval [a,b] of BM > u), exactly.

    Condition on X(a) = x: the path stays above u iff a Brownian bridge
    of length b-a started at x never hits u, which the reflection
    principle prices at 2*Phi((x-u)/sqrt(b-a)) - 1.
    """
    width = b - a

    def integrand(x):
        stay = 2.0 * ndtr((x - u) / np.sqrt(width)) - 1.0
        return np.exp(-x * x / (2.0 * a)) / np.sqrt(2.0 * np.pi * a) * stay

    value, _ = quad(integrand, u, np.inf, limit=200)
    return value


def discrete_min_tail(a, b, n, u, m=3001, width=12.0):
    """P(min over the n-point grid on [a,b] of BM > u) by quadrature.

    Propagates the sub-probability density of (X(t_i), all previous
    values > u) through the Gaussian transition kernel, trapezoid rule
    on [u, u+width].  The estimand matches what the sampler simulates:
    the grid minimum, not the continuous one.  u is one level (the
    result is a float) or a sequence of levels (an array).
    """
    levels = np.asarray(u, dtype=float)
    step = width / (m - 1)
    offsets = np.arange(m) * step
    wts = np.full(m, step)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    nodes = np.linspace(a, b, n)
    # one column of densities per level, on the points u + offsets
    x = np.atleast_1d(levels)[None, :] + offsets[:, None]
    rho = np.exp(-x * x / (2.0 * nodes[0])) / np.sqrt(2.0 * np.pi * nodes[0])
    # the grid is uniform and the transition density depends only on the
    # offset between points, so one matrix serves every step and level
    dt = nodes[1] - nodes[0]
    kern = np.exp(-((offsets[:, None] - offsets[None, :]) ** 2) / (2.0 * dt))
    kern /= np.sqrt(2.0 * np.pi * dt)
    kern = kern * wts[None, :]
    for _ in range(n - 1):
        rho = kern @ rho
    tail = wts @ rho
    return float(tail[0]) if levels.ndim == 0 else tail


def _weight_lattice(dim, step=0.01):
    """All nonnegative dim-vectors summing to 1 on the step lattice."""
    k = round(1.0 / step)
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        return np.array([(i / k, (k - i) / k) for i in range(k + 1)])
    return np.array(
        [
            (i / k, j / k, (k - i - j) / k)
            for i in range(k + 1)
            for j in range(k + 1 - i)
        ]
    )


def brute_force_min_energy(matrix, step=0.01):
    """Exhaustive minimum of w'Mw over measures with at most 3 atoms.

    Atoms range over the matrix's grid nodes; weights over the step
    lattice on the simplex.  Zero weights cover the smaller supports.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    dim = min(3, n)
    lattice = _weight_lattice(dim, step)
    best = np.inf
    for support in itertools.combinations(range(n), dim):
        sub = matrix[np.ix_(support, support)]
        energies = np.einsum("wi,ij,wj->w", lattice, sub, lattice)
        low = float(energies.min())
        if low < best:
            best = low
    return best


def nnls_min_energy(matrix):
    """Minimum of w'Mw over the simplex for a positive definite M.

    With M = R'R (R upper triangular) and c = R^-T 1, |R v - c|^2 equals
    v'Mv - 2 sum(v) up to a constant.  Its minimizer v over v >= 0 meets
    M v >= 1 with equality on its support, so w = v / sum(v) meets the
    equilibrium condition with value 1 / sum(v), the minimum energy.
    """
    R = cholesky(np.asarray(matrix, dtype=float))
    c = solve_triangular(R, np.ones(R.shape[0]), trans="T")
    v, _ = nnls(R, c)
    return 1.0 / float(np.sum(v))
