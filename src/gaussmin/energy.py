"""Covariance energy of a measure and the equilibrium optimality check.

For a centered Gaussian process with covariance R and a probability
measure mu on [a, b], the energy is the double integral of R against
mu x mu.  A measure minimizes the energy over all probability measures
on [a, b] exactly when its potential

    phi(t) = integral R(s, t) mu(ds)

equals the energy on the support of mu and is nowhere smaller on [a, b].
The minimal energy sigma*^2 fixes the tail decay rate -1 / (2 sigma*^2)
of the probability that the process stays above a high level u on [a, b].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _threads
from .kernels import finite_values
from .measures import Grid

__all__ = [
    "PotentialProfile",
    "OptimalityReport",
    "energy",
    "potential",
    "check_optimality",
    "rate",
]


def _support_energy(kernel, mu):
    """phi on the atoms, w @ C, and the energy (w @ C) @ w; a non-finite phi
    makes the energy non-finite, so either overflow reports the energy."""
    x, message = mu.locations, "energy of the measure overflows"
    phi = finite_values(lambda: mu.weights @ kernel.cov(x[:, None], x[None, :]), message)
    return phi, float(finite_values(lambda: phi @ mu.weights, message))


@_threads.one_blas_thread()
def energy(kernel, mu):
    """Double integral of the covariance against mu x mu."""
    return _support_energy(kernel, mu)[1]


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """Potential phi evaluated on every node of a grid."""

    grid: Grid
    values: np.ndarray


def potential(kernel, mu, grid):
    """phi(t) = sum_j w_j R(x_j, t) on the grid nodes."""
    values = finite_values(
        lambda: mu.weights @ kernel.cov(mu.locations[:, None], grid.nodes[None, :]),
        "potential of the measure overflows",
    )
    values.flags.writeable = False
    return PotentialProfile(grid, values)


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the equilibrium check for a candidate measure.

    support_deviation: max |phi(atom) - energy| over the atoms.
    global_slack: min_grid phi - energy; negative means some grid node
    undercuts the candidate energy, i.e. the measure is not optimal.
    potential: phi on every grid node, the profile the check read.
    """

    energy: float
    min_potential: float
    argmin: float
    support_deviation: float
    global_slack: float
    tolerance: float
    passed: bool
    potential: PotentialProfile = field(repr=False, compare=False)


@_threads.one_blas_thread()
def check_optimality(kernel, mu, grid, tol=1e-8):
    """Equilibrium test: phi = energy on the support, phi >= energy on the grid.

    The energy is energy()'s, from the one evaluation of phi on the support.
    Runs on one OpenBLAS thread, so phi does not depend on GAUSSMIN_THREADS.
    tol must be positive and finite: an infinite one would pass any measure.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    on_support, e = _support_energy(kernel, mu)
    support_deviation = float(np.max(np.abs(on_support - e)))
    profile = potential(kernel, mu, grid)
    on_grid = profile.values
    k = int(np.argmin(on_grid))
    min_potential = float(on_grid[k])
    global_slack = min_potential - e
    passed = support_deviation <= tol and global_slack >= -tol
    return OptimalityReport(
        energy=e,
        min_potential=min_potential,
        argmin=float(grid.nodes[k]),
        support_deviation=support_deviation,
        global_slack=global_slack,
        tolerance=tol,
        passed=passed,
        potential=profile,
    )


def rate(sigma_sq):
    """Tail decay rate -1 / (2 sigma^2) of log P(min > u) / u^2."""
    if not sigma_sq > 0.0:
        raise ValueError(f"variance must be positive, got {sigma_sq}")
    return -1.0 / (2.0 * sigma_sq)


def _rate(sigma_sq):
    # sigma_sq = 0 (a measure on nodes where the process vanishes, such as
    # the origin for a pinned process) means P(min > u) = 0 for every u > 0
    return rate(sigma_sq) if sigma_sq > 0.0 else float("-inf")
