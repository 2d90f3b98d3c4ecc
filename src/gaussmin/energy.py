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

from dataclasses import dataclass

import numpy as np

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


def _potential_at(kernel, mu, points):
    points = np.asarray(points, dtype=float)
    return finite_values(
        lambda: mu.weights @ kernel.cov(mu.locations[:, None], points[None, :]),
        "potential of the measure overflows",
    )


def energy(kernel, mu):
    """Double integral of the covariance against mu x mu."""
    locations = mu.locations
    return float(finite_values(
        lambda: mu.weights @ kernel.cov(locations[:, None], locations[None, :]) @ mu.weights,
        "energy of the measure overflows",
    ))


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """Potential phi evaluated on every node of a grid."""

    grid: Grid
    values: np.ndarray


def potential(kernel, mu, grid):
    """phi(t) = sum_j w_j R(x_j, t) on the grid nodes."""
    values = _potential_at(kernel, mu, grid.nodes)
    values.flags.writeable = False
    return PotentialProfile(grid, values)


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of the equilibrium check for a candidate measure.

    support_deviation: max |phi(atom) - energy| over the atoms.
    global_slack: min_grid phi - energy; negative means some grid node
    undercuts the candidate energy, i.e. the measure is not optimal.
    """

    energy: float
    min_potential: float
    argmin: float
    support_deviation: float
    global_slack: float
    tolerance: float
    passed: bool


def check_optimality(kernel, mu, grid, tol=1e-8):
    """Equilibrium test: phi = energy on the support, phi >= energy on the grid."""
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    e = energy(kernel, mu)
    on_support = _potential_at(kernel, mu, mu.locations)
    support_deviation = float(np.max(np.abs(on_support - e)))
    on_grid = _potential_at(kernel, mu, grid.nodes)
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
