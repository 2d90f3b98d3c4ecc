"""Covariance kernels for centered Gaussian processes on the half line.

The catalogue is three classes and two constructors:

* ``FractionalBM(H)``           fractional Brownian motion, Hurst index H in
  (0, 1): R(s, t) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2
* ``IncrementOf(base, h)``      stationary lag-h increments of a
  ``FractionalBM`` base, via the base variance
* ``Tabulated(nodes, matrix)``  kernels known only numerically on a grid
* ``BrownianMotion()``          returns ``FractionalBM(0.5)``,
  R(s, t) = min(s, t)
* ``FractionalGaussianNoise(H, h)``  returns
  ``IncrementOf(FractionalBM(H), h)``, the lag-h fractional Gaussian noise
  Gamma(tau) = (|tau-h|^{2H} - 2|tau|^{2H} + |tau+h|^{2H}) / 2

Increment kernels expose the one-sided function f(t) = V(t+h) - V(t), where
V is the even extension of the base variance function.  The stationary
covariance then decomposes as Gamma(t - s) = (f(t-s) + f(s-t)) / 2, which is
what the structural audits differentiate and sign-check.

Examples
--------
>>> k = FractionalGaussianNoise(H=0.75, h=1.0)
>>> k == IncrementOf(FractionalBM(0.75), 1.0)
True
>>> round(k.gamma(1.0), 6)
0.414214
>>> BrownianMotion().cov(1.0, 2.0)
1.0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateKernelError,
    DomainError,
    FactorizationError,
    GridError,
    SingularityError,
    StationarityError,
)

__all__ = [
    "Kernel",
    "BrownianMotion",
    "FractionalBM",
    "FractionalGaussianNoise",
    "IncrementOf",
    "Tabulated",
    "decomposition_residual",
]


def _astuple(x):
    """Return (array, was_scalar) for array_like input."""
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def _check_nonnegative(*arrays):
    for arr in arrays:
        if np.any(arr < 0.0):
            raise DomainError("process is defined for nonnegative times only")


def _power_d1(t, h, H):
    # d/dt (|t+h|^{2H} - |t|^{2H}); singular at t in {0, -h} when 2H < 1,
    # and treated as singular there for every H (kinks/removable points).
    e = 2.0 * H - 1.0
    return 2.0 * H * (
        np.sign(t + h) * np.abs(t + h) ** e - np.sign(t) * np.abs(t) ** e
    )


def _power_d2(t, h, H):
    e = 2.0 * H - 2.0
    return 2.0 * H * (2.0 * H - 1.0) * (np.abs(t + h) ** e - np.abs(t) ** e)


def _check_not_singular(t, h):
    if np.any(t == 0.0) or np.any(t == -h):
        raise SingularityError(
            f"derivative of the increment function is singular at t in {{0, {-h}}}"
        )


def finite_values(compute, message):
    """Return compute() after checking that every value is finite.

    A kernel evaluated beyond the float range gives inf and nan, and
    comparisons against nan would silently decide audits and certificates.
    numpy's overflow warnings are silenced inside compute, and a non-finite
    value raises DegenerateKernelError(message) instead, once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if not np.isfinite(values).all():
        raise DegenerateKernelError(message)
    return values


class Kernel:
    """Base class. Subclasses provide cov(); stationary ones also gamma()."""

    stationary = False
    # True when the process is pinned to 0 at the origin
    pinned_origin = False

    def cov(self, s, t):
        raise NotImplementedError

    def gamma(self, tau):
        raise StationarityError(f"{type(self).__name__} is not stationary")

    def variance(self, t):
        """E[X(t)^2] along the diagonal."""
        s, scalar = _astuple(t)
        return _ret(np.asarray(self.cov(s, s)), scalar)


@dataclass(frozen=True)
class FractionalBM(Kernel):
    """Fractional Brownian motion with Hurst index H in (0, 1).

    R(s, t) = (t^{2H} + s^{2H} - |t - s|^{2H}) / 2 for s, t >= 0.  The
    process is pinned at zero, self-similar, and has stationary increments.
    H = 1/2 is Brownian motion, and its covariance is computed as min(s, t)
    so that it is exact rather than a difference of rounded powers.
    """

    H: float

    pinned_origin = True

    def __post_init__(self):
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {self.H}")

    def cov(self, s, t):
        s, sc1 = _astuple(s)
        t, sc2 = _astuple(t)
        _check_nonnegative(s, t)
        if self.H == 0.5:
            out = np.minimum(s, t)
        else:
            e = 2.0 * self.H
            out = 0.5 * (s**e + t**e - np.abs(s - t) ** e)
        return _ret(np.asarray(out), sc1 and sc2)

    def variance(self, t):
        t, scalar = _astuple(t)
        _check_nonnegative(t)
        return _ret(np.abs(t) ** (2.0 * self.H), scalar)


@dataclass(frozen=True)
class IncrementOf(Kernel):
    """Stationary kernel of X(t) = Y(t + h) - Y(t) for an fBm base Y.

    The base must be a FractionalBM, which is pinned at the origin and has
    stationary increments; then with V the even extension of the base
    variance,

        Gamma(tau) = (V(tau - h) - 2 V(tau) + V(tau + h)) / 2
                   = (f(tau) + f(-tau)) / 2,      f(t) = V(t + h) - V(t).

    The derivatives of f are analytic,

        f'(t)  = 2H (sgn(t+h) |t+h|^{2H-1} - sgn(t) |t|^{2H-1})
        f''(t) = 2H (2H-1) (|t+h|^{2H-2} - |t|^{2H-2}),

    singular at t in {0, -h}, where evaluation raises
    :class:`SingularityError`.  Any other base raises
    :class:`StationarityError`: there is no finite-difference fallback.
    """

    base: Kernel
    h: float

    stationary = True

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"lag must be positive, got {self.h}")
        if not isinstance(self.base, FractionalBM):
            raise StationarityError(
                "IncrementOf requires a FractionalBM base, pinned at the origin "
                f"with stationary increments; {type(self.base).__name__} is not"
            )

    def _v(self, x):
        return self.base.variance(np.abs(x))

    def increment(self, t):
        t, scalar = _astuple(t)
        return _ret(self._v(t + self.h) - self._v(t), scalar)

    def gamma(self, tau):
        tau, scalar = _astuple(tau)
        out = 0.5 * (self._v(tau - self.h) - 2.0 * self._v(tau) + self._v(tau + self.h))
        return _ret(np.asarray(out), scalar)

    def cov(self, s, t):
        s, sc1 = _astuple(s)
        t, sc2 = _astuple(t)
        return _ret(np.asarray(self.gamma(t - s)), sc1 and sc2)

    def variance(self, t):
        t, scalar = _astuple(t)
        out = np.full_like(t, self.gamma(0.0))
        return _ret(out, scalar)

    def increment_d1(self, t):
        return self._derivative(t, _power_d1)

    def increment_d2(self, t):
        return self._derivative(t, _power_d2)

    def _derivative(self, t, power):
        t, scalar = _astuple(t)
        _check_not_singular(t, self.h)
        return _ret(power(t, self.h, self.base.H), scalar)


def BrownianMotion():
    """Standard Brownian motion, R(s, t) = min(s, t): ``FractionalBM(0.5)``."""
    return FractionalBM(0.5)


def FractionalGaussianNoise(H, h):
    """Lag-h fractional Gaussian noise: ``IncrementOf(FractionalBM(H), h)``.

    Gamma(tau) = (|tau - h|^{2H} - 2 |tau|^{2H} + |tau + h|^{2H}) / 2; H = 1/2
    gives the triangular autocovariance max(h - |tau|, 0).
    """
    return IncrementOf(FractionalBM(H), h)


class Tabulated(Kernel):
    """Kernel known only on a fixed grid of nodes.

    Queries must hit a node (within 1e-12 of the node span); anything else
    raises :class:`GridError`.  The matrix must be symmetric within 1e-12,
    and is stored as 0.5 * (M + M.T), so cov is exactly symmetric; it must
    also be positive semidefinite: an eigenvalue below -1e-12 * max(1, max|M|)
    raises :class:`FactorizationError`, since no Gaussian process has that
    covariance.  A table whose shift by that floor has a Cholesky factor is
    accepted without computing eigenvalues.
    """

    def __init__(self, nodes, matrix):
        nodes = np.asarray(getattr(nodes, "nodes", nodes), dtype=float)
        matrix = np.asarray(matrix, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1:
            raise GridError("tabulated nodes must form a nonempty 1-D array")
        if np.any(np.diff(nodes) <= 0.0):
            raise GridError("tabulated nodes must be strictly increasing")
        if matrix.shape != (nodes.size, nodes.size):
            raise GridError(
                f"matrix shape {matrix.shape} does not match {nodes.size} nodes"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("tabulated matrix contains non-finite entries")
        if np.max(np.abs(matrix - matrix.T), initial=0.0) > 1e-12:
            raise ValueError("tabulated matrix is not symmetric within 1e-12")
        if (matrix != matrix.T).any():
            # stored averaged, so cov(s, t) == cov(t, s) exactly and a
            # mirrored tile of discretize holds the average; an exactly
            # symmetric table is kept as given, huge entries included
            with np.errstate(over="ignore"):
                matrix = 0.5 * (matrix + matrix.T)
        floor = 1e-12 * max(1.0, float(np.max(np.abs(matrix))))
        # a Cholesky factor of M + floor * I accepts the table at a fraction
        # of the cost of its eigenvalues, which only a failure needs
        try:
            np.linalg.cholesky(matrix + floor * np.eye(nodes.size))
        except np.linalg.LinAlgError:
            smallest = float(np.linalg.eigvalsh(matrix)[0])
            if smallest < -floor:
                raise FactorizationError(
                    f"tabulated matrix is not positive semidefinite: eigenvalue {smallest!r}"
                ) from None
        self.nodes = nodes
        self.matrix = matrix
        span = nodes[-1] - nodes[0] if nodes.size > 1 else 1.0
        self._tol = 1e-12 * max(span, 1.0)

    def _index(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.clip(np.searchsorted(self.nodes, x), 0, self.nodes.size - 1)
        left = np.maximum(idx - 1, 0)
        idx = np.where(
            np.abs(x - self.nodes[left]) < np.abs(x - self.nodes[idx]), left, idx
        )
        if np.any(np.abs(x - self.nodes[idx]) > self._tol):
            bad = x[np.abs(x - self.nodes[idx]) > self._tol][0]
            raise GridError(f"query point {bad} is not a tabulated node")
        return idx

    def cov(self, s, t):
        s_arr, sc1 = _astuple(s)
        t_arr, sc2 = _astuple(t)
        s_b, t_b = np.broadcast_arrays(s_arr, t_arr)
        i = self._index(s_b.ravel()).reshape(s_b.shape)
        j = self._index(t_b.ravel()).reshape(t_b.shape)
        return _ret(self.matrix[i, j], sc1 and sc2)


def decomposition_residual(base, h, s, t):
    """Gap between the four-term increment covariance and its half-sum form.

    For Y pinned at the origin with stationary increments and
    X(t) = Y(t+h) - Y(t):

        E[X(s) X(t)] = R_Y(s+h, t+h) - R_Y(s, t+h) - R_Y(t, s+h) + R_Y(s, t)

    must equal (f(t-s) + f(s-t)) / 2.  Returns |difference|, which should
    sit at rounding level for every valid base.
    """
    inc = IncrementOf(base, h)
    four = (
        base.cov(s + h, t + h)
        - base.cov(s, t + h)
        - base.cov(t, s + h)
        + base.cov(s, t)
    )
    return abs(four - inc.gamma(t - s))
