"""Probability measures with finite support, and the closed-form candidates.

The optimization domain is the set of Borel probability measures on an
interval [a, b]; everything this package manipulates concretely is a finite
atomic measure.  Three closed-form families arise:

* ``dirac(a)`` -- all mass at the left endpoint,
* ``two_point(a, b)`` -- half the mass at each endpoint,
* ``three_point(a, h, cstar)`` -- endpoints plus a center atom at a + h
  with relative weight cstar.

``c_star`` computes the center-to-endpoint weight ratio from the stationary
autocovariance:  cstar = 1 + (Gamma(h) - Gamma(2h)) / (Gamma(h) - Gamma(0)).
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AssumptionError,
    ConfigError,
    DegenerateKernelError,
    EmptyMeasureError,
    GridError,
    IntervalError,
)
from .kernels import finite_values

__all__ = [
    "Grid",
    "DiscreteMeasure",
    "dirac",
    "two_point",
    "three_point",
    "c_star",
    "save_measure",
    "load_measure",
]

# atoms closer than this fraction of the support span are one atom
MERGE_REL_TOL = 1e-12
# weights at or below this are numerical dust
PRUNE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n >= 2 nodes on [a, b], endpoints included."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise GridError(f"grid needs a < b, got [{self.a}, {self.b}]")
        if self.n < 2:
            raise GridError(f"grid needs at least 2 nodes, got {self.n}")

    @cached_property
    def nodes(self):
        try:
            nodes = np.linspace(self.a, self.b, self.n)
        except ValueError as exc:
            # past numpy's maximum array size; smaller sizes numpy cannot
            # allocate already raise MemoryError
            raise MemoryError(f"cannot allocate a grid of {self.n} nodes: {exc}") from exc
        nodes.flags.writeable = False
        return nodes

    @property
    def step(self):
        return (self.b - self.a) / (self.n - 1)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure.

    The constructor sorts atoms, merges locations closer than
    1e-12 * span at their weight-weighted centroid, prunes weights at or
    below 1e-12, requires the remaining weights to sum to one within 1e-12,
    and renormalizes them exactly.
    """

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.locations, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if loc.ndim != 1 or loc.shape != w.shape:
            raise ValueError("locations and weights must be 1-D and equal length")
        if loc.size == 0:
            raise EmptyMeasureError("measure needs at least one atom")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(w))):
            raise ValueError("atoms must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")

        order = np.argsort(loc, kind="stable")
        loc, w = loc[order], w[order]

        span = loc[-1] - loc[0]
        tol = MERGE_REL_TOL * span
        # with no adjacent pair this close the loop would change nothing
        if np.any(np.diff(loc) <= tol):
            merged_loc, merged_w = [], []
            for x, wx in zip(loc, w):
                if merged_loc and x - merged_loc[-1] <= tol:
                    tot = merged_w[-1] + wx
                    if tot > 0.0:
                        merged_loc[-1] = (merged_loc[-1] * merged_w[-1] + x * wx) / tot
                    merged_w[-1] = tot
                else:
                    merged_loc.append(x)
                    merged_w.append(wx)
            loc = np.array(merged_loc)
            w = np.array(merged_w)

        keep = w > PRUNE_TOL
        loc, w = loc[keep], w[keep]
        if loc.size == 0:
            raise EmptyMeasureError("all weights fell below the pruning threshold")

        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        w = w / total

        loc.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.locations.size

    def __repr__(self):
        atoms = ", ".join(
            f"{x:g}:{w:g}" for x, w in zip(self.locations, self.weights)
        )
        return f"DiscreteMeasure({atoms})"


def dirac(a):
    """Unit mass at a."""
    return DiscreteMeasure(np.array([a]), np.array([1.0]))


def two_point(a, b):
    """Half the mass at each endpoint of [a, b]."""
    if not b > a:
        raise IntervalError(f"two_point needs a < b, got [{a}, {b}]")
    return DiscreteMeasure(np.array([a, b]), np.array([0.5, 0.5]))


def three_point(a, h, cstar):
    """Atoms at a, a+h, a+2h with weights (1, cstar, 1) / (2 + cstar)."""
    if not h > 0.0:
        raise IntervalError(f"three_point needs h > 0, got {h}")
    if not cstar > 0.0:
        raise AssumptionError(
            f"three_point needs a positive center weight ratio, got {cstar}"
        )
    scale = 1.0 / (2.0 + cstar)
    return DiscreteMeasure(
        np.array([a, a + h, a + 2.0 * h]),
        np.array([scale, cstar * scale, scale]),
    )


def c_star(kernel, h):
    """Center-to-endpoint weight ratio of the optimal three-point measure.

        cstar = 1 + (Gamma(h) - Gamma(2h)) / (Gamma(h) - Gamma(0))

    Requires a stationary kernel; a kernel with Gamma(h) = Gamma(0) leaves
    the ratio undefined and raises DegenerateKernelError.
    """
    g0, gh, g2h = finite_values(
        lambda: (kernel.gamma(0.0), kernel.gamma(h), kernel.gamma(2.0 * h)),
        f"autocovariance overflows at lag {h} or {2.0 * h}",
    )
    den = gh - g0
    if den == 0.0:
        raise DegenerateKernelError(
            "Gamma(h) equals Gamma(0); center weight ratio is undefined"
        )
    value = 1.0 + (gh - g2h) / den
    if not np.isfinite(value):
        raise DegenerateKernelError(f"center weight ratio is not finite: {value}")
    return float(value)


def _atomic_write_text(path, text):
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_measure(mu, path):
    """Write location,weight CSV rows with 17 significant digits."""
    rows = zip(mu.locations.tolist(), mu.weights.tolist())
    lines = ["location,weight"] + [f"{x:.17g},{w:.17g}" for x, w in rows]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_measure(path):
    """Read a measure CSV written by :func:`save_measure`.

    Any structural defect (missing header, bad arity, non-numeric field,
    weights that do not form a probability vector) raises ConfigError.
    """
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read measure file {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["location", "weight"]:
        raise ConfigError(f"{path}: expected header 'location,weight'")
    locs, weights = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ConfigError(f"{path}:{lineno}: expected two fields, got {len(row)}")
        try:
            locs.append(float(row[0]))
            weights.append(float(row[1]))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric field") from exc
    try:
        return DiscreteMeasure(np.array(locs), np.array(weights))
    except (ValueError, EmptyMeasureError) as exc:
        raise ConfigError(f"{path}: invalid measure: {exc}") from exc
