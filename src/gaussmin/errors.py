"""Exception types raised across the package.

Every error below derives from :class:`GaussminError` so callers can catch
the package's failures with a single except clause while still being able
to distinguish the precise contract that was violated.
"""

__all__ = [
    "GaussminError",
    "DomainError",
    "StationarityError",
    "SingularityError",
    "GridError",
    "IntervalError",
    "AssumptionError",
    "DegenerateKernelError",
    "EmptyMeasureError",
    "PinnedOriginError",
    "FactorizationError",
    "ConfigError",
]


class GaussminError(Exception):
    """Base class for all gaussmin errors."""


class DomainError(GaussminError):
    """Kernel evaluated outside its domain (e.g. negative time for fBm)."""


class StationarityError(GaussminError):
    """Stationary-only operation applied to a nonstationary kernel."""


class SingularityError(GaussminError):
    """Analytic derivative evaluated at a singular point."""


class GridError(GaussminError):
    """Invalid grid, or tabulated kernel queried off its grid."""


class IntervalError(GaussminError):
    """Interval endpoints violate a constructor's requirements."""


class AssumptionError(GaussminError):
    """A structural assumption required by a closed form does not hold."""


class DegenerateKernelError(GaussminError):
    """Kernel degenerate for the requested construction (zero denominator)."""


class EmptyMeasureError(GaussminError):
    """All weights fell below the pruning threshold."""


class PinnedOriginError(GaussminError):
    """Operation requires a process pinned to zero at the left endpoint."""


class FactorizationError(GaussminError):
    """Covariance matrix could not be factorized even with maximal jitter."""


class ConfigError(GaussminError):
    """Malformed run configuration or input file."""
