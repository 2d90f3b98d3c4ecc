"""Large-deviation decay rates for high minima of centered Gaussian processes.

The probability that such a process stays above a high level u on a
fixed interval decays like exp(-u^2 / (2 sigma*^2)), where sigma*^2 is
the minimum of the energy  integral of R d(mu x mu)  over probability
measures mu on the interval.  This package computes that constant three
independent ways and cross-checks them:

* closed-form minimizers for the catalogued kernels (``measures``,
  ``energy``),
* a discretized primal active-set solver with an equilibrium
  certificate (``solver``),
* crude Monte Carlo estimation of the tail itself, drawn from one
  seeded stream per fixed block of trials (``montecarlo``).

The covariance kernels (``kernels``) are three classes: ``FractionalBM``,
``IncrementOf`` (stationary lag-h increments of a pinned base) and
``Tabulated``.  ``BrownianMotion()`` and ``FractionalGaussianNoise(H, h)``
are constructors that return ``FractionalBM(0.5)`` and
``IncrementOf(FractionalBM(H), h)``.

``audits`` probes the structural assumptions behind each closed form and
holds the one template lookup, ``closed_form``; ``cli`` exposes everything
as the ``gaussmin`` command.
"""

from . import _threads  # noqa: F401  thread caps must precede the numpy import

from .energy import (
    OptimalityReport,
    PotentialProfile,
    check_optimality,
    energy,
    potential,
    rate,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DegenerateKernelError,
    DomainError,
    EmptyMeasureError,
    FactorizationError,
    GaussminError,
    GridError,
    IntervalError,
    PinnedOriginError,
    SingularityError,
    StationarityError,
)
from .kernels import (
    BrownianMotion,
    FractionalBM,
    FractionalGaussianNoise,
    IncrementOf,
    Kernel,
    Tabulated,
    decomposition_residual,
)
from .measures import (
    DiscreteMeasure,
    Grid,
    c_star,
    dirac,
    load_measure,
    save_measure,
    three_point,
    two_point,
)
from .audits import (
    AssumptionReport,
    audit_converse,
    audit_first_case,
    audit_increment_monotone,
    audit_nonneg_increments,
    audit_second_case,
    applicable_audits,
    closed_form,
)
from .solver import (
    DiscretizedProblem,
    SolverResult,
    discretize,
    extract_measure,
    solve,
)
from .montecarlo import (
    LdpEstimate,
    factorize,
    ldp_curve,
)
from .config import RunConfig, build_kernel, load_config

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "AssumptionReport",
    "BrownianMotion",
    "ConfigError",
    "DegenerateKernelError",
    "DiscreteMeasure",
    "DiscretizedProblem",
    "DomainError",
    "EmptyMeasureError",
    "FactorizationError",
    "FractionalBM",
    "FractionalGaussianNoise",
    "GaussminError",
    "Grid",
    "GridError",
    "IncrementOf",
    "IntervalError",
    "Kernel",
    "LdpEstimate",
    "OptimalityReport",
    "PinnedOriginError",
    "PotentialProfile",
    "RunConfig",
    "SingularityError",
    "SolverResult",
    "StationarityError",
    "Tabulated",
    "applicable_audits",
    "audit_converse",
    "audit_first_case",
    "audit_increment_monotone",
    "audit_nonneg_increments",
    "audit_second_case",
    "build_kernel",
    "c_star",
    "check_optimality",
    "closed_form",
    "decomposition_residual",
    "dirac",
    "discretize",
    "energy",
    "extract_measure",
    "factorize",
    "ldp_curve",
    "load_config",
    "load_measure",
    "potential",
    "rate",
    "save_measure",
    "solve",
    "three_point",
    "two_point",
    "__version__",
]
