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

import sys

# each submodule's __all__ is its public API; the star import makes
# gaussmin.energy the function, so the modules are read from sys.modules
from .energy import *  # noqa: F403
from .errors import *  # noqa: F403
from .kernels import *  # noqa: F403
from .measures import *  # noqa: F403
from .audits import *  # noqa: F403
from .solver import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .config import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = ("energy", "errors", "kernels", "measures", "audits", "solver", "montecarlo", "config")
__all__ = [name for m in _MODULES for name in sys.modules[f"{__name__}.{m}"].__all__]
__all__.append("__version__")
