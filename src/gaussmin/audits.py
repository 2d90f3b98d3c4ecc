"""Sampled sign checks for the structural assumptions behind the closed forms.

Each closed-form optimal measure is valid under a structural hypothesis on
the kernel.  The audits here sample the relevant quantity, report the worst
margin found together with a witness point, and say whether the hypothesis
survives.  They are evidence, not proofs: a pass means no violation was
found at the sampled points.

Sign conventions per audit:

* nonneg increments -- worst_violation is the smallest sampled increment
  covariance; pass needs >= -1e-12.
* increment monotone -- worst_violation is the smallest sampled f'; pass
  needs strictly positive (a flat derivative fails, with a degeneracy note).
* first case -- worst_violation is the LARGEST sampled f''(t) + f''(t - b);
  pass needs strictly negative.
* second case -- pass needs a positive center weight ratio and at most one
  forward-difference sign change of gamma(t) + cstar*Gamma(h-t) + Gamma(2h-t)
  on (0, h), which must run positive-then-negative; worst_violation is the
  center weight ratio when the shape is right and -(number of offending
  changes) when it is not.
* converse -- worst_violation is the smallest R(a, t) - R(a, a); pass
  needs >= -1e-12.  Requires a process pinned at the origin.

All reports are bit-for-bit deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, PinnedOriginError
from .measures import c_star

__all__ = [
    "AssumptionReport",
    "audit_nonneg_increments",
    "audit_increment_monotone",
    "audit_first_case",
    "audit_second_case",
    "audit_converse",
]

SIGN_TOL = 1e-12


@dataclass(frozen=True)
class AssumptionReport:
    name: str
    passed: bool
    worst_violation: float
    witness: tuple
    samples: int
    seed: int | None
    note: str = ""

    def rows(self):
        """Flat key-value pairs for report rendering."""
        return [
            ("audit", self.name),
            ("passed", self.passed),
            ("worst_violation", self.worst_violation),
            ("witness", ";".join(format(x, ".17g") for x in self.witness)),
            ("samples", self.samples),
            ("seed", "" if self.seed is None else self.seed),
            ("note", self.note),
        ]


def audit_nonneg_increments(kernel, a, b, samples=10_000, seed=0):
    """Check E[(X(t1)-X(s1))(X(t2)-X(s2))] >= 0 on ordered quadruples in [a, b]."""
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    q = np.sort(rng.uniform(a, b, size=(samples, 4)), axis=1)
    s1, t1, s2, t2 = q.T
    value = (
        kernel.cov(t1, t2) - kernel.cov(t1, s2) - kernel.cov(s1, t2) + kernel.cov(s1, s2)
    )
    k = int(np.argmin(value))
    worst = float(value[k])
    return AssumptionReport(
        name="nonneg_increments",
        passed=worst >= -SIGN_TOL,
        worst_violation=worst,
        witness=tuple(q[k]),
        samples=samples,
        seed=seed,
    )


def audit_increment_monotone(kernel, t_range=None, samples=10_000, seed=0):
    """Check f' > 0 strictly at sampled points away from the singular set."""
    if samples < 1:
        raise ValueError("samples must be positive")
    h = kernel.h
    if t_range is None:
        t_range = (-4.0 * h, 4.0 * h)
    lo, hi = t_range
    if not hi > lo:
        raise ValueError(f"empty sampling range {t_range}")
    if not np.isfinite(hi - lo):
        raise DegenerateKernelError(f"sampling range {t_range} overflows")
    rng = np.random.default_rng(seed)
    t = rng.uniform(lo, hi, size=samples)
    t = t[(np.abs(t) > 1e-9 * h) & (np.abs(t + h) > 1e-9 * h)]
    d1 = kernel.increment_d1(t)
    k = int(np.argmin(d1))
    worst = float(d1[k])
    note = ""
    if worst == 0.0:
        note = "derivative vanishes at the worst point: degenerate flat case"
    return AssumptionReport(
        name="increment_monotone",
        passed=worst > 0.0,
        worst_violation=worst,
        witness=(float(t[k]),),
        samples=samples,
        seed=seed,
        note=note,
    )


def audit_first_case(kernel, b_samples=11, t_samples=400, t_max=None):
    """Check f''(t) + f''(t - b) < 0 for b in (0, h), t in (0, t_max).

    Deterministic grids: b runs over b_samples points spanning (0, h) with
    the endpoints pulled in by one spacing; for each b the t grid drops the
    one-step neighborhoods of the singular points {0, b}.
    """
    if b_samples < 1 or t_samples < 8:
        raise ValueError("need b_samples >= 1 and t_samples >= 8")
    h = kernel.h
    if t_max is None:
        t_max = 4.0 * h
    delta_b = h / (b_samples + 1)
    b_values = np.linspace(delta_b, h - delta_b, b_samples)
    t_nodes = np.linspace(0.0, t_max, t_samples)
    step = t_nodes[1] - t_nodes[0]

    worst = -np.inf
    witness = (np.nan, np.nan)
    flat = True
    for b in b_values:
        mask = (t_nodes > step) & (np.abs(t_nodes - b) > step)
        t = t_nodes[mask]
        total = kernel.increment_d2(t) + kernel.increment_d2(t - b)
        k = int(np.argmax(total))
        if float(total[k]) > worst:
            worst = float(total[k])
            witness = (float(b), float(t[k]))
        if np.any(total != 0.0):
            flat = False
    note = "second derivative vanishes everywhere sampled: degenerate flat case" if flat else ""
    return AssumptionReport(
        name="first_case",
        passed=worst < 0.0,
        worst_violation=worst,
        witness=witness,
        samples=b_samples * t_samples,
        seed=None,
        note=note,
    )


def audit_second_case(kernel, h, n=512):
    """Shape check for the three-point closed form on [0, 2h].

    Requires cstar > 0 and at most one sign change of the forward
    differences of gamma(t) = Gamma(t) + cstar Gamma(h-t) + Gamma(2h-t)
    on (0, h); a single change must run positive-then-negative (interior
    maximum).  Differences within 1e-12 of zero relative to the scale of
    gamma carry no sign.
    """
    if n < 8:
        raise ValueError("need at least 8 scan nodes")
    cstar = c_star(kernel, h)  # DegenerateKernelError propagates
    step = h / (n + 1)
    t = np.linspace(step, h - step, n)
    curve = kernel.gamma(t) + cstar * kernel.gamma(h - t) + kernel.gamma(2.0 * h - t)
    diffs = np.diff(curve)
    scale = max(1.0, float(np.max(np.abs(curve))))
    signs = np.sign(diffs)
    signs[np.abs(diffs) <= SIGN_TOL * scale] = 0.0
    signs = signs[signs != 0.0]
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    count = int(flips.size)

    shape_ok = count == 0 or (count == 1 and signs[0] > 0.0 > signs[-1])
    passed = cstar > 0.0 and shape_ok
    if shape_ok:
        worst = cstar
    else:
        worst = -float(max(count - 1, 1))
    witness = (float(t[0]),) if count == 0 else (float(t[flips[0] + 1]),)
    return AssumptionReport(
        name="second_case",
        passed=passed,
        worst_violation=worst,
        witness=witness,
        samples=n,
        seed=None,
        note=f"cstar={cstar!r}; sign_changes={count}",
    )


def audit_converse(kernel, a, b, n=1001):
    """Necessary condition for the left-endpoint Dirac: R(a, t) >= R(a, a).

    Only meaningful for processes pinned to zero at the origin; stationary
    kernels raise PinnedOriginError.
    """
    if not b > a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if n < 2:
        raise ValueError("need at least 2 scan nodes")
    if not kernel.pinned_origin:
        raise PinnedOriginError(
            f"{type(kernel).__name__} is not pinned at the origin; "
            "the endpoint-Dirac converse check does not apply"
        )
    t = np.linspace(a, b, n)
    margin = kernel.cov(np.full_like(t, a), t) - kernel.cov(a, a)
    k = int(np.argmin(margin))
    worst = float(margin[k])
    return AssumptionReport(
        name="converse",
        passed=worst >= -SIGN_TOL,
        worst_violation=worst,
        witness=(float(t[k]),),
        samples=n,
        seed=None,
    )
