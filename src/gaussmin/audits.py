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

``closed_form`` picks the template for a kernel and interval and runs only
the audit that template rests on; ``applicable_audits`` runs every audit
that speaks about the kernel type.

All reports are bit-for-bit deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, PinnedOriginError
from .kernels import IncrementOf, finite_values
from .measures import c_star, dirac, three_point, two_point

__all__ = [
    "AssumptionReport",
    "audit_nonneg_increments",
    "audit_increment_monotone",
    "audit_first_case",
    "audit_second_case",
    "audit_converse",
    "closed_form",
    "applicable_audits",
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
    value = finite_values(
        lambda: kernel.cov(t1, t2) - kernel.cov(t1, s2) - kernel.cov(s1, t2) + kernel.cov(s1, s2),
        f"increment covariance overflows on [{a}, {b}]",
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
    d1 = finite_values(
        lambda: kernel.increment_d1(t), f"f' overflows on the sampling range {t_range}"
    )
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
        total = finite_values(
            lambda: kernel.increment_d2(t) + kernel.increment_d2(t - b),
            f"f'' overflows on (0, {t_max})",
        )
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
    curve = finite_values(
        lambda: kernel.gamma(t) + cstar * kernel.gamma(h - t) + kernel.gamma(2.0 * h - t),
        f"three-point potential overflows on (0, {h})",
    )
    diffs = np.diff(curve)
    scale = max(1.0, float(np.max(np.abs(curve))))
    signs = np.sign(diffs)
    signs[np.abs(diffs) <= SIGN_TOL * scale] = 0.0
    # flips index the signed differences; kept maps them back to t
    kept = np.flatnonzero(signs)
    signs = signs[kept]
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    count = int(flips.size)

    shape_ok = count == 0 or (count == 1 and signs[0] > 0.0 > signs[-1])
    passed = bool(cstar > 0.0 and shape_ok)
    if shape_ok:
        worst = cstar
    else:
        worst = -float(max(count - 1, 1))
    witness = (float(t[0]),) if count == 0 else (float(t[kept[flips[0] + 1]]),)
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
    margin = finite_values(
        lambda: kernel.cov(np.full_like(t, a), t) - kernel.cov(a, a),
        f"covariance overflows on [{a}, {b}]",
    )
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


def closed_form(kernel, a, b, samples=10_000, seed=0):
    """Pick the closed-form minimizer of the energy on [a, b].

    Returns (name, measure) when a template applies and (None, reason)
    when none does; the reason is a printable sentence.  Only the audit the
    template rests on runs: nonneg_increments for the left endpoint of a
    pinned process, second_case for the three-point form at width 2h.

    >>> from gaussmin import FractionalGaussianNoise
    >>> name, mu = closed_form(FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0)
    >>> name, mu.locations.tolist(), round(float(mu.weights[1]), 6)
    ('three_point', [0.0, 1.0, 2.0], 0.273576)
    >>> closed_form(FractionalGaussianNoise(0.75, 1.0), 0.0, 1.5)[1]
    'interval width 1.5 is neither <= lag 1.0 nor equal to twice the lag'
    """
    if kernel.pinned_origin:
        if audit_nonneg_increments(kernel, a, b, samples=samples, seed=seed).passed:
            return "left_endpoint", dirac(a)
        return None, (
            "increment correlations go negative on the interval, so the "
            "left-endpoint measure is not guaranteed optimal"
        )
    if not isinstance(kernel, IncrementOf):
        return None, "no closed-form template covers this kernel type"
    h, width = kernel.h, b - a
    tol = 1e-12 * max(1.0, abs(a), abs(b), h)
    if width <= h + tol:
        return "two_point", two_point(a, b)
    if abs(width - 2.0 * h) > tol:
        return None, (
            f"interval width {width!r} is neither <= lag {h!r} nor equal to "
            f"twice the lag"
        )
    # a passing second_case has checked cstar > 0
    if not audit_second_case(kernel, h).passed:
        return None, (
            "the interior-weight potential audit failed, so the "
            "three-point template does not apply"
        )
    return "three_point", three_point(a, h, c_star(kernel, h))


def applicable_audits(kernel, a, b, samples=10_000, seed=0, b_samples=11):
    """Run every audit that speaks about the kernel type; returns the reports.

    Nonnegative increment correlation backs the left-endpoint form, so it is
    a hypothesis about pinned processes, not about increment kernels.
    """
    if kernel.pinned_origin:
        return [
            audit_nonneg_increments(kernel, a, b, samples=samples, seed=seed),
            audit_converse(kernel, a, b),
        ]
    if isinstance(kernel, IncrementOf):
        return [
            audit_increment_monotone(kernel, samples=samples, seed=seed),
            audit_first_case(kernel, b_samples=b_samples),
            audit_second_case(kernel, kernel.h),
        ]
    return []
