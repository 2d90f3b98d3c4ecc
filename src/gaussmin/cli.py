"""Command line front end.

Subcommands:

    gaussmin rate        --config run.ini [--out DIR]
    gaussmin solve       --config run.ini [--out DIR]
    gaussmin verify      --config run.ini --measure m.csv [--tol T] [--out DIR]
    gaussmin assumptions --config run.ini [--out DIR]
    gaussmin simulate    --config run.ini [--out DIR]
    gaussmin figures     --config run.ini [--out DIR]

Every command prints a key-value summary to stdout and, when an output
directory is configured (--out wins over [output] dir), writes the same
summary plus CSV tables there.  Exit codes: 0 success, 2 a verification,
convergence, or assumption check failed, 3 no closed form applies to the
configured problem, 4 malformed input or a kernel the operation does not
apply to, 5 numerical failure (a covariance that cannot be factorized, a
degenerate kernel, or a solution pruned to nothing).  Code 2 still prints
the full summary.  Code 3 (from rate) prints nothing on stdout, only the
reason and a pointer to solve on stderr; 4 and 5 print a one-line message
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import audits
from .config import load_config
from .energy import _rate, check_optimality, energy, potential
from .errors import (
    ConfigError,
    DegenerateKernelError,
    EmptyMeasureError,
    FactorizationError,
    GaussminError,
)
from .kernels import IncrementOf
from .measures import Grid, c_star, load_measure, save_measure
from .montecarlo import ldp_curve
from .output import ensure_dir, render_pairs, write_csv, write_report, write_svg
from .solver import discretize, extract_measure, solve

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NO_CLOSED_FORM = 3
EXIT_BAD_INPUT = 4
EXIT_NUMERICAL = 5

_VERIFY_GRID_TOL = 1e-8

# failures of the computation itself; every other GaussminError is an input
# the operation does not accept
_NUMERICAL_ERRORS = (DegenerateKernelError, EmptyMeasureError, FactorizationError)


def _command_pairs(cfg, command):
    label = cfg.kernel_kind
    if cfg.kernel_params:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(cfg.kernel_params.items()))
        label = f"{label}({inner})"
    return [("command", command), ("kernel", label)]


def _interval_pairs(a, b):
    return [("interval_a", a), ("interval_b", b)]


def _measure_pairs(mu):
    return [
        ("atom_count", len(mu)),
        ("atom_locations", ";".join(repr(float(x)) for x in mu.locations)),
        ("atom_weights", ";".join(repr(float(w)) for w in mu.weights)),
    ]


def _emit(pairs, out_dir, stem):
    print(render_pairs(pairs))
    if out_dir:
        ensure_dir(out_dir)
        write_report(os.path.join(out_dir, stem + ".txt"), pairs)


def _certify(cfg, out_dir, command, mu, tol, head, tail):
    """Equilibrium-check mu on the configured grid and report it.

    The summary lists head after the kernel and tail after the interval;
    potential.csv goes to out_dir.
    """
    kernel = cfg.kernel
    a, b = cfg.interval()
    grid = Grid(a, b, cfg.n)
    report = check_optimality(kernel, mu, grid, tol=tol)
    pairs = (
        _command_pairs(cfg, command)
        + head
        + _interval_pairs(a, b)
        + tail
        + [("sigma_sq", report.energy), ("rate", _rate(report.energy))]
        + _measure_pairs(mu)
        + [
            ("energy", report.energy),
            ("min_potential", report.min_potential),
            ("argmin", report.argmin),
            ("support_deviation", report.support_deviation),
            ("global_slack", report.global_slack),
            ("tolerance", report.tolerance),
            ("verified", report.passed),
        ]
    )
    _emit(pairs, out_dir, command)
    if out_dir:
        prof = potential(kernel, mu, grid)
        write_csv(
            os.path.join(out_dir, "potential.csv"),
            ("t", "phi"),
            (prof.grid.nodes, prof.values),
        )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_rate(cfg, out_dir, args):
    a, b = cfg.interval()
    if cfg.kernel.pinned_origin and a <= 0.0:
        raise ConfigError(
            "a pinned-origin kernel needs a > 0; the exceedance event is "
            "degenerate when the interval touches the origin"
        )
    name, mu = audits.closed_form(cfg.kernel, a, b, cfg.audit_samples, cfg.audit_seed)
    if name is None:
        print(f"no applicable closed form: {mu}", file=sys.stderr)
        print("use 'gaussmin solve' for a numerical minimizer", file=sys.stderr)
        return EXIT_NO_CLOSED_FORM
    code = _certify(
        cfg, out_dir, "rate", mu, _VERIFY_GRID_TOL, [], [("closed_form", name)]
    )
    if out_dir:
        save_measure(mu, os.path.join(out_dir, "measure.csv"))
    return code


def cmd_solve(cfg, out_dir, args):
    kernel = cfg.kernel
    a, b = cfg.interval()
    grid = Grid(a, b, cfg.n)
    problem = discretize(kernel, grid)
    result = solve(problem, tol=cfg.tol, max_iter=cfg.max_iter)
    mu = extract_measure(result, grid, prune=cfg.prune)
    sigma_sq = result.energy
    pairs = (
        _command_pairs(cfg, "solve")
        + _interval_pairs(a, b)
        + [
            ("grid_n", cfg.n),
            ("sigma_sq", sigma_sq),
            ("rate", _rate(sigma_sq)),
            ("equilibrium_gap", result.equilibrium_gap),
            ("iterations", result.iterations),
            ("converged", result.converged),
            ("tolerance", cfg.tol),
            ("prune", cfg.prune),
        ]
        + _measure_pairs(mu)
    )
    _emit(pairs, out_dir, "solve")
    if out_dir:
        write_csv(
            os.path.join(out_dir, "solution.csv"),
            ("node", "weight"),
            (grid.nodes, result.weights),
        )
        save_measure(mu, os.path.join(out_dir, "measure.csv"))
    return EXIT_OK if result.converged else EXIT_CHECK_FAILED


def cmd_verify(cfg, out_dir, args):
    if not args.tol > 0.0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    a, b = cfg.interval()
    mu = load_measure(args.measure)
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    if np.any(mu.locations < a - slack) or np.any(mu.locations > b + slack):
        raise ConfigError(
            f"measure atoms fall outside the interval [{a}, {b}]"
        )
    head = [("measure_file", args.measure)]
    return _certify(cfg, out_dir, "verify", mu, args.tol, head, [])


def cmd_assumptions(cfg, out_dir, args):
    kernel = cfg.kernel
    a, b = cfg.interval()
    reports = audits.applicable_audits(
        kernel, a, b, cfg.audit_samples, cfg.audit_seed, cfg.b_samples
    )
    pairs = _command_pairs(cfg, "assumptions") + _interval_pairs(a, b)
    pairs.append(("applicable_audits", len(reports)))
    for rep in reports:
        pairs.extend(rep.rows())
    all_passed = all(rep.passed for rep in reports)
    pairs.append(("all_passed", all_passed))
    _emit(pairs, out_dir, "assumptions")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_simulate(cfg, out_dir, args):
    kernel = cfg.kernel
    a, b = cfg.interval()
    if cfg.u_list is None or cfg.trials is None:
        raise ConfigError("simulate needs [mc] u_list and trials")
    sigma_sq = cfg.mc_sigma_sq
    if sigma_sq is None:
        try:
            name, mu = audits.closed_form(kernel, a, b, cfg.audit_samples, cfg.audit_seed)
        except DegenerateKernelError:
            name = None
        if name is not None:
            sigma_sq = energy(kernel, mu)
    est = ldp_curve(kernel, (a, b), cfg.n, cfg.u_list, cfg.trials, seed=cfg.mc_seed)
    pairs = (
        _command_pairs(cfg, "simulate")
        + _interval_pairs(a, b)
        + [
            ("grid_n", cfg.n),
            ("trials", cfg.trials),
            ("seed", cfg.mc_seed),
            ("theoretical_rate", "" if sigma_sq is None else _rate(sigma_sq)),
            ("levels", ";".join(repr(float(x)) for x in est.u)),
            ("normalized_log_tail", ";".join(repr(float(x)) for x in est.log_p_over_u2)),
            ("flagged_levels", int(np.count_nonzero(est.flagged))),
        ]
    )
    _emit(pairs, out_dir, "simulate")
    if out_dir:
        write_csv(
            os.path.join(out_dir, "ldp.csv"),
            ("u", "trials", "hits", "p_hat", "log_p_over_u2", "ci_halfwidth", "flag"),
            (
                est.u,
                np.full(est.u.size, est.trials),
                est.hits,
                est.p_hat,
                est.log_p_over_u2,
                est.ci_halfwidth,
                est.flagged.astype(np.int64),
            ),
        )
        # a single level has no curve to draw
        if "svg" in cfg.formats and est.u.size >= 2:
            write_svg(
                os.path.join(out_dir, "ldp.svg"),
                est.u,
                est.log_p_over_u2,
                "normalized log tail probability vs level",
                ylabel="log p / u^2",
            )
    return EXIT_OK


def _figure_grids(h):
    # midpoint grids never land on the derivative singularities at 0 and -h
    m = 600
    sym = -3.0 * h + (np.arange(m) + 0.5) * (6.0 * h / m)
    gam = np.linspace(0.0, 3.0 * h, 601)
    m2 = 512
    pot = (np.arange(m2) + 0.5) * (h / m2)
    return sym, gam, pot


def cmd_figures(cfg, out_dir, args):
    kernel = cfg.kernel
    if not isinstance(kernel, IncrementOf):
        raise ConfigError(
            "figures needs an increment-type kernel (fgn or increment)"
        )
    if not out_dir:
        raise ConfigError("figures needs an output directory (--out or [output] dir)")
    h = kernel.h
    cstar = c_star(kernel, h)
    sym, gam_grid, pot_grid = _figure_grids(h)
    f = kernel.increment(sym)
    f1 = kernel.increment_d1(sym)
    f2 = kernel.increment_d2(sym)
    gam = kernel.gamma(gam_grid)
    g = kernel.gamma

    def g1(t):
        return 0.5 * (kernel.increment_d1(t) - kernel.increment_d1(-t))

    pot = g(pot_grid) + cstar * g(h - pot_grid) + g(2.0 * h - pot_grid)
    pot_d1 = g1(pot_grid) - cstar * g1(h - pot_grid) - g1(2.0 * h - pot_grid)

    ensure_dir(out_dir)
    tables = [
        ("increment_function", sym, f, "f"),
        ("increment_function_d1", sym, f1, "f'"),
        ("increment_function_d2", sym, f2, "f''"),
        ("autocovariance", gam_grid, gam, "Gamma"),
        ("three_point_potential", pot_grid, pot, "gamma_pot"),
        ("three_point_potential_d1", pot_grid, pot_d1, "gamma_pot'"),
    ]
    written = []
    for stem, x, y, label in tables:
        path = write_csv(
            os.path.join(out_dir, stem + ".csv"), ("t", "value"), (x, y)
        )
        written.append(os.path.basename(path))
        if "svg" in cfg.formats:
            svg = write_svg(
                os.path.join(out_dir, stem + ".svg"),
                x,
                y,
                stem.replace("_", " "),
                ylabel=label,
            )
            written.append(os.path.basename(svg))
    pairs = _command_pairs(cfg, "figures") + [
        ("lag", h),
        ("interior_weight", cstar),
        ("files", ";".join(written)),
    ]
    _emit(pairs, out_dir, "figures")
    return EXIT_OK


_DISPATCH = {
    "rate": cmd_rate,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "assumptions": cmd_assumptions,
    "simulate": cmd_simulate,
    "figures": cmd_figures,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route them through ConfigError so
    # bad invocations share the malformed-input exit code
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser():
    # built on the first main() call, not at import, and reused after it;
    # parse_args keeps no state between calls
    parser = _Parser(
        prog="gaussmin",
        description=(
            "Large-deviation decay rates for high minima of centered "
            "Gaussian processes, via minimum-energy probability measures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("rate", "closed-form minimizer, energy, and decay rate"),
        ("solve", "discretized minimum-energy solve on the interval"),
        ("verify", "equilibrium check for a measure loaded from CSV"),
        ("assumptions", "run the audits applicable to the kernel"),
        ("simulate", "Monte Carlo check of the decay rate"),
        ("figures", "CSV/SVG curves for increment-kernel diagnostics"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            p.add_argument("--measure", required=True, help="measure CSV to verify")
            p.add_argument(
                "--tol",
                type=float,
                default=_VERIFY_GRID_TOL,
                help="equilibrium tolerance (default %(default)s)",
            )
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        return _DISPATCH[args.command](cfg, out_dir, args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GaussminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
