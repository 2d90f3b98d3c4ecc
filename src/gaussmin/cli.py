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
summary as <command>.txt plus its tables there.  One path does both: each
cmd_* returns (code, pairs, files), pairs the summary after the command and
kernel lines (None to leave stdout empty), files its (name, write(path))
pairs in write order, and _publish prints and writes them.  Exit codes: 0
success, 2 a verification, convergence, or assumption check failed, 3 no
closed form applies to the configured problem, 4 malformed input or a kernel
the operation does not apply to, or output that cannot be written (a closed
stdout, an --out directory that cannot be made), 5 numerical failure (a
covariance that cannot be factorized, a degenerate kernel, a solution pruned
to nothing, or an array too large to allocate).  Code 2 still prints the
full summary.  Code 3 (from rate) prints nothing on stdout, only the reason
and a pointer to solve on stderr; 4 and 5 print a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from . import audits
from .config import load_config
from .energy import _rate, check_optimality, energy
from .errors import (
    ConfigError,
    DegenerateKernelError,
    EmptyMeasureError,
    FactorizationError,
    GaussminError,
)
from .kernels import IncrementOf, finite_values
from .measures import Grid, c_star, load_measure, save_measure
from .montecarlo import ldp_curve
from .output import render_pairs, write_csv, write_report, write_svg
from .solver import discretize, extract_measure, solve

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NO_CLOSED_FORM = 3
EXIT_BAD_INPUT = 4
EXIT_NUMERICAL = 5

_VERIFY_GRID_TOL = 1e-8

# failures of the computation itself, an array too large to allocate among
# them; every other GaussminError is an input the operation does not accept
_NUMERICAL_ERRORS = (DegenerateKernelError, EmptyMeasureError, FactorizationError, MemoryError)


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
        ("atom_locations", ";".join(map(repr, mu.locations.tolist()))),
        ("atom_weights", ";".join(map(repr, mu.weights.tolist()))),
    ]


def _certify(cfg, mu, tol):
    """Equilibrium-check mu on the configured grid.

    Returns the exit code, the summary from sigma_sq on, and potential.csv.
    """
    a, b = cfg.interval()
    report = check_optimality(cfg.kernel, mu, Grid(a, b, cfg.n), tol=tol)
    pairs = (
        [("sigma_sq", report.energy), ("rate", _rate(report.energy))]
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
    prof = report.potential
    columns = (prof.grid.nodes, prof.values)
    files = [("potential.csv", lambda path: write_csv(path, ("t", "phi"), columns))]
    return (EXIT_OK if report.passed else EXIT_CHECK_FAILED), pairs, files


def cmd_rate(cfg, out_dir, args):
    """closed-form minimizer, energy, and decay rate"""
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
        return EXIT_NO_CLOSED_FORM, None, []
    code, pairs, files = _certify(cfg, mu, _VERIFY_GRID_TOL)
    pairs = _interval_pairs(a, b) + [("closed_form", name)] + pairs
    return code, pairs, files + [("measure.csv", functools.partial(save_measure, mu))]


def cmd_solve(cfg, out_dir, args):
    """discretized minimum-energy solve on the interval"""
    kernel = cfg.kernel
    a, b = cfg.interval()
    grid = Grid(a, b, cfg.n)
    problem = discretize(kernel, grid)
    result = solve(problem, tol=cfg.tol, max_iter=cfg.max_iter)
    mu = extract_measure(result, grid, prune=cfg.prune)
    sigma_sq = result.energy
    pairs = (
        _interval_pairs(a, b)
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
    columns = (grid.nodes, result.weights)
    files = [
        ("solution.csv", lambda path: write_csv(path, ("node", "weight"), columns)),
        ("measure.csv", functools.partial(save_measure, mu)),
    ]
    return (EXIT_OK if result.converged else EXIT_CHECK_FAILED), pairs, files


def cmd_verify(cfg, out_dir, args):
    """equilibrium check for a measure loaded from CSV"""
    # an infinite tolerance would certify any measure
    if not 0.0 < args.tol < np.inf:
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    a, b = cfg.interval()
    mu = load_measure(args.measure)
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    if np.any(mu.locations < a - slack) or np.any(mu.locations > b + slack):
        raise ConfigError(
            f"measure atoms fall outside the interval [{a}, {b}]"
        )
    code, pairs, files = _certify(cfg, mu, args.tol)
    return code, [("measure_file", args.measure)] + _interval_pairs(a, b) + pairs, files


def cmd_assumptions(cfg, out_dir, args):
    """run the audits applicable to the kernel"""
    kernel = cfg.kernel
    a, b = cfg.interval()
    reports = audits.applicable_audits(
        kernel, a, b, cfg.audit_samples, cfg.audit_seed, cfg.b_samples
    )
    pairs = _interval_pairs(a, b)
    pairs.append(("applicable_audits", len(reports)))
    for rep in reports:
        pairs.extend(rep.rows())
    all_passed = all(rep.passed for rep in reports)
    pairs.append(("all_passed", all_passed))
    return (EXIT_OK if all_passed else EXIT_CHECK_FAILED), pairs, []


def cmd_simulate(cfg, out_dir, args):
    """Monte Carlo check of the decay rate"""
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
    pairs = _interval_pairs(a, b) + [
        ("grid_n", cfg.n),
        ("trials", cfg.trials),
        ("seed", cfg.mc_seed),
        ("theoretical_rate", "" if sigma_sq is None else _rate(sigma_sq)),
        ("levels", ";".join(repr(float(x)) for x in est.u)),
        ("normalized_log_tail", ";".join(repr(float(x)) for x in est.log_p_over_u2)),
        ("flagged_levels", int(np.count_nonzero(est.flagged))),
    ]
    header = ("u", "trials", "hits", "p_hat", "log_p_over_u2", "ci_halfwidth", "flag")
    columns = (
        est.u,
        np.full(est.u.size, est.trials),
        est.hits,
        est.p_hat,
        est.log_p_over_u2,
        est.ci_halfwidth,
        est.flagged.astype(np.int64),
    )
    files = [("ldp.csv", lambda path: write_csv(path, header, columns))]
    # a single level has no curve to draw
    if "svg" in cfg.formats and est.u.size >= 2:
        title = "normalized log tail probability vs level"
        files.append(("ldp.svg", lambda path: write_svg(
            path, est.u, est.log_p_over_u2, title, ylabel="log p / u^2"
        )))
    return EXIT_OK, pairs, files


def _figure_grids(h):
    # midpoint grids never land on the derivative singularities at 0 and -h
    m = 600
    sym = -3.0 * h + (np.arange(m) + 0.5) * (6.0 * h / m)
    gam = np.linspace(0.0, 3.0 * h, 601)
    m2 = 512
    pot = (np.arange(m2) + 0.5) * (h / m2)
    return sym, gam, pot


def cmd_figures(cfg, out_dir, args):
    """CSV/SVG curves for increment-kernel diagnostics"""
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
    g = kernel.gamma

    def g1(t):
        return 0.5 * (kernel.increment_d1(t) - kernel.increment_d1(-t))

    def pot(t):
        return g(t) + cstar * g(h - t) + g(2.0 * h - t)

    def pot_d1(t):
        return g1(t) - cstar * g1(h - t) - g1(2.0 * h - t)

    tables = [
        ("increment_function", sym, kernel.increment, "f"),
        ("increment_function_d1", sym, kernel.increment_d1, "f'"),
        ("increment_function_d2", sym, kernel.increment_d2, "f''"),
        ("autocovariance", gam_grid, g, "Gamma"),
        ("three_point_potential", pot_grid, pot, "gamma_pot"),
        ("three_point_potential_d1", pot_grid, pot_d1, "gamma_pot'"),
    ]
    files = []
    for stem, x, curve, label in tables:
        y = finite_values(lambda: curve(x), f"{stem} overflows at lag {h}")
        csv = functools.partial(write_csv, header=("t", "value"), columns=(x, y))
        files.append((stem + ".csv", csv))
        if "svg" in cfg.formats:
            svg = functools.partial(write_svg, x=x, y=y, title=stem.replace("_", " "), ylabel=label)
            files.append((stem + ".svg", svg))
    pairs = [
        ("lag", h),
        ("interior_weight", cstar),
        ("files", ";".join(name for name, _ in files)),
    ]
    return EXIT_OK, pairs, files


_DISPATCH = {
    "rate": cmd_rate,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "assumptions": cmd_assumptions,
    "simulate": cmd_simulate,
    "figures": cmd_figures,
}


def _publish(cfg, command, out_dir, pairs, files):
    """Print the summary; under out_dir write it as <command>.txt, then files."""
    pairs = _command_pairs(cfg, command) + pairs
    print(render_pairs(pairs))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_report(os.path.join(out_dir, command + ".txt"), pairs)
        for name, write in files:
            write(os.path.join(out_dir, name))


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
    for name, command in _DISPATCH.items():
        # python -OO strips docstrings
        p = sub.add_parser(name, help=(command.__doc__ or "").partition("\n")[0])
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
        code, pairs, files = _DISPATCH[args.command](cfg, out_dir, args)
        if pairs is not None:
            _publish(cfg, args.command, out_dir, pairs, files)
        # a summary that fits the buffer meets a closed pipe only here
        sys.stdout.flush()
        return code
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GaussminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone; the flush at exit would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # stderr may be the same closed pipe (2>&1)
        with contextlib.suppress(OSError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
