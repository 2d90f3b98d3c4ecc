"""Acceptance gate: one test per shipping criterion.

Each test here is a complete pass/fail gate for one advertised guarantee
of the package, checked at the tolerance the guarantee states.  Slow
pieces (the ten-million-trial Monte Carlo run) live here, not in the
unit modules.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from conftest import parse_pairs
from gaussmin import (
    BrownianMotion,
    DiscreteMeasure,
    FractionalBM,
    FractionalGaussianNoise,
    Grid,
    IncrementOf,
    Tabulated,
    audit_first_case,
    c_star,
    check_optimality,
    discretize,
    energy,
    extract_measure,
    ldp_curve,
    potential,
    solve,
    three_point,
    two_point,
)
from oracles import brute_force_min_energy, discrete_min_tail, reflection_tail


def _gamma_unit_lag(H, tau):
    """Stationary autocovariance at unit lag, written out independently."""
    return 0.5 * (
        abs(tau - 1.0) ** (2 * H)
        - 2.0 * abs(tau) ** (2 * H)
        + abs(tau + 1.0) ** (2 * H)
    )


def test_pinned_closed_form_rate(run_cli, write_ini):
    """Left-endpoint measure: sigma*^2 = a^{2H} to 1e-12, verified, < 1 s/case."""
    for H in (0.5, 0.75, 0.9):
        for a in (0.5, 1.0, 2.0):
            body = (
                f"[kernel]\nkind = fbm\nH = {H}\n"
                f"[interval]\na = {a}\nb = {a + 1.0}\n"
            )
            start = time.perf_counter()
            code, out, _ = run_cli("rate", "--config", write_ini("ac1.ini", body))
            elapsed = time.perf_counter() - start
            pairs = parse_pairs(out)
            assert code == 0, (H, a)
            assert pairs["verified"] == "True", (H, a)
            assert abs(float(pairs["sigma_sq"]) - a ** (2 * H)) <= 1e-12, (H, a)
            assert elapsed < 1.0, (H, a, elapsed)


def test_two_point_closed_form_and_solver_agree():
    """Edge-pair measure on short intervals: optimal at 1e-8, solver within 1e-5."""
    for H in (0.6, 0.75, 0.9):
        kernel = FractionalGaussianNoise(H, 1.0)
        for b in (0.25, 0.5, 1.0):
            start = time.perf_counter()
            mu = two_point(0.0, b)
            sigma_sq = energy(kernel, mu)
            expected = 0.5 * (_gamma_unit_lag(H, 0.0) + _gamma_unit_lag(H, b))
            assert abs(sigma_sq - expected) <= 1e-14, (H, b)

            grid = Grid(0.0, b, 201)
            report = check_optimality(kernel, mu, grid, tol=1e-8)
            assert report.passed, (H, b)

            result = solve(discretize(kernel, grid), tol=1e-5, max_iter=200_000)
            assert result.converged, (H, b)
            assert abs(result.energy - sigma_sq) <= 1e-5, (H, b)
            assert time.perf_counter() - start < 5.0, (H, b)


def test_three_point_closed_form_and_solver_agree():
    """Interior-atom measure on a double-lag interval, solver to 1e-5 / 0.01."""
    kernel = FractionalGaussianNoise(0.75, 1.0)
    cstar = c_star(kernel, 1.0)
    expected_cstar = 1.0 + (
        (_gamma_unit_lag(0.75, 1.0) - _gamma_unit_lag(0.75, 2.0))
        / (_gamma_unit_lag(0.75, 1.0) - _gamma_unit_lag(0.75, 0.0))
    )
    assert cstar == pytest.approx(expected_cstar, rel=1e-14)

    mu = three_point(0.0, 1.0, cstar)
    sigma_sq = energy(kernel, mu)
    expected = (
        _gamma_unit_lag(0.75, 0.0)
        + cstar * _gamma_unit_lag(0.75, 1.0)
        + _gamma_unit_lag(0.75, 2.0)
    ) / (2.0 + cstar)
    assert abs(sigma_sq - expected) <= 1e-14
    assert sigma_sq == pytest.approx(0.5744706733790146, rel=1e-14)

    grid = Grid(0.0, 2.0, 201)
    assert check_optimality(kernel, mu, grid, tol=1e-8).passed

    result = solve(discretize(kernel, grid), tol=1e-5, max_iter=200_000)
    assert result.converged
    assert abs(result.energy - sigma_sq) <= 1e-5
    extracted = extract_measure(result, grid)
    assert len(extracted) == 3
    np.testing.assert_allclose(extracted.locations, mu.locations, atol=0.02)
    np.testing.assert_allclose(extracted.weights, mu.weights, atol=0.01)


def test_degenerate_hurst_uniform_optimum():
    """H = 1/2 noise: energy 1/3 to 1e-6, uniform potential flat to 1e-12."""
    kernel = FractionalGaussianNoise(0.5, 1.0)
    result = solve(
        discretize(kernel, Grid(0.0, 2.0, 201)), tol=1e-12, max_iter=400_000
    )
    assert abs(result.energy - 1.0 / 3.0) <= 1e-6

    mu = DiscreteMeasure([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    phi = potential(kernel, mu, Grid(0.0, 2.0, 401))
    assert float(np.max(np.abs(phi - 1.0 / 3.0))) <= 1e-12


def test_brute_force_never_beats_solver():
    """Exhaustive <=3-atom search on small grids stays within 1e-4, < 30 s."""
    start = time.perf_counter()
    fgn_nodes = Grid(0.0, 2.0, 12).nodes
    fgn_matrix = FractionalGaussianNoise(0.75, 1.0).cov(
        fgn_nodes[:, None], fgn_nodes[None, :]
    )
    catalogue = [
        (BrownianMotion(), (1.0, 2.0)),
        (FractionalBM(0.75), (1.0, 2.0)),
        (FractionalBM(0.3), (1.0, 2.0)),
        (FractionalGaussianNoise(0.75, 1.0), (0.0, 2.0)),
        (FractionalGaussianNoise(0.6, 1.0), (0.0, 2.0)),
        (FractionalGaussianNoise(0.3, 1.0), (0.0, 2.0)),
        (IncrementOf(BrownianMotion(), 1.0), (0.0, 2.0)),
        (Tabulated(fgn_nodes, fgn_matrix), (0.0, 2.0)),
    ]
    for kernel, (a, b) in catalogue:
        for n in (8, 12):
            if isinstance(kernel, Tabulated) and n != 12:
                continue  # lookup kernel is defined on its 12 nodes only
            grid = Grid(a, b, n)
            result = solve(discretize(kernel, grid), tol=1e-6, max_iter=60_000)
            brute = brute_force_min_energy(kernel.cov(
                grid.nodes[:, None], grid.nodes[None, :]
            ))
            label = (type(kernel).__name__, n)
            assert result.energy - brute <= 1e-4, label
    assert time.perf_counter() - start < 30.0


def test_figure_curves_and_shape_checks(run_cli, write_ini, tmp_path):
    """Six diagnostic curves with the advertised shapes, < 1 s."""
    out_dir = tmp_path / "figs"
    body = "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n"
    start = time.perf_counter()
    code, out, _ = run_cli(
        "figures", "--config", write_ini("ac6.ini", body), "--out", out_dir
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0

    def column(stem):
        rows = (out_dir / f"{stem}.csv").read_text().splitlines()[1:]
        return np.array([float(r.split(",")[1]) for r in rows])

    stems = [
        "increment_function", "increment_function_d1", "increment_function_d2",
        "autocovariance", "three_point_potential", "three_point_potential_d1",
    ]
    for stem in stems:
        assert (out_dir / f"{stem}.csv").exists(), stem

    f = column("increment_function")
    assert np.all(np.diff(f) > 0.0)
    assert np.all(column("increment_function_d1") > 0.0)

    audit = audit_first_case(FractionalGaussianNoise(0.75, 1.0))
    assert audit.passed
    assert audit.worst_violation < 0.0

    slope = column("three_point_potential_d1")
    signs = np.sign(slope[np.abs(slope) > 1e-12])
    assert np.count_nonzero(signs[1:] != signs[:-1]) == 1
    assert signs[0] > 0.0 > signs[-1]


def test_increment_decomposition_identity():
    """2 R(s,t) = f(t-s) + f(s-t) for 1000 random parameter draws, to 1e-10."""
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        H = rng.uniform(0.05, 0.95)
        h = rng.uniform(0.1, 2.0)
        s, t = rng.uniform(-3.0, 3.0, size=2)
        kernel = IncrementOf(FractionalBM(H), h)
        lhs = 2.0 * kernel.cov(s, t)
        rhs = kernel.increment(t - s) + kernel.increment(s - t)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_monte_carlo_trend_matches_oracle():
    """Ten-million-trial tail estimates against numerical integration, < 5 min.

    The estimator counts paths whose minimum over the grid nodes exceeds
    u, so the exact reference is the same minimum computed by transition
    quadrature on those nodes; the continuum reflection value is a lower
    bound the estimate must dominate.
    """
    start = time.perf_counter()
    a, b, n, trials = 1.0, 2.0, 200, 10_000_000
    levels = [1.0, 1.5, 2.0, 2.5]
    est = ldp_curve(BrownianMotion(), (a, b), n, levels, trials, seed=2026)

    assert np.all(np.diff(est.log_p_over_u2) > 0.0)
    assert np.all(est.log_p_over_u2 < -0.5)

    for i, (u, p_grid) in enumerate(zip(levels, discrete_min_tail(a, b, n, levels))):
        se = np.sqrt(p_grid * (1.0 - p_grid) / trials)
        assert abs(est.p_hat[i] - p_grid) <= 3.0 * se, u
        assert est.p_hat[i] >= reflection_tail(a, b, u) - 3.0 * se, u
    assert time.perf_counter() - start < 300.0


def test_every_command_is_byte_deterministic(run_cli, write_ini, tmp_path):
    """Rerunning any command with the same config reproduces files exactly."""
    three_pt = (
        "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n"
        "[interval]\na = 0.0\nb = 2.0\n"
    )
    solve_cfg = three_pt + "[grid]\nn = 51\n[solver]\ntol = 1e-5\n"
    sim_cfg = (
        "[kernel]\nkind = bm\n[interval]\na = 1.0\nb = 2.0\n"
        "[grid]\nn = 20\n[mc]\nu_list = 1.0, 1.5\ntrials = 2000\nseed = 5\n"
        "[output]\nformats = csv, svg\n"
    )
    fig_cfg = three_pt + "[output]\nformats = csv, svg\n"

    mu_dir = tmp_path / "mu"
    assert run_cli("rate", "--config", write_ini("d0.ini", three_pt), "--out", mu_dir)[0] == 0
    measure = mu_dir / "measure.csv"

    commands = [
        ("rate", write_ini("d1.ini", three_pt), []),
        ("solve", write_ini("d2.ini", solve_cfg), []),
        ("verify", write_ini("d3.ini", three_pt), ["--measure", measure]),
        ("assumptions", write_ini("d4.ini", three_pt), []),
        ("simulate", write_ini("d5.ini", sim_cfg), []),
        ("figures", write_ini("d6.ini", fig_cfg), []),
    ]
    for name, cfg, extra in commands:
        runs = [tmp_path / f"{name}_a", tmp_path / f"{name}_b"]
        outputs = []
        for out_dir in runs:
            code, out, _ = run_cli(name, "--config", cfg, *extra, "--out", out_dir)
            assert code == 0, name
            outputs.append(out)
        assert outputs[0] == outputs[1], name
        files = sorted(os.listdir(runs[0]))
        assert files == sorted(os.listdir(runs[1])), name
        match, mismatch, errors = filecmp.cmpfiles(*runs, common=files, shallow=False)
        assert mismatch == [] and errors == [], (name, mismatch, errors)
