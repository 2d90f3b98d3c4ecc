"""Energy, potential, equilibrium check, and the rate map."""

import os
import subprocess
import sys

import numpy as np
import pytest

import gaussmin
from gaussmin import (
    BrownianMotion,
    DegenerateKernelError,
    DiscreteMeasure,
    FractionalBM,
    FractionalGaussianNoise,
    Grid,
    OptimalityReport,
    PotentialProfile,
    c_star,
    check_optimality,
    dirac,
    energy,
    potential,
    rate,
    three_point,
    two_point,
)

# Closed-form energies of the edge pair under the stationary increment
# kernel with unit lag: E = (f(1) + f(b)) / 2 where
# f(tau) = (|tau-1|^2H - 2|tau|^2H + |tau+1|^2H) / 2, f(0) = 1.
TWO_POINT_ENERGY = {
    (0.6, 0.25): 0.90904648314566716,
    (0.6, 0.5): 0.79785809378712147,
    (0.6, 1.0): 0.57434917749851744,
    (0.75, 0.25): 0.94926538469392441,
    (0.75, 0.5): 0.87089097912352742,
    (0.75, 1.0): 0.70710678118654757,
    (0.9, 0.25): 0.98129392566631946,
    (0.9, 0.5): 0.9468920530211572,
    (0.9, 1.0): 0.87055056329612412,
}

THREE_POINT_ENERGY_H075 = 0.5744706733790146


class TestEnergy:
    def test_dirac_energy_is_variance_bm(self):
        assert energy(BrownianMotion(), dirac(1.5)) == 1.5

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.75, 0.9])
    def test_dirac_energy_is_variance_fbm(self, H):
        a = 0.7
        e = energy(FractionalBM(H), dirac(a))
        assert e == pytest.approx(a ** (2 * H), rel=1e-14)

    @pytest.mark.parametrize(("H", "b"), sorted(TWO_POINT_ENERGY))
    def test_two_point_energy_closed_form(self, H, b):
        kernel = FractionalGaussianNoise(H, 1.0)
        e = energy(kernel, two_point(0.0, b))
        assert e == pytest.approx(TWO_POINT_ENERGY[(H, b)], rel=1e-14)

    def test_two_point_energy_matches_direct_formula(self):
        # Independent arithmetic: E = (f(0) + f(b)) / 2.
        H, b = 0.6, 0.5
        f = lambda tau: 0.5 * (
            abs(tau - 1.0) ** (2 * H)
            - 2.0 * abs(tau) ** (2 * H)
            + abs(tau + 1.0) ** (2 * H)
        )
        kernel = FractionalGaussianNoise(H, 1.0)
        e = energy(kernel, two_point(0.0, b))
        assert e == pytest.approx(0.5 * (f(0.0) + f(b)), rel=1e-14)

    def test_three_point_energy_frozen(self):
        kernel = FractionalGaussianNoise(0.75, 1.0)
        mu = three_point(0.0, 1.0, c_star(kernel, 1.0))
        e = energy(kernel, mu)
        assert e == pytest.approx(THREE_POINT_ENERGY_H075, rel=1e-14)

    def test_energy_is_quadratic_in_weights(self):
        # E(mu) = w' M w for the covariance matrix on the atoms.
        kernel = FractionalBM(0.75)
        loc = np.array([0.5, 1.0, 2.0])
        w = np.array([0.2, 0.3, 0.5])
        mu = DiscreteMeasure(loc, w)
        M = kernel.cov(loc[:, None], loc[None, :])
        assert energy(kernel, mu) == pytest.approx(w @ M @ w, rel=1e-15)


class TestPotential:
    def test_dirac_potential_is_cross_covariance(self):
        kernel = BrownianMotion()
        grid = Grid(1.0, 2.0, 5)
        prof = potential(kernel, dirac(1.0), grid)
        assert isinstance(prof, PotentialProfile)
        assert prof.grid is grid
        # phi(t) = min(1, t) = 1 on [1, 2].
        np.testing.assert_array_equal(prof.values, np.ones(5))

    def test_two_point_potential_values(self):
        kernel = FractionalGaussianNoise(0.75, 1.0)
        grid = Grid(0.0, 1.0, 3)
        prof = potential(kernel, two_point(0.0, 1.0), grid)
        expected = [
            0.5 * (kernel.gamma(t - 0.0) + kernel.gamma(t - 1.0))
            for t in grid.nodes
        ]
        np.testing.assert_allclose(prof.values, expected, rtol=1e-15)

    def test_values_read_only(self):
        prof = potential(BrownianMotion(), dirac(1.0), Grid(1.0, 2.0, 4))
        with pytest.raises(ValueError):
            prof.values[0] = 0.0


class TestCheckOptimality:
    def test_dirac_passes_for_bm(self):
        report = check_optimality(BrownianMotion(), dirac(1.0), Grid(1.0, 2.0, 101))
        assert isinstance(report, OptimalityReport)
        assert report.passed
        assert report.energy == 1.0
        # phi is exactly constant: min(1, t) = 1 on the whole interval.
        assert report.support_deviation == 0.0
        assert report.global_slack == 0.0

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    def test_dirac_passes_for_fbm(self, H):
        kernel = FractionalBM(H)
        report = check_optimality(kernel, dirac(1.0), Grid(1.0, 2.0, 201), tol=1e-10)
        assert report.passed
        assert report.energy == pytest.approx(1.0, rel=1e-15)
        assert report.global_slack >= 0.0

    def test_wrong_atom_fails(self):
        # delta_b on Brownian motion: phi(t) = t < b away from b.
        report = check_optimality(BrownianMotion(), dirac(2.0), Grid(1.0, 2.0, 101))
        assert not report.passed
        assert report.global_slack == pytest.approx(-1.0, abs=1e-15)
        assert report.argmin == 1.0
        assert report.min_potential == 1.0

    def test_perturbed_weights_fail(self):
        kernel = FractionalGaussianNoise(0.75, 1.0)
        mu = DiscreteMeasure([0.0, 1.0], [0.6, 0.4])
        report = check_optimality(kernel, mu, Grid(0.0, 1.0, 101), tol=1e-8)
        assert not report.passed
        assert report.support_deviation > 1e-3

    def test_three_point_passes_on_width_two_lags(self):
        kernel = FractionalGaussianNoise(0.75, 1.0)
        mu = three_point(0.0, 1.0, c_star(kernel, 1.0))
        report = check_optimality(kernel, mu, Grid(0.0, 2.0, 401), tol=1e-8)
        assert report.passed
        assert report.energy == pytest.approx(THREE_POINT_ENERGY_H075, rel=1e-13)

    def test_slack_identity(self):
        report = check_optimality(BrownianMotion(), dirac(2.0), Grid(1.0, 2.0, 11))
        assert report.global_slack == report.min_potential - report.energy

    def test_report_carries_the_grid_potential(self):
        kernel, grid = FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 2.0, 401)
        mu = three_point(0.0, 1.0, c_star(kernel, 1.0))
        report = check_optimality(kernel, mu, grid, tol=1e-8)
        prof = potential(kernel, mu, grid)
        assert report.potential.grid is grid
        np.testing.assert_array_equal(report.potential.values, prof.values)
        assert report.min_potential == np.min(prof.values)
        # the profile takes no part in equality or the repr
        assert report == check_optimality(kernel, mu, grid, tol=1e-8)
        assert " potential=" not in repr(report)

    def test_energy_is_the_mean_potential_on_the_support(self):
        # the report takes the energy from phi on the support, with the
        # operations energy() runs, so the two agree to the bit
        kernel = FractionalGaussianNoise(0.3, 1.0)
        x = np.linspace(0.0, 3.0, 301)
        w = 1.0 + np.sin(7.0 * x) ** 2
        mu = DiscreteMeasure(x, w / w.sum())
        report = check_optimality(kernel, mu, Grid(0.0, 3.0, 301))
        assert report.energy == energy(kernel, mu)

    def test_potential_does_not_depend_on_the_thread_cap(self, tmp_path):
        # two OpenBLAS threads round the potential's product differently
        # from one, so each cap is a fresh interpreter whose BLAS variables
        # come from the cap alone; with 1,601 atoms potential.csv differed
        # between caps before the check ran on one thread
        x = np.linspace(0.0, 3.0, 1601)
        w = 1.0 + np.sin(7.0 * x) ** 2
        w /= w.sum()
        rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, w))
        measure = tmp_path / "m.csv"
        measure.write_text("location,weight\n" + rows)
        cfg = tmp_path / "rough.ini"
        cfg.write_text(
            "[kernel]\nkind = fgn\nH = 0.3\nh = 1.0\n[interval]\na = 0.0\nb = 3.0\n"
            "[grid]\nn = 1601\n"
        )
        src = os.path.dirname(os.path.dirname(gaussmin.__file__))
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        runs = []
        for cap in ("1", "2"):
            out_dir = tmp_path / f"cap{cap}"
            res = subprocess.run(
                [
                    sys.executable, "-m", "gaussmin.cli", "verify", "--config", cfg,
                    "--measure", measure, "--out", out_dir,
                ],
                env={**env, "PYTHONPATH": src, "GAUSSMIN_THREADS": cap},
                capture_output=True,
                timeout=120,
            )
            files = {f: (out_dir / f).read_bytes() for f in sorted(os.listdir(out_dir))}
            runs.append((res.returncode, res.stdout, files))
        # the measure is not the minimizer, so the check fails (exit 2)
        # after writing its summary and potential
        assert runs[0][0] == 2
        assert "potential.csv" in runs[0][2]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan])
    def test_tolerance_must_be_positive(self, tol):
        # an infinite tolerance passed any measure and a nan one failed all
        with pytest.raises(ValueError, match="tolerance"):
            check_optimality(BrownianMotion(), dirac(1.0), Grid(1.0, 2.0, 3), tol=tol)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_is_degenerate(self):
        # |s - t|^1.5 overflows at this scale, so every potential is nan
        kernel, grid = FractionalBM(0.75), Grid(1e300, 2e300, 5)
        with pytest.raises(DegenerateKernelError, match="overflows"):
            check_optimality(kernel, dirac(1e300), grid)
        with pytest.raises(DegenerateKernelError, match="overflows"):
            potential(kernel, dirac(1.0), grid)


class TestRate:
    def test_values(self):
        assert rate(0.5) == -1.0
        assert rate(1.0) == -0.5
        assert rate(2.0) == -0.25

    def test_three_point_rate_frozen(self):
        assert rate(THREE_POINT_ENERGY_H075) == pytest.approx(
            -0.8703664489242229, rel=1e-15
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_variance(self, bad):
        with pytest.raises(ValueError, match="variance"):
            rate(bad)
