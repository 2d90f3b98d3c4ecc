"""End-to-end command tests: exit codes, stdout summaries, output files."""

import csv
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import parse_pairs
from gaussmin import FractionalGaussianNoise, audits, cli, config, energy, load_measure

THREE_POINT_SIGMA_SQ = 0.5744706733790146
THREE_POINT_RATE = -0.8703664489242229
CSTAR_H075 = 0.75321300310123562

BM_INTERVAL = "[kernel]\nkind = bm\n[interval]\na = 1.0\nb = 2.0\n"
FGN_THREE_POINT = "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n[interval]\na = 0.0\nb = 2.0\n"


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestRate:
    def test_pinned_left_endpoint(self, run_cli, write_ini):
        code, out, _ = run_cli("rate", "--config", write_ini("r.ini", BM_INTERVAL))
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["closed_form"] == "left_endpoint"
        assert float(pairs["sigma_sq"]) == 1.0
        assert float(pairs["rate"]) == -0.5
        assert pairs["verified"] == "True"
        assert pairs["atom_locations"] == "1.0"

    def test_smooth_pinned_variance_at_left_end(self, run_cli, write_ini):
        body = "[kernel]\nkind = fbm\nH = 0.75\n[interval]\na = 0.5\nb = 2.0\n"
        code, out, _ = run_cli("rate", "--config", write_ini("r.ini", body))
        assert code == 0
        assert float(parse_pairs(out)["sigma_sq"]) == pytest.approx(
            0.5**1.5, rel=1e-15
        )

    def test_short_interval_two_point(self, run_cli, write_ini):
        body = "[kernel]\nkind = fgn\nH = 0.6\nh = 1.0\n[interval]\na = 0.0\nb = 0.5\n"
        code, out, _ = run_cli("rate", "--config", write_ini("r.ini", body))
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["closed_form"] == "two_point"
        assert float(pairs["sigma_sq"]) == pytest.approx(0.79785809378712147, rel=1e-15)
        assert pairs["atom_weights"] == "0.5;0.5"

    def test_double_lag_three_point(self, run_cli, write_ini):
        code, out, _ = run_cli("rate", "--config", write_ini("r.ini", FGN_THREE_POINT))
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["closed_form"] == "three_point"
        assert float(pairs["sigma_sq"]) == pytest.approx(THREE_POINT_SIGMA_SQ, rel=1e-14)
        assert float(pairs["rate"]) == pytest.approx(THREE_POINT_RATE, rel=1e-14)
        weights = [float(w) for w in pairs["atom_weights"].split(";")]
        np.testing.assert_allclose(
            weights,
            [0.36321199953421474, 0.27357600093157047, 0.36321199953421474],
            rtol=1e-14,
        )

    def test_output_files(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            "rate", "--config", write_ini("r.ini", FGN_THREE_POINT), "--out", out_dir
        )
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["measure.csv", "potential.csv", "rate.txt"]
        mu = load_measure(out_dir / "measure.csv")
        np.testing.assert_array_equal(mu.locations, [0.0, 1.0, 2.0])
        header, rows = _read_csv(out_dir / "potential.csv")
        assert header == ["t", "phi"]
        assert len(rows) == 401
        report = (out_dir / "rate.txt").read_text()
        assert parse_pairs(report) == parse_pairs(out)

    def test_grid_potential_evaluated_once(self, run_cli, write_ini, tmp_path, monkeypatch):
        # the equilibrium check's grid potential is the one potential.csv holds
        grids = []
        module = importlib.import_module("gaussmin.energy")
        real = module.potential

        def counted(kernel, mu, grid):
            grids.append(len(grid.nodes))
            return real(kernel, mu, grid)

        monkeypatch.setattr(module, "potential", counted)
        body = FGN_THREE_POINT + "[grid]\nn = 301\n"
        out_dir = tmp_path / "out"
        code, _, _ = run_cli("rate", "--config", write_ini("r.ini", body), "--out", out_dir)
        assert code == 0
        assert grids.count(301) == 1
        _, rows = _read_csv(out_dir / "potential.csv")
        assert len(rows) == 301

    def test_no_closed_form_for_odd_width(self, run_cli, write_ini):
        body = "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n[interval]\na = 0.0\nb = 1.5\n"
        code, out, err = run_cli("rate", "--config", write_ini("r.ini", body))
        assert code == 3
        assert out == ""
        assert "no applicable closed form" in err
        assert "gaussmin solve" in err

    def test_no_closed_form_for_rough_pinned(self, run_cli, write_ini):
        body = "[kernel]\nkind = fbm\nH = 0.3\n[interval]\na = 1.0\nb = 2.0\n"
        code, _, err = run_cli("rate", "--config", write_ini("r.ini", body))
        assert code == 3
        assert "negative" in err

    def test_pinned_interval_must_avoid_origin(self, run_cli, write_ini):
        body = "[kernel]\nkind = bm\n[interval]\na = 0.0\nb = 1.0\n"
        code, _, err = run_cli("rate", "--config", write_ini("r.ini", body))
        assert code == 4
        assert "a > 0" in err


class TestSolve:
    def test_matches_rate_within_solver_tolerance(self, run_cli, write_ini):
        cfg = write_ini(
            "s.ini",
            FGN_THREE_POINT + "[grid]\nn = 101\n[solver]\ntol = 1e-5\n",
        )
        code_r, out_r, _ = run_cli("rate", "--config", cfg)
        code_s, out_s, _ = run_cli("solve", "--config", cfg)
        assert code_r == 0 and code_s == 0
        sigma_r = float(parse_pairs(out_r)["sigma_sq"])
        sigma_s = float(parse_pairs(out_s)["sigma_sq"])
        assert abs(sigma_r - sigma_s) <= 1e-5

    def test_solution_files(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_ini(
            "s.ini", BM_INTERVAL + "[grid]\nn = 51\n[solver]\ntol = 1e-8\n"
        )
        code, out, _ = run_cli("solve", "--config", cfg, "--out", out_dir)
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["converged"] == "True"
        # Brownian motion minimum sits at the left endpoint
        assert float(pairs["sigma_sq"]) == pytest.approx(1.0, abs=1e-7)
        header, rows = _read_csv(out_dir / "solution.csv")
        assert header == ["node", "weight"]
        assert len(rows) == 51
        total = sum(float(w) for _, w in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        mu = load_measure(out_dir / "measure.csv")
        assert np.all(mu.locations >= 1.0 - 1e-12)

    def test_written_measure_has_the_printed_energy(self, run_cli, write_ini, tmp_path):
        # H = 0.3 spreads the minimizer over every node: the measure written
        # must be that minimizer, not adjacent nodes merged into one atom
        out_dir = tmp_path / "out"
        body = (
            "[kernel]\nkind = fgn\nH = 0.3\nh = 1.0\n"
            "[interval]\na = 0.0\nb = 3.0\n[grid]\nn = 401\n[solver]\ntol = 1e-9\n"
        )
        code, out, _ = run_cli("solve", "--config", write_ini("s.ini", body), "--out", out_dir)
        assert code == 0
        sigma_sq = float(parse_pairs(out)["sigma_sq"])
        mu = load_measure(out_dir / "measure.csv")
        kernel = FractionalGaussianNoise(0.3, 1.0)
        assert energy(kernel, mu) == pytest.approx(sigma_sq, rel=1e-6)

    def test_iteration_starved_run_exits_two(self, run_cli, write_ini):
        cfg = write_ini(
            "s.ini", FGN_THREE_POINT + "[solver]\nmax_iter = 1\ntol = 1e-9\n"
        )
        code, out, _ = run_cli("solve", "--config", cfg)
        assert code == 2
        assert parse_pairs(out)["converged"] == "False"

    def test_solution_pruned_to_nothing_exits_five(self, run_cli, write_ini):
        # the lag is shorter than the grid step, so the optimum spreads
        # 1/401 over every node and prune = 0.01 removes all of them
        body = (
            "[kernel]\nkind = fgn\nH = 0.5\nh = 0.001\n"
            "[interval]\na = 0.0\nb = 1.0\n"
            "[grid]\nn = 401\n[solver]\nprune = 0.01\n"
        )
        code, out, err = run_cli("solve", "--config", write_ini("s.ini", body))
        assert code == 5
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    def test_negative_definite_table_exits_five(self, run_cli, write_ini, tmp_path):
        # -I is symmetric but no covariance: rejected at load, not solved
        lines = ["i,j,value"] + [
            f"{i},{j},{-1.0 if i == j else 0.0}" for i in range(3) for j in range(3)
        ]
        (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
        body = (
            "[kernel]\nkind = tabulated\npath = m.csv\n"
            "[interval]\na = 0.0\nb = 1.0\n[grid]\nn = 3\n"
        )
        code, out, err = run_cli("solve", "--config", write_ini("s.ini", body))
        assert code == 5
        assert out == ""
        assert "positive semidefinite" in err


class TestExtremeValues:
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("interval", [("1e300", "2e300"), ("1", "1e308")])
    def test_overflowing_covariance_exits_five(self, run_cli, write_ini, command, interval):
        # finite endpoints, but the fgn covariance overflows on the grid
        body = (
            "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n"
            f"[interval]\na = {interval[0]}\nb = {interval[1]}\n[grid]\nn = 11\n"
            "[mc]\nu_list = 1.0, 2.0\ntrials = 10\n"
        )
        code, out, err = run_cli(command, "--config", write_ini("s.ini", body))
        assert code == 5
        assert out == ""
        assert err.startswith("numerical failure: covariance overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["rate", "solve", "assumptions", "simulate"])
    @pytest.mark.parametrize(("section", "msg"), [
        ("[interval]\na = 0.0\nb = inf\n", "[interval] b must be finite"),
        ("[interval]\na = -inf\nb = 1.0\n", "[interval] a must be finite"),
        ("[interval]\na = -1e308\nb = 1e308\n", "[interval] width b - a overflows"),
        ("[interval]\na = 0.0\nb = 2.0\n[solver]\ntol = nan\n", "[solver] tol must be finite"),
        ("[interval]\na = 0.0\nb = 2.0\n[solver]\ntol = inf\n", "[solver] tol must be finite"),
    ], ids=["b_inf", "a_minus_inf", "width_overflows", "tol_nan", "tol_inf"])
    def test_rejected_at_load(self, run_cli, write_ini, command, section, msg):
        body = (
            "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n" + section
            + "[mc]\nu_list = 1.0, 2.0\ntrials = 10\n"
        )
        code, out, err = run_cli(command, "--config", write_ini("n.ini", body))
        assert code == 4
        assert out == ""
        assert err.startswith("error: " + msg)
        assert err.count("\n") == 1

    def test_infinite_lag_rejected_at_load(self, run_cli, write_ini):
        body = "[kernel]\nkind = fgn\nH = 0.75\nh = inf\n[interval]\na = 0.0\nb = 2.0\n"
        code, _, err = run_cli("rate", "--config", write_ini("n.ini", body))
        assert code == 4
        assert "[kernel] h must be finite" in err

    @pytest.mark.filterwarnings("error")  # an overflow warning escapes main
    @pytest.mark.parametrize(("command", "body"), [
        ("rate", "[kernel]\nkind = fbm\nH = 0.75\n[interval]\na = 1e300\nb = 2e300\n"),
        ("assumptions", "[kernel]\nkind = fbm\nH = 0.75\n[interval]\na = 1e300\nb = 2e300\n"),
        (
            "rate",
            "[kernel]\nkind = increment\nbase = bm\nh = 1e308\n[interval]\na = 0.0\nb = 1e308\n",
        ),
        (
            "simulate",
            "[kernel]\nkind = increment\nbase = bm\nh = 1e308\n[interval]\na = 0.0\nb = 1e308\n"
            "[mc]\nu_list = 1.0\ntrials = 10\n",
        ),
    ], ids=["rate_fbm", "assumptions_fbm", "rate_increment", "simulate_increment"])
    def test_covariance_overflow_in_a_check_exits_five(self, run_cli, write_ini, command, body):
        # finite run-file numbers whose covariances overflow inside the
        # audits or the optimality check, where nan comparisons used to
        # decide the exit code
        code, out, err = run_cli(command, "--config", write_ini("o.ini", body))
        assert (code, out) == (5, "")
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(("command", "section"), [
        ("rate", "[grid]\nn = 1000000000000000\n"),
        ("solve", "[grid]\nn = 1000000000000000\n"),
        ("simulate", "[grid]\nn = 1000000000000000\n"),
        ("assumptions", "[audit]\nsamples = 1000000000000000\n"),
    ], ids=["rate", "solve", "simulate", "assumptions"])
    def test_array_too_large_to_allocate_exits_five(self, run_cli, write_ini, command, section):
        # 1e15 doubles (7.1 PiB) exceed any address space, so numpy refuses
        # the array before it allocates anything
        body = (
            "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n[interval]\na = 0.0\nb = 2.0\n"
            + section + "[mc]\nu_list = 1.0\ntrials = 10\n"
        )
        code, out, err = run_cli(command, "--config", write_ini("m.ini", body))
        assert (code, out) == (5, "")
        assert err.startswith("numerical failure: Unable to allocate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [10**19, 10**30])
    @pytest.mark.parametrize(("command", "kernel"), [
        ("rate", "kind = fgn\nH = 0.75\nh = 1.0\n"),
        ("solve", "kind = fgn\nH = 0.75\nh = 1.0\n"),
        ("simulate", "kind = fgn\nH = 0.75\nh = 1.0\n"),
        ("rate", "kind = tabulated\npath = t.csv\n"),
    ], ids=["rate", "solve", "simulate", "tabulated"])
    def test_grid_past_numpy_maximum_size_exits_five(
        self, run_cli, write_ini, command, kernel, n
    ):
        # past numpy's maximum array size np.linspace raises ValueError,
        # not MemoryError
        write_ini("t.csv", "i,j,value\n")
        body = (
            f"[kernel]\n{kernel}[interval]\na = 0.0\nb = 2.0\n[grid]\nn = {n}\n"
            "[mc]\nu_list = 1.0\ntrials = 10\n"
        )
        code, out, err = run_cli(command, "--config", write_ini("g.ini", body))
        assert (code, out) == (5, "")
        assert err.startswith(f"numerical failure: cannot allocate a grid of {n} nodes")
        assert err.count("\n") == 1

    def test_bad_interpolation_exits_four(self, run_cli, write_ini):
        body = "[kernel]\nkind = fbm\nH = 0.5%\n[interval]\na = 1.0\nb = 2.0\n"
        code, out, err = run_cli("rate", "--config", write_ini("p.ini", body))
        assert (code, out) == (4, "")
        assert err.startswith("error: cannot read [kernel] H of ")
        assert err.count("\n") == 1

    def test_overflowing_audit_range_exits_five(self, run_cli, write_ini):
        # the lag is finite, but the +-4h sampling range of the audit is not
        body = "[kernel]\nkind = increment\nbase = bm\nh = 1e308\n[interval]\na = 0.0\nb = 1.0\n"
        code, out, err = run_cli("assumptions", "--config", write_ini("n.ini", body))
        assert (code, out) == (5, "")
        assert err.startswith("numerical failure: sampling range")


class TestVerify:
    def _measure_csv(self, tmp_path, locations, weights):
        path = tmp_path / "mu.csv"
        lines = ["location,weight"]
        lines += [f"{x!r},{w!r}" for x, w in zip(locations, weights)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_uniform_three_point_passes_tight(self, run_cli, write_ini, tmp_path):
        # H = 1/2 makes the uniform three-point potential exactly flat
        body = "[kernel]\nkind = fgn\nH = 0.5\nh = 1.0\n[interval]\na = 0.0\nb = 2.0\n"
        mu = self._measure_csv(tmp_path, [0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        code, out, _ = run_cli(
            "verify", "--config", write_ini("v.ini", body),
            "--measure", mu, "--tol", "1e-12",
        )
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["verified"] == "True"
        assert float(pairs["sigma_sq"]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_wrong_measure_fails(self, run_cli, write_ini, tmp_path):
        body = "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n[interval]\na = 0.0\nb = 1.0\n"
        mu = self._measure_csv(tmp_path, [0.0], [1.0])
        code, out, _ = run_cli(
            "verify", "--config", write_ini("v.ini", body), "--measure", mu
        )
        assert code == 2
        pairs = parse_pairs(out)
        assert pairs["verified"] == "False"
        assert float(pairs["global_slack"]) < 0.0

    def test_rate_output_verifies(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        cfg = write_ini("v.ini", FGN_THREE_POINT)
        assert run_cli("rate", "--config", cfg, "--out", out_dir)[0] == 0
        code, out, _ = run_cli(
            "verify", "--config", cfg, "--measure", out_dir / "measure.csv"
        )
        assert code == 0
        assert float(parse_pairs(out)["sigma_sq"]) == pytest.approx(
            THREE_POINT_SIGMA_SQ, rel=1e-14
        )

    def test_atoms_outside_interval_rejected(self, run_cli, write_ini, tmp_path):
        mu = self._measure_csv(tmp_path, [1.0, 5.0], [0.5, 0.5])
        code, _, err = run_cli(
            "verify", "--config", write_ini("v.ini", BM_INTERVAL), "--measure", mu
        )
        assert code == 4
        assert "outside the interval" in err

    @pytest.mark.parametrize("kernel", ["bm", "tabulated"])
    def test_zero_energy_reports_infinite_rate(self, run_cli, write_ini, tmp_path, kernel):
        # Brownian motion at the origin and an all-zero table both give
        # sigma_sq = 0, which has no finite decay rate
        (tmp_path / "zero.csv").write_text(
            "i,j,value\n" + "".join(f"{i},{j},0.0\n" for i in range(2) for j in range(2))
        )
        body = (
            f"[kernel]\nkind = {kernel}\n"
            + ("path = zero.csv\n" if kernel == "tabulated" else "")
            + "[interval]\na = 0.0\nb = 1.0\n[grid]\nn = 2\n"
        )
        mu = self._measure_csv(tmp_path, [0.0], [1.0])
        code, out, err = run_cli(
            "verify", "--config", write_ini("v.ini", body), "--measure", mu
        )
        pairs = parse_pairs(out)
        assert (code, err) == (0, "")
        assert float(pairs["sigma_sq"]) == 0.0
        assert pairs["rate"] == "-inf"

    # an infinite tolerance would certify any measure, even a wrong one
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_nonpositive_tolerance_rejected(self, run_cli, write_ini, tmp_path, tol):
        mu = self._measure_csv(tmp_path, [1.0], [1.0])
        code, out, err = run_cli(
            "verify", "--config", write_ini("v.ini", BM_INTERVAL),
            "--measure", mu, "--tol", tol,
        )
        assert code == 4
        assert out == ""
        assert "--tol must be positive" in err

    def test_unreadable_measure_file_rejected(self, run_cli, write_ini, tmp_path):
        mu = tmp_path / "mu.csv"
        mu.write_bytes(b"location,weight\n\xff\xfe,1\n")
        code, out, err = run_cli(
            "verify", "--config", write_ini("v.ini", BM_INTERVAL), "--measure", mu
        )
        assert (code, out) == (4, "")
        assert "cannot read measure file" in err

    def test_tabulated_verify_reads_the_table_once(
        self, run_cli, write_ini, tmp_path, monkeypatch
    ):
        reads = []
        load = config.load_tabulated_matrix
        monkeypatch.setattr(
            config, "load_tabulated_matrix", lambda *args: reads.append(args) or load(*args)
        )
        (tmp_path / "m.csv").write_text(
            "i,j,value\n" + "".join(
                f"{i},{j},{1.0 + min(i, j)!r}\n" for i in range(3) for j in range(3)
            )
        )
        body = (
            "[kernel]\nkind = tabulated\npath = m.csv\n"
            "[interval]\na = 0.0\nb = 1.0\n[grid]\nn = 3\n"
        )
        mu = self._measure_csv(tmp_path, [0.0], [1.0])
        code, out, _ = run_cli("verify", "--config", write_ini("t.ini", body), "--measure", mu)
        assert code == 0
        assert float(parse_pairs(out)["sigma_sq"]) == 1.0
        assert len(reads) == 1

    def test_loose_tolerance_accepts_near_optimum(self, run_cli, write_ini, tmp_path):
        mu = self._measure_csv(tmp_path, [0.0, 1.0, 2.0], [0.36, 0.28, 0.36])
        cfg = write_ini("v.ini", FGN_THREE_POINT)
        strict = run_cli("verify", "--config", cfg, "--measure", mu)
        loose = run_cli("verify", "--config", cfg, "--measure", mu, "--tol", "0.01")
        assert strict[0] == 2
        assert loose[0] == 0


class TestAssumptions:
    def test_pinned_kernel_two_audits(self, run_cli, write_ini):
        code, out, _ = run_cli(
            "assumptions", "--config", write_ini("a.ini", BM_INTERVAL)
        )
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["applicable_audits"] == "2"
        assert pairs["all_passed"] == "True"
        assert "nonneg_increments" in out
        assert "converse" in out

    def test_increment_kernel_three_audits(self, run_cli, write_ini):
        code, out, _ = run_cli(
            "assumptions", "--config", write_ini("a.ini", FGN_THREE_POINT)
        )
        pairs = parse_pairs(out)
        assert code == 0
        assert pairs["applicable_audits"] == "3"
        for name in ("increment_monotone", "first_case", "second_case"):
            assert name in out

    def test_degenerate_case_exits_two(self, run_cli, write_ini):
        body = "[kernel]\nkind = fgn\nH = 0.5\nh = 1.0\n[interval]\na = 0.0\nb = 2.0\n"
        code, out, _ = run_cli("assumptions", "--config", write_ini("a.ini", body))
        assert code == 2
        pairs = parse_pairs(out)
        assert pairs["all_passed"] == "False"
        assert "degenerate" in out

    def test_rough_pinned_fails_and_reports_witness(self, run_cli, write_ini):
        body = "[kernel]\nkind = fbm\nH = 0.3\n[interval]\na = 1.0\nb = 2.0\n"
        code, out, _ = run_cli("assumptions", "--config", write_ini("a.ini", body))
        assert code == 2
        pairs = parse_pairs(out)
        assert float(pairs["worst_violation"]) < 0.0 or "False" in pairs["passed"]


AUDIT_SETTINGS = "[audit]\nsamples = 500\nseed = 3\nb_samples = 5\n[grid]\nn = 21\n"
FGN = "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n[interval]\na = 0.0\n"
NONNEG = ("nonneg_increments", (1.0, 2.0), {"samples": 500, "seed": 3})
SECOND = ("second_case", (1.0,), {})
LOOKUP_CASES = {
    "left_endpoint": (BM_INTERVAL, [NONNEG]),
    "two_point": (FGN + "b = 0.5\n", []),
    "three_point": (FGN + "b = 2.0\n", [SECOND]),
    "odd_width": (FGN + "b = 1.5\n", []),
}


class TestAuditCalls:
    """Each command runs only the audits its decision rests on."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("nonneg_increments", "converse", "increment_monotone",
                     "first_case", "second_case"):
            audit = getattr(audits, "audit_" + name)

            def record(kernel, *args, _name=name, _audit=audit, **kwargs):
                seen.append((_name, args, kwargs))
                return _audit(kernel, *args, **kwargs)

            monkeypatch.setattr(audits, "audit_" + name, record)
        return seen

    @pytest.mark.parametrize("case", LOOKUP_CASES)
    @pytest.mark.parametrize("command", ["rate", "simulate"])
    def test_closed_form_lookup(self, command, case, calls, run_cli, write_ini):
        body, expected = LOOKUP_CASES[case]
        body += AUDIT_SETTINGS + "[mc]\nu_list = 1.0\ntrials = 10\n"
        code, _, _ = run_cli(command, "--config", write_ini("c.ini", body))
        assert code == (3 if command == "rate" and case == "odd_width" else 0)
        assert calls == expected

    def test_assumptions_pinned(self, calls, run_cli, write_ini):
        run_cli("assumptions", "--config", write_ini("c.ini", BM_INTERVAL + AUDIT_SETTINGS))
        assert calls == [NONNEG, ("converse", (1.0, 2.0), {})]

    def test_assumptions_increment(self, calls, run_cli, write_ini):
        body = FGN + "b = 2.0\n" + AUDIT_SETTINGS
        run_cli("assumptions", "--config", write_ini("c.ini", body))
        assert calls == [
            ("increment_monotone", (), {"samples": 500, "seed": 3}),
            ("first_case", (), {"b_samples": 5}),
            SECOND,
        ]


class TestSimulate:
    def test_closed_form_rate_attached(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        body = BM_INTERVAL + "[grid]\nn = 20\n[mc]\nu_list = 1.0, 1.5\ntrials = 2000\nseed = 7\n"
        code, out, _ = run_cli(
            "simulate", "--config", write_ini("m.ini", body), "--out", out_dir
        )
        pairs = parse_pairs(out)
        assert code == 0
        assert float(pairs["theoretical_rate"]) == -0.5
        assert pairs["flagged_levels"] == "0"
        header, rows = _read_csv(out_dir / "ldp.csv")
        assert header == ["u", "trials", "hits", "p_hat", "log_p_over_u2", "ci_halfwidth", "flag"]
        assert len(rows) == 2
        p = [float(r[3]) for r in rows]
        assert p[0] >= p[1]

    def test_jitter_stays_out_of_the_outputs(self, run_cli, write_ini, tmp_path):
        # the Cholesky factor on this nearly constant window needs jitter
        out_dir = tmp_path / "out"
        body = (
            "[kernel]\nkind = fgn\nH = 0.9\nh = 1.0\n[interval]\na = 0.0\nb = 1e-6\n"
            "[grid]\nn = 100\n[mc]\nu_list = 1.0, 1.5\ntrials = 100\n"
        )
        code, out, err = run_cli(
            "simulate", "--config", write_ini("j.ini", body), "--out", out_dir
        )
        assert (code, err) == (0, "")
        assert "jitter" not in out
        for name in os.listdir(out_dir):
            assert "jitter" not in (out_dir / name).read_text()

    def test_sigma_sq_override(self, run_cli, write_ini):
        body = BM_INTERVAL + "[grid]\nn = 10\n[mc]\nu_list = 1.0\ntrials = 100\nsigma_sq = 0.6\n"
        code, out, _ = run_cli("simulate", "--config", write_ini("m.ini", body))
        assert code == 0
        assert float(parse_pairs(out)["theoretical_rate"]) == pytest.approx(
            -1.0 / 1.2, rel=1e-15
        )

    def test_zero_closed_form_energy_gives_infinite_rate(self, run_cli, write_ini):
        # Brownian motion pinned at the left endpoint a = 0 has sigma_sq = 0
        body = (
            "[kernel]\nkind = bm\n[interval]\na = 0.0\nb = 1.0\n"
            "[grid]\nn = 5\n[mc]\nu_list = 1.0\ntrials = 10\n"
        )
        code, out, err = run_cli("simulate", "--config", write_ini("m.ini", body))
        assert (code, err) == (0, "")
        assert parse_pairs(out)["theoretical_rate"] == "-inf"

    def test_no_closed_form_leaves_rate_blank(self, run_cli, write_ini):
        body = (
            "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n"
            "[interval]\na = 0.0\nb = 1.5\n"
            "[grid]\nn = 10\n[mc]\nu_list = 1.0\ntrials = 100\n"
        )
        code, out, _ = run_cli("simulate", "--config", write_ini("m.ini", body))
        assert code == 0
        assert parse_pairs(out)["theoretical_rate"] == ""

    def test_svg_written_when_requested(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        body = (
            BM_INTERVAL
            + "[grid]\nn = 10\n[mc]\nu_list = 1.0, 2.0\ntrials = 500\n"
            + "[output]\nformats = csv, svg\n"
        )
        code, _, _ = run_cli(
            "simulate", "--config", write_ini("m.ini", body), "--out", out_dir
        )
        assert code == 0
        svg = (out_dir / "ldp.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_single_level_skips_svg(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        body = (
            BM_INTERVAL
            + "[grid]\nn = 10\n[mc]\nu_list = 1.0\ntrials = 500\n"
            + "[output]\nformats = csv, svg\n"
        )
        code, _, err = run_cli(
            "simulate", "--config", write_ini("m.ini", body), "--out", out_dir
        )
        assert code == 0
        assert err == ""
        _, rows = _read_csv(out_dir / "ldp.csv")
        assert len(rows) == 1
        assert not (out_dir / "ldp.svg").exists()

    def test_missing_mc_section_rejected(self, run_cli, write_ini):
        code, _, err = run_cli("simulate", "--config", write_ini("m.ini", BM_INTERVAL))
        assert code == 4
        assert "u_list" in err

    def test_indefinite_tabulated_matrix_exits_five(self, run_cli, write_ini, tmp_path):
        (tmp_path / "m.csv").write_text(
            "i,j,value\n0,0,1.0\n0,1,2.0\n1,0,2.0\n1,1,1.0\n"
        )
        body = (
            "[kernel]\nkind = tabulated\npath = m.csv\n"
            "[interval]\na = 0.0\nb = 1.0\n[grid]\nn = 2\n"
            "[mc]\nu_list = 1.0\ntrials = 10\n"
        )
        code, _, err = run_cli("simulate", "--config", write_ini("m.ini", body))
        assert code == 5
        assert "numerical failure" in err


class TestFigures:
    def test_six_tables_for_increment_kernel(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "figs"
        body = FGN_THREE_POINT + "[output]\nformats = csv, svg\n"
        code, out, _ = run_cli(
            "figures", "--config", write_ini("f.ini", body), "--out", out_dir
        )
        pairs = parse_pairs(out)
        assert code == 0
        assert float(pairs["interior_weight"]) == pytest.approx(CSTAR_H075, rel=1e-14)
        stems = [
            "increment_function", "increment_function_d1", "increment_function_d2",
            "autocovariance", "three_point_potential", "three_point_potential_d1",
        ]
        for stem in stems:
            assert (out_dir / f"{stem}.csv").exists()
            assert (out_dir / f"{stem}.svg").exists()

        _, rows = _read_csv(out_dir / "autocovariance.csv")
        gam = np.array([float(v) for _, v in rows])
        assert np.all(np.diff(gam) < 0.0)

        _, rows = _read_csv(out_dir / "increment_function_d1.csv")
        d1 = np.array([float(v) for _, v in rows])
        assert np.all(d1 > 0.0)

    def test_potential_slope_changes_sign_once(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "figs"
        code, _, _ = run_cli(
            "figures", "--config", write_ini("f.ini", FGN_THREE_POINT), "--out", out_dir
        )
        assert code == 0
        _, rows = _read_csv(out_dir / "three_point_potential_d1.csv")
        d1 = np.array([float(v) for _, v in rows])
        signs = np.sign(d1[np.abs(d1) > 1e-12])
        changes = np.count_nonzero(signs[1:] != signs[:-1])
        assert changes == 1
        assert signs[0] > 0 > signs[-1]

    def test_pinned_kernel_rejected(self, run_cli, write_ini, tmp_path):
        code, _, err = run_cli(
            "figures", "--config", write_ini("f.ini", BM_INTERVAL),
            "--out", tmp_path / "figs",
        )
        assert code == 4
        assert "increment" in err

    def test_output_directory_required(self, run_cli, write_ini):
        code, _, err = run_cli("figures", "--config", write_ini("f.ini", FGN_THREE_POINT))
        assert code == 4
        assert "output directory" in err

    @pytest.mark.filterwarnings("error")  # an overflow warning escapes main
    @pytest.mark.parametrize("hurst", ["0.01", "0.3"])
    def test_overflowing_curve_exits_five(self, run_cli, write_ini, tmp_path, hurst):
        # f'' ~ |t|^(2H - 2) overflows on a grid of width 6h = 6e-300
        out_dir = tmp_path / "figs"
        body = (
            f"[kernel]\nkind = fgn\nH = {hurst}\nh = 1e-300\n[interval]\na = 0.0\nb = 1.0\n"
            "[output]\nformats = csv, svg\n"
        )
        code, out, err = run_cli("figures", "--config", write_ini("f.ini", body), "--out", out_dir)
        assert (code, out) == (5, "")
        assert err.startswith("numerical failure: increment_function_d2 overflows")
        assert err.count("\n") == 1
        assert not out_dir.exists()


OUT_CASES = {
    "rate": (FGN_THREE_POINT, ["measure.csv", "potential.csv", "rate.txt"]),
    "solve": (BM_INTERVAL + "[grid]\nn = 21\n", ["measure.csv", "solution.csv", "solve.txt"]),
    "verify": (FGN_THREE_POINT, ["potential.csv", "verify.txt"]),
    "assumptions": (BM_INTERVAL, ["assumptions.txt"]),
    "simulate": (
        BM_INTERVAL + "[grid]\nn = 10\n[mc]\nu_list = 1.0, 2.0\ntrials = 100\n",
        ["ldp.csv", "ldp.svg", "simulate.txt"],
    ),
    "figures": (
        FGN_THREE_POINT,
        ["figures.txt"] + [
            f"{stem}.{ext}"
            for stem in ("autocovariance", "increment_function", "increment_function_d1",
                         "increment_function_d2", "three_point_potential",
                         "three_point_potential_d1")
            for ext in ("csv", "svg")
        ],
    ),
}


class TestOutputContract:
    """--out holds <command>.txt, a copy of stdout, and the command's tables."""

    @pytest.mark.parametrize("command", OUT_CASES)
    def test_out_holds_the_summary_and_tables(self, run_cli, write_ini, tmp_path, command):
        body, expected = OUT_CASES[command]
        out_dir = tmp_path / "out"
        argv = [command, "--config", write_ini("o.ini", body + "[output]\nformats = csv, svg\n")]
        if command == "verify":
            (tmp_path / "mu.csv").write_text("location,weight\n1.0,1.0\n")
            argv += ["--measure", tmp_path / "mu.csv"]
        code, out, _ = run_cli(*argv, "--out", out_dir)
        # this Dirac is not the three-point optimum; exit 2 still writes everything
        assert code == (2 if command == "verify" else 0)
        assert sorted(os.listdir(out_dir)) == sorted(expected)
        assert (out_dir / f"{command}.txt").read_bytes() == out.encode()

    def test_rate_without_closed_form_writes_nothing(self, run_cli, write_ini, tmp_path):
        out_dir = tmp_path / "out"
        body = "[kernel]\nkind = fgn\nH = 0.75\nh = 1.0\n[interval]\na = 0.0\nb = 1.5\n"
        code, out, _ = run_cli("rate", "--config", write_ini("r.ini", body), "--out", out_dir)
        assert (code, out) == (3, "")
        assert not out_dir.exists()


class TestInvocation:
    def test_parser_reused_without_state(self, run_cli, write_ini, tmp_path):
        mu = tmp_path / "mu.csv"
        mu.write_text("location,weight\n1.0,1.0\n")
        cfg = write_ini("v.ini", BM_INTERVAL)
        first = run_cli("verify", "--config", cfg, "--measure", mu, "--tol", "1e-3")
        second = run_cli("verify", "--config", cfg, "--measure", mu)
        assert parse_pairs(first[1])["tolerance"] == "0.001"
        assert parse_pairs(second[1])["tolerance"] == "1e-08"
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import gaussmin.cli as c; print(c._build_parser.cache_info().currsize)"
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert res.stdout.strip() == "0"

    @staticmethod
    def _run_module(argv, stdout, stderr=subprocess.PIPE):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run(
            [sys.executable, "-m", "gaussmin.cli", *map(str, argv)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=stdout,
            stderr=stderr,
            text=True,
            timeout=120,
        )

    @pytest.mark.parametrize("command", ["rate", "solve"])
    def test_closed_stdout_exits_four(self, write_ini, command):
        # the reading end is closed before the command starts, so the
        # summary meets a broken pipe however short it is
        cfg = write_ini("p.ini", FGN_THREE_POINT + "[grid]\nn = 41\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = self._run_module([command, "--config", cfg], write_end)
        finally:
            os.close(write_end)
        assert res.returncode == 4
        assert res.stderr.startswith("error: cannot write output:")
        assert "Broken pipe" in res.stderr
        assert res.stderr.count("\n") == 1

    def test_closed_stdout_and_stderr_exit_four(self, write_ini):
        # as with 2>&1 | head: the message itself meets the closed pipe
        cfg = write_ini("p.ini", FGN_THREE_POINT + "[grid]\nn = 41\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = self._run_module(["solve", "--config", cfg], write_end, write_end)
        finally:
            os.close(write_end)
        assert res.returncode == 4

    def test_unwritable_out_directory_exits_four(self, write_ini, tmp_path):
        (tmp_path / "file").write_text("")
        cfg = write_ini("r.ini", FGN_THREE_POINT)
        res = self._run_module(
            ["rate", "--config", cfg, "--out", tmp_path / "file" / "sub"], subprocess.PIPE
        )
        assert res.returncode == 4
        assert res.stderr.startswith("error: cannot write output:")
        assert res.stderr.count("\n") == 1
        assert parse_pairs(res.stdout)["command"] == "rate"

    def test_missing_config_file(self, run_cli, tmp_path):
        code, _, err = run_cli("rate", "--config", tmp_path / "absent.ini")
        assert code == 4
        assert "not found" in err

    def test_unknown_command(self, run_cli):
        code, _, err = run_cli("transmogrify", "--config", "x.ini")
        assert code == 4
        assert "error:" in err

    def test_missing_required_option(self, run_cli):
        assert run_cli("rate")[0] == 4

    def test_missing_interval_section(self, run_cli, write_ini):
        code, _, err = run_cli("rate", "--config", write_ini("i.ini", "[kernel]\nkind = bm\n"))
        assert code == 4
        assert "interval" in err

    def test_out_flag_overrides_config_dir(self, run_cli, write_ini, tmp_path):
        cfg_out = tmp_path / "from_config"
        cli_out = tmp_path / "from_flag"
        body = BM_INTERVAL + f"[output]\ndir = {cfg_out.name}\n"
        code, _, _ = run_cli(
            "rate", "--config", write_ini("o.ini", body), "--out", cli_out
        )
        assert code == 0
        assert cli_out.is_dir()
        assert not cfg_out.exists()

    def test_reruns_are_byte_identical(self, run_cli, write_ini, tmp_path):
        cfg = write_ini("r.ini", FGN_THREE_POINT)
        dirs = [tmp_path / "first", tmp_path / "second"]
        for d in dirs:
            assert run_cli("rate", "--config", cfg, "--out", d)[0] == 0
        for name in os.listdir(dirs[0]):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name

    def test_outputs_do_not_depend_on_where_the_run_sits(self, run_cli, tmp_path, monkeypatch):
        # one run directory, a run file beside its table's folder, copied to
        # two places: stdout and every --out file must not name either place
        t = np.linspace(1.0, 2.0, 21)
        table = np.minimum.outer(t, t).tolist()
        rows = [f"{i},{j},{table[i][j]!r}" for i in range(21) for j in range(21)]
        body = (
            "[kernel]\nkind = tabulated\npath = ../tab/t.csv\n"
            "[interval]\na = 1.0\nb = 2.0\n[grid]\nn = 21\n"
        )
        runs = []
        for place in (tmp_path / "first", tmp_path / "elsewhere" / "second"):
            (place / "cfg").mkdir(parents=True)
            (place / "tab").mkdir()
            (place / "tab" / "t.csv").write_text("\n".join(["i,j,value", *rows]) + "\n")
            (place / "cfg" / "run.ini").write_text(body)
            monkeypatch.chdir(place)
            solved = run_cli("solve", "--config", "cfg/run.ini", "--out", "solve")
            verified = run_cli(
                "verify", "--config", "cfg/run.ini", "--measure", "solve/measure.csv",
                "--out", "verify",
            )
            assert solved[0] == verified[0] == 0
            runs.append((place, solved[1], verified[1]))
        (first, *outs), (second, *others) = runs
        assert outs == others
        assert "../tab/t.csv" in outs[0]
        for name in ("solve", "verify"):
            files = sorted(os.listdir(first / name))
            assert files == sorted(os.listdir(second / name)) and files, name
            for file in files:
                assert (first / name / file).read_bytes() == (second / name / file).read_bytes(), file
