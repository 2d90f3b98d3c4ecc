"""Monte Carlo engine: factorization, counter-based draws, tail estimates."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from gaussmin import _threads, montecarlo
from gaussmin import (
    BrownianMotion,
    DiscretizedProblem,
    FactorizationError,
    FractionalBM,
    FractionalGaussianNoise,
    Grid,
    GridError,
    LdpEstimate,
    discretize,
    estimate_tail,
    factorize,
    ldp_curve,
    normal_block,
    sample_paths,
)
from oracles import discrete_min_tail, reflection_tail


def _ziggurat_oracle(seed, start_trial, trials, draws_per_trial, rows):
    # per-block SFC64 ziggurat stream, frozen: trial i is row i % rows of
    # block i // rows, which is drawn whole from its own spawned seed
    def block(k):
        bits = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k,)))
        return np.random.Generator(bits).standard_normal((rows, draws_per_trial))

    trial_ids = range(start_trial, start_trial + trials)
    blocks = {k: block(k) for k in {i // rows for i in trial_ids}}
    return np.array([blocks[i // rows][i % rows] for i in trial_ids])


def _serial_paths(kernel, interval, n, trials, seed, batch):
    # the one-thread batch loop the draw pool replaced, frozen
    factor, _ = factorize(discretize(kernel, Grid(*interval, n)))
    return np.concatenate([
        normal_block(seed, start, min(batch, trials - start), n) @ factor.T
        for start in range(0, trials, batch)
    ])


def _problem(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return DiscretizedProblem(grid=None, matrix=matrix)


class TestFactorize:
    def test_identity_needs_no_jitter(self):
        factor, used = factorize(_problem(np.eye(4)))
        np.testing.assert_array_equal(factor, np.eye(4))
        assert used == 0.0

    def test_brownian_grid_needs_no_jitter(self):
        prob = discretize(BrownianMotion(), Grid(1.0, 2.0, 50))
        factor, used = factorize(prob)
        assert used == 0.0
        np.testing.assert_allclose(factor @ factor.T, prob.matrix, atol=1e-12)

    def test_stationary_grid_small_jitter(self):
        prob = discretize(FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 2.0, 100))
        factor, used = factorize(prob)
        assert used <= 1e-10
        np.testing.assert_allclose(factor @ factor.T, prob.matrix, atol=1e-8)

    def test_requested_jitter_tried_first(self):
        _, used = factorize(_problem(np.eye(3)), jitter=1e-9)
        assert used == 1e-9

    def test_indefinite_matrix_raises(self):
        # eigenvalues 3 and -1: no tiny diagonal shift can rescue it
        with pytest.raises(FactorizationError):
            factorize(_problem(np.array([[1.0, 2.0], [2.0, 1.0]])))


class TestNormalBlock:
    def test_schedule_independence(self):
        full = normal_block(123, 0, 200, 7)
        parts = np.vstack([
            normal_block(123, 0, 1, 7),
            normal_block(123, 1, 49, 7),
            normal_block(123, 50, 150, 7),
        ])
        np.testing.assert_array_equal(full, parts)

    @pytest.mark.parametrize("draws", [1, 4, 5, 8, 200])
    def test_any_width_splits_identically(self, draws):
        full = normal_block(7, 0, 64, draws)
        split = np.vstack([normal_block(7, 0, 32, draws), normal_block(7, 32, 32, draws)])
        np.testing.assert_array_equal(full, split)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            normal_block(5, 10, 20, 3), normal_block(5, 10, 20, 3)
        )
        assert not np.array_equal(normal_block(5, 0, 20, 3), normal_block(6, 0, 20, 3))

    def test_shape(self):
        assert normal_block(0, 0, 13, 5).shape == (13, 5)

    @pytest.mark.parametrize("batch_doubles", [100, 4_000_000])
    @pytest.mark.parametrize("draws", [1, 7, 201])
    def test_matches_frozen_ziggurat_blocks(self, monkeypatch, batch_doubles, draws):
        # at 100 doubles a block is 100, 14 or 1 trials: trials 57..356 start
        # inside a block and cross block boundaries
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", batch_doubles)
        rows = max(1, batch_doubles // draws)
        np.testing.assert_array_equal(
            normal_block(31, 57, 300, draws), _ziggurat_oracle(31, 57, 300, draws, rows)
        )

    @pytest.mark.parametrize("draws", [1, 3, 10, 150])
    def test_splits_straddling_blocks_equal_the_whole_draw(self, monkeypatch, draws):
        # at 30 doubles a block is 30, 10, 3 or 1 trials, so every cut below
        # starts or ends a call inside a block or on a boundary between two
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", 30)
        full = normal_block(3, 0, 100, draws)
        for cuts in ([1, 29, 31, 59, 61], [9, 11, 45, 70], [99]):
            edges = [0, *cuts, 100]
            parts = np.vstack([
                normal_block(3, lo, hi - lo, draws) for lo, hi in zip(edges, edges[1:])
            ])
            np.testing.assert_array_equal(full, parts)

    def test_moments(self):
        z = normal_block(2, 0, 4000, 6).ravel()
        n = z.size
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)


class TestSamplePaths:
    def test_sample_covariance_matches_kernel(self):
        kernel = BrownianMotion()
        trials = 100_000
        paths = sample_paths(kernel, (1.0, 2.0), 3, trials, seed=4)
        t = Grid(1.0, 2.0, 3).nodes
        true = np.minimum(t[:, None], t[None, :])
        sample = paths.T @ paths / trials
        # se of a covariance entry for centered Gaussians
        se = np.sqrt((np.outer(np.diag(true), np.diag(true)) + true**2) / trials)
        assert np.all(np.abs(sample - true) <= 5.0 * se)

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials"):
            sample_paths(BrownianMotion(), (1.0, 2.0), 3, 0)

    def test_trial_rows_do_not_depend_on_total(self):
        a = sample_paths(BrownianMotion(), (1.0, 2.0), 10, 300, seed=9)
        b = sample_paths(BrownianMotion(), (1.0, 2.0), 10, 100, seed=9)
        np.testing.assert_array_equal(a[:100], b)


class TestEstimateTail:
    def test_level_zero_two_nodes_is_three_eighths(self):
        # nodes 1 and 2 carry a centered bivariate normal with correlation
        # 1/sqrt(2), so P(both > 0) = 1/4 + arcsin(1/sqrt(2)) / (2 pi) = 3/8
        trials, p = 100_000, 3.0 / 8.0
        p_hat, hits = estimate_tail(BrownianMotion(), (1.0, 2.0), 2, 0.0, trials, seed=1)
        assert hits == pytest.approx(p * trials, abs=3 * np.sqrt(p * (1.0 - p) * trials))
        assert p_hat == hits / trials

    def test_matches_transition_quadrature_oracle(self):
        # frozen reference: 1e6 paths on 200 nodes against the discrete
        # minimum oracle at the same nodes
        trials, n, u = 1_000_000, 200, 1.0
        p_hat, hits = estimate_tail(BrownianMotion(), (1.0, 2.0), n, u, trials, seed=2026)
        p_true = discrete_min_tail(1.0, 2.0, n, u)
        se = np.sqrt(p_true * (1.0 - p_true) / trials)
        assert abs(p_hat - p_true) <= 3.0 * se
        # the grid minimum only overshoots the continuum minimum, so the
        # estimate must dominate the reflection value up to noise
        assert p_hat >= reflection_tail(1.0, 2.0, u) - 3.0 * se

    def test_counts_are_prefix_consistent(self):
        kernel = FractionalBM(0.75)
        paths = sample_paths(kernel, (1.0, 2.0), 10, 3000, seed=9)
        minima = paths.min(axis=1)
        expected = int(np.count_nonzero(minima[:1000] > 0.5))
        p_hat, hits = estimate_tail(kernel, (1.0, 2.0), 10, 0.5, 1000, seed=9)
        assert hits == expected
        assert p_hat == expected / 1000

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            estimate_tail(BrownianMotion(), (1.0, 2.0), 3, 1.0, 0)
        with pytest.raises(ValueError, match="level"):
            estimate_tail(BrownianMotion(), (1.0, 2.0), 3, -0.5, 10)
        with pytest.raises(GridError, match="2 nodes"):
            estimate_tail(BrownianMotion(), (1.0, 2.0), 1, 0.0, 10)


class TestLdpCurve:
    def test_p_hat_exactly_nonincreasing(self):
        est = ldp_curve(
            BrownianMotion(), (1.0, 2.0), 50, [0.5, 1.0, 1.5, 2.0, 2.5], 20_000, seed=3
        )
        assert np.all(np.diff(est.p_hat) <= 0.0)
        assert np.all(est.hits <= est.trials)
        assert np.all(est.p_hat >= 0.0)
        assert np.all(est.log_p_over_u2 <= 0.0)

    def test_bit_identical_reruns(self):
        args = (FractionalBM(0.75), (1.0, 2.0), 40, [1.0, 2.0], 5000)
        a = ldp_curve(*args, seed=8)
        b = ldp_curve(*args, seed=8)
        for field in ("u", "hits", "p_hat", "log_p_over_u2", "ci_halfwidth", "flagged"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_zero_hits_flagged_with_floor(self):
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [6.0, 7.0], 50, seed=0)
        assert est.hits.tolist() == [0, 0]
        assert est.flagged.tolist() == [True, True]
        np.testing.assert_allclose(
            est.log_p_over_u2, [np.log(1 / 50) / 36.0, np.log(1 / 50) / 49.0]
        )
        assert np.all(np.isinf(est.ci_halfwidth))

    def test_theoretical_rate_attachment(self):
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [1.0], 100, seed=0)
        assert est.theoretical_rate is None
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [1.0], 100, seed=0, sigma_sq=1.0)
        assert est.theoretical_rate == -0.5
        # zero energy: the process can vanish, so P(min > u) = 0 for u > 0
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [1.0], 100, seed=0, sigma_sq=0.0)
        assert est.theoretical_rate == -np.inf

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_negative_or_nan_energy_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma_sq"):
            ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [1.0], 100, sigma_sq=bad)

    def test_jitter_is_reported(self):
        # a 1e-6 window of fgn H = 0.9 is nearly constant: the Cholesky
        # factor needs a diagonal shift, which the estimate carries
        kernel, interval = FractionalGaussianNoise(0.9, 1.0), (0.0, 1e-6)
        est = ldp_curve(kernel, interval, 100, [1.0], 100, seed=0)
        _, used = factorize(discretize(kernel, Grid(*interval, 100)))
        assert est.jitter == used > 0.0
        assert ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [1.0], 100).jitter == 0.0

    def test_metadata_fields(self):
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 20, [1.0], 100, seed=5)
        assert isinstance(est, LdpEstimate)
        assert est.interval == (1.0, 2.0)
        assert est.n == 20
        assert est.trials == 100
        assert est.seed == 5

    def test_validation(self):
        kernel = BrownianMotion()
        with pytest.raises(ValueError, match="empty"):
            ldp_curve(kernel, (1.0, 2.0), 20, [], 100)
        with pytest.raises(ValueError, match="positive"):
            ldp_curve(kernel, (1.0, 2.0), 20, [0.0, 1.0], 100)
        with pytest.raises(ValueError, match="increasing"):
            ldp_curve(kernel, (1.0, 2.0), 20, [2.0, 1.0], 100)
        with pytest.raises(ValueError, match="trials"):
            ldp_curve(kernel, (1.0, 2.0), 20, [1.0], 0)

    def test_refining_the_grid_lowers_the_minimum_per_path(self):
        # odd fine grid contains the coarse grid as every other node, so
        # each path's coarse minimum dominates its fine minimum
        paths = sample_paths(FractionalBM(0.75), (1.0, 2.0), 41, 2000, seed=6)
        fine_min = paths.min(axis=1)
        coarse_min = paths[:, ::2].min(axis=1)
        assert np.all(coarse_min >= fine_min)
        u = 0.8
        assert np.count_nonzero(coarse_min > u) >= np.count_nonzero(fine_min > u)


class TestDrawPool:
    """Normals drawn on worker threads give the one-thread stream.

    With _BATCH_DOUBLES = 100 and n = 10 a batch is 10 rows, so 95 trials
    make nine full batches and a ragged one of 5.
    """

    N, TRIALS, BATCH = 10, 95, 10

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", 100)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_paths_and_hits_for_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(_threads, "WORKERS", workers)
        kernel, interval, u = FractionalBM(0.75), (1.0, 2.0), [0.25, 0.5, 1.0]
        want = _serial_paths(kernel, interval, self.N, self.TRIALS, 4, self.BATCH)
        paths = sample_paths(kernel, interval, self.N, self.TRIALS, seed=4)
        np.testing.assert_array_equal(paths, want)
        est = ldp_curve(kernel, interval, self.N, u, self.TRIALS, seed=4)
        hits = np.count_nonzero(want.min(axis=1)[:, None] > np.array(u), axis=0)
        np.testing.assert_array_equal(est.hits, hits)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_call_across_every_block_gives_the_pool_paths(self, monkeypatch, workers):
        monkeypatch.setattr(_threads, "WORKERS", workers)
        kernel, interval, u = FractionalBM(0.75), (1.0, 2.0), [0.25, 0.5, 1.0]
        factor, _ = factorize(discretize(kernel, Grid(*interval, self.N)))
        z = normal_block(4, 0, self.TRIALS, self.N)
        want = np.concatenate([
            z[start : start + self.BATCH] @ factor.T
            for start in range(0, self.TRIALS, self.BATCH)
        ])
        paths = sample_paths(kernel, interval, self.N, self.TRIALS, seed=4)
        np.testing.assert_array_equal(paths, want)
        est = ldp_curve(kernel, interval, self.N, u, self.TRIALS, seed=4)
        hits = np.count_nonzero(want.min(axis=1)[:, None] > np.array(u), axis=0)
        np.testing.assert_array_equal(est.hits, hits)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_look_ahead_is_bounded(self, monkeypatch, workers):
        monkeypatch.setattr(_threads, "WORKERS", workers)
        real = montecarlo.normal_block
        received = 0
        ahead = []  # per draw: its batch index minus the batches handed out

        def recorder(seed, start_trial, trials, draws_per_trial):
            ahead.append(start_trial // self.BATCH - received)
            return real(seed, start_trial, trials, draws_per_trial)

        monkeypatch.setattr(montecarlo, "normal_block", recorder)
        for _ in montecarlo._path_batches(
            BrownianMotion(), (1.0, 2.0), self.N, self.TRIALS, 0
        ):
            time.sleep(0.005)  # a slow consumer lets the workers run ahead
            received += 1
        assert received == len(ahead) == 10
        assert max(ahead) <= workers + 1

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_threads, "WORKERS", 2)
        real = montecarlo.normal_block

        def failing(seed, start_trial, trials, draws_per_trial):
            if start_trial == 3 * self.BATCH:
                raise RuntimeError("draw failed")
            return real(seed, start_trial, trials, draws_per_trial)

        monkeypatch.setattr(montecarlo, "normal_block", failing)
        before = set(threading.enumerate())
        raised = []

        def call():
            try:
                ldp_curve(BrownianMotion(), (1.0, 2.0), self.N, [1.0], self.TRIALS)
            except RuntimeError as exc:
                raised.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == ["draw failed"]
        assert set(threading.enumerate()) <= before  # the pool's threads joined

    @pytest.mark.parametrize("cap", [None, "", "0", "-2", "two"])
    def test_worker_count_falls_back_to_cpu_count(self, cap):
        assert _threads._workers(cap) == (os.cpu_count() or 1)

    def test_worker_count_follows_the_cap_up_to_the_cores(self):
        cores = os.cpu_count() or 1
        assert _threads._workers("1") == 1
        assert _threads._workers(str(cores + 5)) == cores

    def test_cli_import_leaves_the_pool_module_unloaded(self):
        # the executor is imported inside the Monte Carlo loop, so commands
        # that never simulate do not pay for it at start-up
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        code = "import sys, gaussmin.cli; print('concurrent.futures' in sys.modules)"
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert res.stdout.strip() == "False"

    def test_closing_early_joins_the_workers(self, monkeypatch):
        monkeypatch.setattr(_threads, "WORKERS", 2)
        before = set(threading.enumerate())
        batches = montecarlo._path_batches(BrownianMotion(), (1.0, 2.0), self.N, self.TRIALS, 0)
        next(batches)
        batches.close()
        assert set(threading.enumerate()) <= before


class TestMeasuredLevels:
    """Normalized log tails at moderate levels, frozen from pilot runs.

    Bands are centered on values measured with these exact seeds and
    sized at roughly twice the 3 -sigma binomial width, so failures mean
    the sampler changed, not bad luck.
    """

    def test_pinned_smooth_process_level_three(self):
        est = ldp_curve(FractionalBM(0.75), (1.0, 2.0), 200, [3.0], 300_000, seed=11)
        assert not est.flagged[0]
        assert -0.78 <= est.log_p_over_u2[0] <= -0.72

    def test_stationary_noise_level_two(self):
        est = ldp_curve(
            FractionalGaussianNoise(0.75, 1.0), (0.0, 2.0), 200, [2.0], 300_000, seed=11
        )
        assert not est.flagged[0]
        assert -2.3 <= est.log_p_over_u2[0] <= -1.95

    def test_brownian_level_two_and_a_half(self):
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 200, [2.5], 300_000, seed=11)
        assert not est.flagged[0]
        assert -1.06 <= est.log_p_over_u2[0] <= -0.98


    def test_pinned_hit_vectors(self):
        # the benchmark's simulate cases at seeds 22 and 23: exact hits
        # guard the per-block SFC64 ziggurat stream and the batch order
        est = ldp_curve(
            BrownianMotion(), (1.0, 2.0), 200, [1.0, 1.5, 2.0, 2.5], 200_000, seed=22
        )
        assert est.hits.tolist() == [12382, 4579, 1438, 357]
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 1000, [1.0, 1.5, 2.0], 25_000, seed=23)
        assert est.hits.tolist() == [1528, 544, 164]
