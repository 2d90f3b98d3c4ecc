"""Monte Carlo engine: factorization, counter-based draws, tail estimates."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmin import _threads, montecarlo
from gaussmin import (
    BrownianMotion,
    DiscretizedProblem,
    DomainError,
    FactorizationError,
    FractionalBM,
    FractionalGaussianNoise,
    Grid,
    GridError,
    LdpEstimate,
    discretize,
    factorize,
    ldp_curve,
)
from oracles import discrete_min_tail, reflection_tail


def _column_ranges(n):
    # column blocks of widths 8, 16, 32, ..., the last cut at n
    c0, width = 0, 8
    while c0 < n:
        yield c0, min(n, c0 + width)
        c0, width = c0 + width, 2 * width


def _column_draw(seed, k, c, rows, width):
    bits = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k, c)))
    return np.random.Generator(bits).standard_normal((rows, width))


def _serial_paths(factor, seed, trials, rows, floor=-np.inf):
    # the pruned column-block stream, frozen, one trial block at a time:
    # column block c of trial block k is drawn row-major for the trials
    # whose path so far stays above floor, and each path is rebuilt from
    # its first normals; coordinates never built are nan
    n = factor.shape[0]
    z = np.zeros((trials, n))
    paths = np.full((trials, n), np.nan)
    for k, start in enumerate(range(0, trials, rows)):
        alive = np.arange(start, min(start + rows, trials))
        for c, (c0, c1) in enumerate(_column_ranges(n)):
            z[alive, c0:c1] = _column_draw(seed, k, c, alive.size, c1 - c0)
            paths[alive, :c1] = z[alive, :c1] @ factor[:c1, :c1].T
            alive = alive[paths[alive, :c1].min(axis=1) > floor]
    return paths


def _stream_minima(seed, trials, factor, floor=-np.inf):
    # _block_minima over every trial block of one call, in trial order
    rows = montecarlo._block_rows(factor.shape[0])
    return np.concatenate([
        montecarlo._block_minima(seed, k, trials, factor, floor)
        for k in range(-(-trials // rows))
    ])


def _problem(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return DiscretizedProblem(None, matrix.__getitem__, np.diagonal(matrix))


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

    def test_indefinite_matrix_raises(self):
        # eigenvalues 3 and -1: no tiny diagonal shift can rescue it
        with pytest.raises(FactorizationError):
            factorize(_problem(np.array([[1.0, 2.0], [2.0, 1.0]])))


class TestNormalBlock:
    """The fixed trial blocks of normals, read through _block_minima.

    With an identity factor a path is its normals, so with no floor a row's
    minimum is the minimum of its normals, and at n = 1 its one normal.
    """

    def test_schedule_independence(self):
        # every row is alive in the first column block, so up to 8 nodes
        # the minima do not depend on the floor
        eye = np.eye(7)
        full = _stream_minima(123, 200, eye)
        for floor in (0.0, 1.0):
            np.testing.assert_array_equal(_stream_minima(123, 200, eye, floor), full)

    @pytest.mark.parametrize("draws", [1, 4, 5, 8, 200])
    def test_any_width_splits_identically(self, draws):
        # pruned at 0, the first 32 trials of a 64-trial call are a 32-trial call
        eye = np.eye(draws)
        full = _stream_minima(7, 64, eye, floor=0.0)
        np.testing.assert_array_equal(full[:32], _stream_minima(7, 32, eye, floor=0.0))

    def test_deterministic_per_seed(self):
        eye = np.eye(3)
        np.testing.assert_array_equal(_stream_minima(5, 20, eye), _stream_minima(5, 20, eye))
        assert not np.array_equal(_stream_minima(5, 20, eye), _stream_minima(6, 20, eye))

    def test_shape(self, monkeypatch):
        # at 30 doubles a block is 6 trials of 5 nodes: 13 trials are 6, 6, 1
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", 30)
        sizes = [montecarlo._block_minima(0, k, 13, np.eye(5), -np.inf).size for k in range(3)]
        assert sizes == [6, 6, 1]

    @pytest.mark.parametrize("batch_doubles", [100, 4_000_000])
    @pytest.mark.parametrize("draws", [1, 7, 201])
    def test_matches_frozen_ziggurat_blocks(self, monkeypatch, batch_doubles, draws):
        # at 100 doubles a block is 100, 14 or 1 trials: 357 trials cross
        # block boundaries, the last block ragged
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", batch_doubles)
        rows = max(1, batch_doubles // draws)
        eye = np.eye(draws)
        np.testing.assert_array_equal(
            _stream_minima(31, 357, eye), _serial_paths(eye, 31, 357, rows).min(axis=1)
        )

    @pytest.mark.parametrize("draws", [1, 3, 10, 150])
    def test_splits_straddling_blocks_equal_the_whole_draw(self, monkeypatch, draws):
        # at 30 doubles a block is 30, 10, 3 or 1 trials, so every total
        # below ends a call inside a block or on a boundary between two;
        # the rows a call has are the first rows of a longer call's
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", 30)
        eye = np.eye(draws)
        full = _stream_minima(3, 100, eye, floor=0.0)
        for total in (1, 9, 11, 29, 31, 45, 59, 61, 70, 99):
            np.testing.assert_array_equal(
                _stream_minima(3, total, eye, floor=0.0), full[:total]
            )

    def test_moments(self):
        z = _stream_minima(2, 24_000, np.eye(1))
        n = z.size
        assert abs(z.mean()) <= 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)


class TestSamplePaths:
    def test_sample_covariance_matches_kernel(self):
        kernel = BrownianMotion()
        trials = 100_000
        factor, _ = factorize(discretize(kernel, Grid(1.0, 2.0, 3)))
        paths = _serial_paths(factor, 4, trials, montecarlo._block_rows(3))
        t = Grid(1.0, 2.0, 3).nodes
        true = np.minimum(t[:, None], t[None, :])
        sample = paths.T @ paths / trials
        # se of a covariance entry for centered Gaussians
        se = np.sqrt((np.outer(np.diag(true), np.diag(true)) + true**2) / trials)
        assert np.all(np.abs(sample - true) <= 5.0 * se)

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials"):
            montecarlo._hits(BrownianMotion(), (1.0, 2.0), 3, np.array([0.0]), 0, 0)

    def test_trial_rows_do_not_depend_on_total(self):
        factor, _ = factorize(discretize(BrownianMotion(), Grid(1.0, 2.0, 10)))
        a = _stream_minima(9, 300, factor)
        np.testing.assert_array_equal(a[:100], _stream_minima(9, 100, factor))


class TestEstimateTail:
    """One-level tail estimates: ldp_curve at a single level."""

    def test_level_zero_two_nodes_is_three_eighths(self):
        # nodes 1 and 2 carry a centered bivariate normal with correlation
        # 1/sqrt(2), so P(both > 0) = 1/4 + arcsin(1/sqrt(2)) / (2 pi) = 3/8;
        # ldp_curve takes only positive levels, so count at 0 directly
        trials, p = 100_000, 3.0 / 8.0
        hits, _ = montecarlo._hits(BrownianMotion(), (1.0, 2.0), 2, np.array([0.0]), trials, 1)
        assert hits[0] == pytest.approx(p * trials, abs=3 * np.sqrt(p * (1.0 - p) * trials))

    def test_matches_transition_quadrature_oracle(self):
        # frozen reference: 1e6 paths on 200 nodes against the discrete
        # minimum oracle at the same nodes
        trials, n, u = 1_000_000, 200, 1.0
        p_hat = ldp_curve(BrownianMotion(), (1.0, 2.0), n, [u], trials, seed=2026).p_hat[0]
        p_true = discrete_min_tail(1.0, 2.0, n, u)
        se = np.sqrt(p_true * (1.0 - p_true) / trials)
        assert abs(p_hat - p_true) <= 3.0 * se
        # the grid minimum only overshoots the continuum minimum, so the
        # estimate must dominate the reflection value up to noise
        assert p_hat >= reflection_tail(1.0, 2.0, u) - 3.0 * se

    def test_counts_are_prefix_consistent(self):
        # the first 1000 trials of a 3000-trial run pruned at the same level;
        # at n = 10 one trial block holds 400,000 trials
        kernel = FractionalBM(0.75)
        factor, _ = factorize(discretize(kernel, Grid(1.0, 2.0, 10)))
        minima = np.nanmin(_serial_paths(factor, 9, 3000, 400_000, floor=0.5), axis=1)
        expected = int(np.count_nonzero(minima[:1000] > 0.5))
        est = ldp_curve(kernel, (1.0, 2.0), 10, [0.5], 1000, seed=9)
        assert est.hits[0] == expected
        assert est.p_hat[0] == expected / 1000

    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_equals_the_lowest_level_of_a_curve(self, u):
        # both prune at u, so they draw the same normals
        kernel, interval = FractionalBM(0.75), (1.0, 2.0)
        hits = ldp_curve(kernel, interval, 30, [u], 5000, seed=3).hits[0]
        assert hits == ldp_curve(kernel, interval, 30, [u, u + 1.0], 5000, seed=3).hits[0]

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            ldp_curve(BrownianMotion(), (1.0, 2.0), 3, [1.0], 0)
        with pytest.raises(ValueError, match="positive"):
            ldp_curve(BrownianMotion(), (1.0, 2.0), 3, [-0.5], 10)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ldp_curve(BrownianMotion(), (1.0, 2.0), 3, [bad], 10)
        with pytest.raises(GridError, match="2 nodes"):
            ldp_curve(BrownianMotion(), (1.0, 2.0), 1, [1.0], 10)


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
        for bad in ([1.0, float("nan"), 2.0], [float("nan")], [1.0, float("inf")]):
            with pytest.raises(ValueError, match="finite"):
                ldp_curve(kernel, (1.0, 2.0), 20, bad, 100)
        with pytest.raises(ValueError, match="trials"):
            ldp_curve(kernel, (1.0, 2.0), 20, [1.0], 0)


@st.composite
def pruning_cases(draw):
    # an fgn or fbm grid, one ragged trial block, and a floor below every
    # path value, inside the first column block's values, or above them all
    hurst = draw(st.floats(0.1, 0.95))
    n = draw(st.integers(2, 300))
    if draw(st.booleans()):
        kernel, interval = FractionalGaussianNoise(hurst, 1.0), (0.0, 2.0)
    else:
        kernel, interval = FractionalBM(hurst), (1.0, 2.0)
    trials = draw(st.integers(1, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    factor, _ = factorize(discretize(kernel, Grid(*interval, n)))
    paths = _serial_paths(factor, seed, trials, trials)
    first = np.sort(paths[:, :8].ravel())
    where = draw(st.sampled_from(["below", "inside", "above"]))
    if where == "below":
        floor = paths.min() - 1.0
    elif where == "above":
        floor = first[-1] + 1.0
    else:
        k = draw(st.integers(0, first.size - 2))
        floor = 0.5 * (first[k] + first[k + 1])
    return factor, trials, seed, floor


class TestPathMinima:
    """The per-block pruned product against the frozen pruned stream.

    At n <= 300 one trial block holds every trial, so block 0 is ragged.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pruning_cases())
    def test_matches_the_full_product(self, case):
        factor, trials, seed, floor = case
        minima = montecarlo._block_minima(seed, 0, trials, factor, floor)
        oracle = _serial_paths(factor, seed, trials, trials, floor)
        want = np.nanmin(oracle, axis=1)
        kept = minima > floor
        np.testing.assert_array_equal(kept, want > floor)
        np.testing.assert_allclose(
            minima[kept], want[kept], rtol=1e-12, atol=1e-12 * np.nanmax(np.abs(oracle))
        )
        assert np.all(minima[~kept] <= floor)
        levels = floor + np.array([0.0, 0.3, 0.7])
        np.testing.assert_array_equal(
            np.count_nonzero(minima[:, None] > levels, axis=0),
            np.count_nonzero(want[:, None] > levels, axis=0),
        )


def _brownian_factor(t):
    # the dense lower Cholesky factor of min(s, t) on nodes t >= 0, with a
    # zero first row and column when t[0] = 0 makes the matrix singular
    factor = np.zeros((t.size, t.size))
    j = int(t[0] == 0.0)
    factor[j:, j:] = np.linalg.cholesky(np.minimum.outer(t[j:], t[j:]))
    return factor


@st.composite
def brownian_cases(draw):
    # Brownian motion on [a, b] with a >= 0, one ragged trial block, and a
    # floor chosen as in pruning_cases from the dense factor's paths
    a = draw(st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 4.0))
    b = a + draw(st.floats(0.25, 4.0))
    n = draw(st.integers(2, 300))
    trials = draw(st.integers(1, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = Grid(a, b, n)
    steps, jitter = montecarlo._path_factor(BrownianMotion(), grid)
    assert jitter == 0.0
    dense = _brownian_factor(grid.nodes)
    paths = _serial_paths(dense, seed, trials, trials)
    first = np.sort(paths[:, :8].ravel())
    where = draw(st.sampled_from(["below", "inside", "above"]))
    if where == "below":
        floor = paths.min() - 1.0
    elif where == "above":
        floor = first[-1] + 1.0
    else:
        k = draw(st.integers(0, first.size - 2))
        floor = 0.5 * (first[k] + first[k + 1])
    return steps, dense, trials, seed, floor, np.nanmax(np.abs(paths))


class TestBrownianWalk:
    """Brownian paths as running sums of the scaled normals, no factor."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(brownian_cases())
    def test_matches_the_dense_factor(self, case):
        steps, dense, trials, seed, floor, scale = case
        walk = montecarlo._block_minima(seed, 0, trials, steps, floor)
        want = montecarlo._block_minima(seed, 0, trials, dense, floor)
        np.testing.assert_allclose(walk, want, rtol=1e-12, atol=1e-12 * scale)
        levels = floor + np.array([0.0, 0.3, 0.7])
        np.testing.assert_array_equal(
            np.count_nonzero(walk[:, None] > levels, axis=0),
            np.count_nonzero(want[:, None] > levels, axis=0),
        )

    @pytest.mark.parametrize("n", [9, 200, 1000])
    def test_row_and_column_sums_give_the_same_bits(self, monkeypatch, n):
        # cumsum along rows and the column loop make the same adds in the
        # same order, so the choice between them moves no bit
        steps, _ = montecarlo._path_factor(BrownianMotion(), Grid(1.0, 2.0, n))
        runs = []
        for walk_rows in (0, 10**9):
            monkeypatch.setattr(montecarlo, "_WALK_ROWS", walk_rows)
            runs.append(_stream_minima(5, 6000, steps, 0.5))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_zero_variance_at_the_first_node(self):
        est = ldp_curve(BrownianMotion(), (0.0, 1.0), 50, [0.5, 1.0], 1000, seed=0)
        assert est.jitter == 0.0
        assert est.hits.tolist() == [0, 0]

    def test_node_below_zero_raises(self):
        with pytest.raises(DomainError, match="nonnegative"):
            ldp_curve(BrownianMotion(), (-1.0, 1.0), 10, [1.0], 100)

    def test_fine_grid_in_linear_memory(self):
        # the dense factor at n = 6401 alone is 328 MB
        tracemalloc.start()
        try:
            ldp_curve(BrownianMotion(), (1.0, 2.0), 6401, [1.0], 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestDrawPool:
    """Trial blocks taken on worker threads give the one-thread stream.

    With _BATCH_DOUBLES = 100 and n = 10 a block is 10 trials, so 95 trials
    make nine full blocks and a ragged one of 5.
    """

    N, TRIALS, BATCH = 10, 95, 10
    KERNEL, INTERVAL, U = FractionalBM(0.75), (1.0, 2.0), [0.25, 0.5, 1.0]

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", 100)

    @pytest.fixture
    def pool_log(self, monkeypatch):
        # a ThreadPoolExecutor that logs, at each submission, the blocks
        # submitted and not yet taken by result(), and the blocks started
        import concurrent.futures

        log = {"pending": [], "started": [], "open": 0, "takes": 0, "interrupt_take": None}
        base = concurrent.futures.ThreadPoolExecutor

        class Logging(base):
            def submit(self, fn, k):
                def run(k):
                    log["started"].append(k)
                    return fn(k)

                future = super().submit(run, k)
                log["open"] += 1
                log["pending"].append(log["open"])
                result = future.result

                def taken(timeout=None):
                    log["open"] -= 1
                    log["takes"] += 1
                    if log["takes"] == log["interrupt_take"]:
                        raise KeyboardInterrupt
                    return result(timeout)

                future.result = taken
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Logging)
        return log

    def _factor(self):
        return factorize(discretize(self.KERNEL, Grid(*self.INTERVAL, self.N)))[0]

    def _curve(self, trials=TRIALS):
        return ldp_curve(self.KERNEL, self.INTERVAL, self.N, self.U, trials, seed=4)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_paths_and_hits_for_any_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(_threads, "WORKERS", workers)
        pruned = _serial_paths(self._factor(), 4, self.TRIALS, self.BATCH, floor=self.U[0])
        minima = np.nanmin(pruned, axis=1)
        hits = np.count_nonzero(minima[:, None] > np.array(self.U), axis=0)
        np.testing.assert_array_equal(self._curve().hits, hits)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_call_across_every_block_gives_the_pool_paths(self, monkeypatch, workers):
        monkeypatch.setattr(_threads, "WORKERS", workers)
        factor = self._factor()
        # the pool's hits are the one-thread loop's over the same blocks
        minima = _stream_minima(4, self.TRIALS, factor, self.U[0])
        hits = np.count_nonzero(minima[:, None] > np.array(self.U), axis=0)
        np.testing.assert_array_equal(self._curve().hits, hits)
        # with a floor below every path value no row leaves
        want = _serial_paths(factor, 4, self.TRIALS, self.BATCH)
        np.testing.assert_allclose(
            _stream_minima(4, self.TRIALS, factor), want.min(axis=1), rtol=1e-12
        )

    def test_ragged_last_block_gives_the_rows_of_a_longer_run(self):
        factor = self._factor()
        short = montecarlo._block_minima(4, 9, self.TRIALS, factor, self.U[0])
        full = montecarlo._block_minima(4, 9, 100, factor, self.U[0])
        assert short.size == 5
        np.testing.assert_array_equal(short, full[:5])
        minima = _stream_minima(4, 100, factor, self.U[0])
        hits = np.count_nonzero(minima[: self.TRIALS, None] > np.array(self.U), axis=0)
        np.testing.assert_array_equal(self._curve().hits, hits)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_look_ahead_is_bounded(self, monkeypatch, pool_log, workers):
        monkeypatch.setattr(_threads, "WORKERS", workers)
        real = montecarlo._block_minima

        def slow(*args):
            time.sleep(0.005)  # slow workers: the caller waits on every take
            return real(*args)

        monkeypatch.setattr(montecarlo, "_block_minima", slow)
        self._curve()
        assert sorted(pool_log["started"]) == list(range(10))
        assert len(pool_log["pending"]) == 10
        assert max(pool_log["pending"]) == workers + 1
        assert pool_log["open"] == 0

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_threads, "WORKERS", 2)
        real = montecarlo._block_minima

        def failing(seed, k, trials, factor, floor):
            if k == 3:
                raise RuntimeError("draw failed")
            return real(seed, k, trials, factor, floor)

        monkeypatch.setattr(montecarlo, "_block_minima", failing)
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
        # that never simulate do not pay for it at start-up; likewise
        # numpy.fft, which only the solver's whole-grid step reads
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        code = (
            "import sys, gaussmin.cli; "
            "print('concurrent.futures' in sys.modules, 'numpy.fft' in sys.modules)"
        )
        res = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        pool, fft = res.stdout.split()
        assert pool == "False"
        assert fft == "False"

    def test_closing_early_joins_the_workers(self, monkeypatch, pool_log):
        # the caller is interrupted as it takes the second block: no later
        # block is submitted or started, and the pool's threads are joined
        monkeypatch.setattr(_threads, "WORKERS", 2)
        pool_log["interrupt_take"] = 2  # blocks 0 to 3 are submitted by then
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            self._curve()
        assert set(threading.enumerate()) <= before
        assert len(pool_log["pending"]) == 4
        assert set(pool_log["started"]) <= set(range(4))


_FACTOR_SCRIPT = """
import sys
from gaussmin import FractionalBM, ldp_curve, montecarlo

factors = []
real = montecarlo.factorize


def record(problem):
    factor, used = real(problem)
    factors.append(factor)
    return factor, used


montecarlo.factorize = record
ldp_curve(FractionalBM(0.75), (1.0, 2.0), 200, [1.0], 1000, seed=0)
sys.stdout.buffer.write(factors[0].tobytes())
"""


class TestBlasThreads:
    """Hit counting runs with numpy's bundled OpenBLAS on one thread."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        # 1000 trials per block at n = 50, so a curve takes 20 blocks
        monkeypatch.setattr(montecarlo, "_BATCH_DOUBLES", 50_000)

    @pytest.fixture
    def blas(self):
        # (get, set) of the OpenBLAS thread count, set above one thread for
        # the test where the library allows it, and reset afterwards
        calls = _threads._openblas()
        if calls is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, set_ = calls
        previous = get()
        set_(2)
        yield get
        set_(previous)

    def _curve(self):
        return ldp_curve(BrownianMotion(), (1.0, 2.0), 50, [0.5, 1.0], 20_000, seed=3)

    def test_factor_does_not_depend_on_the_thread_cap(self):
        # a Cholesky factor computed by two OpenBLAS threads differs from a
        # one-thread factor at rounding level, so each cap is a fresh
        # interpreter whose BLAS variables come from the cap alone
        src = os.path.dirname(os.path.dirname(montecarlo.__file__))
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        factors = [
            subprocess.run(
                [sys.executable, "-c", _FACTOR_SCRIPT],
                env={**env, "PYTHONPATH": src, "GAUSSMIN_THREADS": cap},
                capture_output=True,
                check=True,
                timeout=120,
            ).stdout
            for cap in ("1", "2")
        ]
        assert len(factors[0]) == 200 * 200 * 8
        assert factors[0] == factors[1]

    def test_one_thread_inside_and_the_count_restored_after(self, blas, monkeypatch):
        expected = blas()
        seen = []
        real_factorize, real_minima = montecarlo.factorize, montecarlo._block_minima

        def factorize_logged(problem):
            seen.append(blas())
            return real_factorize(problem)

        def minima_logged(*args):
            seen.append(blas())
            return real_minima(*args)

        monkeypatch.setattr(montecarlo, "factorize", factorize_logged)
        monkeypatch.setattr(montecarlo, "_block_minima", minima_logged)
        self._curve()
        assert len(seen) > 2 and set(seen) == {1}
        assert blas() == expected

    def test_count_restored_when_a_worker_raises(self, blas, monkeypatch):
        expected = blas()
        real = montecarlo._block_minima

        def failing(seed, k, trials, factor, floor):
            if k == 1:
                raise RuntimeError("draw failed")
            return real(seed, k, trials, factor, floor)

        monkeypatch.setattr(montecarlo, "_block_minima", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            self._curve()
        assert blas() == expected

    def test_overlapping_callers_restore_once(self, blas):
        expected = blas()
        with _threads.one_blas_thread():
            with _threads.one_blas_thread():
                assert blas() == 1
            assert blas() == 1  # the outer caller is still inside
        assert blas() == expected

    def test_missing_symbols_give_the_same_hits(self, monkeypatch):
        # under another BLAS the symbols do not resolve and nothing is set
        import ctypes

        expected = self._curve().hits
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        _threads._openblas.cache_clear()
        try:
            assert _threads._openblas() is None
            np.testing.assert_array_equal(self._curve().hits, expected)
        finally:
            _threads._openblas.cache_clear()


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
        # guard the column-block SFC64 ziggurat stream drawn for the paths
        # still above the lowest level
        est = ldp_curve(
            BrownianMotion(), (1.0, 2.0), 200, [1.0, 1.5, 2.0, 2.5], 200_000, seed=22
        )
        assert est.hits.tolist() == [12293, 4520, 1358, 349]
        est = ldp_curve(BrownianMotion(), (1.0, 2.0), 1000, [1.0, 1.5, 2.0], 25_000, seed=23)
        assert est.hits.tolist() == [1503, 562, 177]
