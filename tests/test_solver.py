"""Active-set solver: discretization, convergence, certificates, extraction."""

import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmin import (
    BrownianMotion,
    DegenerateKernelError,
    DiscreteMeasure,
    DiscretizedProblem,
    DomainError,
    EmptyMeasureError,
    FractionalBM,
    FractionalGaussianNoise,
    Grid,
    IncrementOf,
    SolverResult,
    Tabulated,
    c_star,
    discretize,
    energy,
    extract_measure,
    solve,
    three_point,
)
from gaussmin import _threads, solver
from gaussmin.kernels import Kernel
from gaussmin.solver import _face_minimum
from oracles import nnls_min_energy

README_SIGMA_SQ = 0.5744706733790146


def _problem(matrix):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    grid = Grid(0.0, 1.0, n)
    matrix = 0.5 * (matrix + matrix.T)
    matrix.flags.writeable = False
    return DiscretizedProblem(grid, matrix.__getitem__, np.diagonal(matrix))


class TestDiscretize:
    def test_matrix_is_covariance_on_nodes(self):
        kernel = BrownianMotion()
        grid = Grid(1.0, 2.0, 5)
        prob = discretize(kernel, grid)
        t = grid.nodes
        np.testing.assert_array_equal(prob.matrix, np.minimum(t[:, None], t[None, :]))
        assert prob.grid is grid

    def test_matrix_exactly_symmetric_and_read_only(self):
        prob = discretize(FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 2.0, 41))
        np.testing.assert_array_equal(prob.matrix, prob.matrix.T)
        with pytest.raises(ValueError):
            prob.matrix[0, 0] = 0.0

    @pytest.mark.parametrize(
        "kernel, a, b, n",
        [
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0, 401),
            (FractionalGaussianNoise(0.3, 1.0), 0.0, 3.0, 401),
            (IncrementOf(FractionalBM(0.75), 0.5), 1.0, 2.5, 301),
        ],
    )
    def test_stationary_toeplitz_matches_pairwise_build(self, kernel, a, b, n):
        # For H < 1/2, Gamma has infinite slope at tau = h, so on a grid with
        # a node pair exactly h apart the pairwise build scatters by ~1e-10
        # along that diagonal (rounding in t_j - t_i); the H=0.3 grid here
        # has no such pair, and the Toeplitz build uses one lag per diagonal.
        grid = Grid(a, b, n)
        t = grid.nodes
        matrix = discretize(kernel, grid).matrix
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_allclose(
            matrix, kernel.cov(t[:, None], t[None, :]), rtol=0.0, atol=1e-14
        )


def _lag_build(t, H):
    """Frozen lag build of fBm: 0.5 * ((V(t_i) + V(t_j)) - V(t_{|i - j|} - t_0))."""
    v = t ** (2.0 * H)
    lags = (t - t[0]) ** (2.0 * H)
    i = np.arange(t.size)
    return 0.5 * ((v[:, None] + v[None, :]) - lags[np.abs(i[:, None] - i[None, :])])


class TestTiledDiscretize:
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 513, 1601])
    @pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.75, 0.95])
    def test_equals_averaged_full_matrix(self, H, n):
        # n from the smallest grid up to the bench size
        t = Grid(0.5, 3.0, n).nodes
        kernel = FractionalBM(H)
        # the reference is the full-matrix build, frozen: every entry is
        # 0.5 * (cov(s, t) + cov(t, s))
        full = kernel.cov(t[:, None], t[None, :])
        matrix = discretize(kernel, Grid(0.5, 3.0, n)).matrix
        assert matrix.flags.c_contiguous
        np.testing.assert_array_equal(matrix, matrix.T)
        if H == 0.5:
            # Brownian motion is read through cov, exact min(s, t)
            np.testing.assert_array_equal(matrix, 0.5 * (full + full.T))
        else:
            # the lag build reads the lag t_j - t_i as t_{|i - j|} - t_0,
            # which moves an entry by rounding only; the largest gap, about
            # 1e-14, is at small H, where V is steepest at the first lag
            np.testing.assert_array_equal(matrix, _lag_build(t, H))
            np.testing.assert_allclose(matrix, full, rtol=0.0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        H=st.floats(0.02, 0.98).filter(lambda H: H != 0.5),
        a=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        width=st.floats(0.01, 10.0),
        n=st.integers(2, 300),
    )
    def test_lag_build_property(self, H, a, width, n):
        grid = Grid(a, a + width, n)
        t = grid.nodes
        matrix = discretize(FractionalBM(H), grid).matrix
        np.testing.assert_array_equal(matrix, _lag_build(t, H))
        np.testing.assert_array_equal(matrix, matrix.T)
        # each rounded node moves a lag by a few eps * b; V's slope is
        # largest at the first lag (H < 1/2) or at b (H > 1/2)
        b = t[-1]
        slope = 2.0 * H * max(grid.step ** (2.0 * H - 1.0), b ** (2.0 * H - 1.0))
        tol = 4.0 * np.finfo(float).eps * (max(1.0, b ** (2.0 * H)) + b * slope)
        full = FractionalBM(H).cov(t[:, None], t[None, :])
        np.testing.assert_allclose(matrix, full, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("n", [5, 257, 1001])
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.75])
    def test_grid_crossing_the_origin_is_a_domain_error(self, H, n):
        # the lag build (H != 1/2) and the cov reads (H = 1/2), at small
        # and large n
        with pytest.raises(DomainError, match="nonnegative"):
            discretize(FractionalBM(H), Grid(-0.5, 1.0, n))

    def test_peak_memory_is_about_one_matrix(self):
        # the full-matrix build held the covariance, its transpose sum and
        # the average at once, three matrices' bytes; a table is gathered
        # in one call from one lookup per node and argument
        grid = Grid(1.0, 2.0, 1601)
        t = grid.nodes
        table = Tabulated(t, FractionalBM(0.75).cov(t[:, None], t[None, :]))
        kernels = {"fbm": FractionalBM(0.75), "bm": BrownianMotion(), "tabulated": table}
        for name, kernel in kernels.items():
            tracemalloc.start()
            try:
                matrix = discretize(kernel, grid).matrix
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * matrix.nbytes, name

    @pytest.mark.parametrize("kind", ["bm", "fbm"])
    def test_overflow_at_the_float_range_is_degenerate(self, run_cli, write_ini, kind):
        # bm's covariance at b is finite, but its variance there is past
        # half the float range, so 2 M w would overflow in solve; fbm's
        # powers overflow in the kernel itself
        kernel = BrownianMotion() if kind == "bm" else FractionalBM(0.75)
        with pytest.raises(DegenerateKernelError, match="covariance overflows"):
            discretize(kernel, Grid(0.0, 1e308, 2))
        body = (
            f"[kernel]\nkind = {kind}\n" + ("H = 0.75\n" if kind == "fbm" else "")
            + "[interval]\na = 0.0\nb = 1e+308\n[grid]\nn = 2\n"
        )
        code, out, err = run_cli("solve", "--config", write_ini("s.ini", body))
        assert (code, out) == (5, "")
        assert err.startswith("numerical failure: covariance overflows")

    @pytest.mark.parametrize("variance", [1e308, 1.5e308])
    def test_tabulated_variance_past_half_the_float_range_is_degenerate(
        self, run_cli, write_ini, tmp_path, variance
    ):
        # an exactly symmetric, finite table, but solve forms 2 M w
        table = np.diag([1.0, variance, 1.0])
        with pytest.raises(DegenerateKernelError, match="covariance overflows"):
            discretize(Tabulated(np.linspace(0.0, 1.0, 3), table), Grid(0.0, 1.0, 3))
        lines = ["i,j,value"] + [
            f"{i},{j},{float(table[i, j])!r}" for i in range(3) for j in range(3)
        ]
        (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
        body = (
            "[kernel]\nkind = tabulated\npath = m.csv\n"
            "[interval]\na = 0.0\nb = 1.0\n[grid]\nn = 3\n"
        )
        code, out, err = run_cli("solve", "--config", write_ini("s.ini", body))
        assert (code, out) == (5, "")
        assert err.startswith("numerical failure: covariance overflows")

    def test_tabulated_table_asymmetric_at_rounding_level(self):
        nodes = np.linspace(0.0, 1.0, 5)
        table = 1.0 + np.minimum(nodes[:, None], nodes[None, :])
        table[1, 3] += 1e-13
        kernel = Tabulated(nodes, table)
        s, t = np.meshgrid(nodes, nodes, indexing="ij")
        np.testing.assert_array_equal(kernel.cov(s, t), kernel.cov(t, s))
        matrix = discretize(kernel, Grid(0.0, 1.0, 5)).matrix
        np.testing.assert_array_equal(matrix, 0.5 * (table + table.T))


def _kernel_on(kind, H, grid):
    """A kernel of each discretize branch; a table holds fBm H on the nodes."""
    if kind == "fgn":
        return FractionalGaussianNoise(H, 1.0)
    if kind == "increment":
        return IncrementOf(BrownianMotion(), 0.5)
    if kind == "fbm":
        return FractionalBM(H)
    if kind == "bm":
        return BrownianMotion()
    t = grid.nodes
    return Tabulated(t, FractionalBM(H).cov(t[:, None], t[None, :]))


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRows:
    @pytest.mark.parametrize("kind", ["fgn", "increment", "fbm", "bm", "tabulated"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        H=st.floats(0.05, 0.95).filter(lambda H: H != 0.5),
        a=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        width=st.floats(0.01, 10.0),
        n=st.integers(2, 120),
        data=st.data(),
    )
    def test_rows_are_the_matrix_rows(self, kind, H, a, width, n, data):
        grid = Grid(a, a + width, n)
        prob = discretize(_kernel_on(kind, H, grid), grid)
        picked = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        # rows read before the whole matrix exists, as solve reads them
        indexes = [np.unique(picked), np.array(picked), picked[0]]
        rows = [prob.rows(idx) for idx in indexes]
        matrix = prob.matrix
        for idx, block in zip(indexes, rows):
            assert _same_bits(block, matrix[idx]), idx
        assert _same_bits(prob.diagonal, np.diagonal(matrix))
        assert prob.matrix is matrix
        # where lags is set, M[i, j] = lags[|i - j|] + (u_i + u_j) / 2 with
        # u = diagonal - lags[0]: exactly for stationary kernels, whose u is
        # 0, and up to rounding for fBm, whose rows subtract before halving
        if kind in ("bm", "tabulated"):
            assert prob.lags is None
            return
        u = prob.diagonal - prob.lags[0]
        i = np.arange(n)
        built = prob.lags[np.abs(i[:, None] - i[None, :])] + np.add.outer(u, u) / 2
        if kind == "fbm":
            atol = 4.0 * np.finfo(float).eps * np.max(np.abs(matrix))
            np.testing.assert_allclose(built, matrix, rtol=0.0, atol=atol)
        else:
            assert _same_bits(built, matrix)

    @pytest.mark.parametrize(
        "kernel, a, b",
        [(FractionalBM(0.75), 1.0, 2.0), (FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0)],
    )
    def test_atomic_minimizer_never_builds_the_matrix(self, kernel, a, b):
        # the left-endpoint Dirac and the two-point measure read one to
        # four rows of the 20 MB matrix
        n = 1601
        tracemalloc.start()
        try:
            prob = discretize(kernel, Grid(a, b, n))
            result = solve(prob, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert "matrix" not in vars(prob)
        assert peak < 0.05 * 8 * n * n

    def test_dense_rounds_peak_memory(self):
        # H = 1/2 noise drops nodes from its first round on, so every round
        # solves its face system by a dense LU; the face's rows are kept in
        # grid order, and a second copy of them made on entry would raise
        # the peak past this bound
        n = 1601
        prob = discretize(FractionalGaussianNoise(0.5, 1.0), Grid(0.0, 3.0, n))
        tracemalloc.start()
        try:
            result = solve(prob, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 1.6 * 8 * n * n

    def test_hundred_thousand_nodes_solve_without_the_matrix(self):
        # the whole matrix would take 75 GiB
        start = time.perf_counter()
        result = solve(discretize(FractionalBM(0.75), Grid(1.0, 2.0, 100_001)), tol=1e-9)
        elapsed = time.perf_counter() - start
        assert result.converged
        assert result.energy == 1.0
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "kernel, a, b, n",
        [
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0, 401),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 1.0, 401),
            (FractionalGaussianNoise(0.3, 1.0), 0.0, 3.0, 401),
            (FractionalBM(0.75), 1.0, 2.0, 1601),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0, 1601),
            (FractionalGaussianNoise(0.5, 1.0), 0.0, 3.0, 401),
            (FractionalBM(0.3), 1.0, 2.0, 401),
            (FractionalGaussianNoise(0.9, 1.0), 0.0, 1.5, 401),
        ],
    )
    def test_same_rounds_as_the_dense_loop(self, kernel, a, b, n):
        # the rounds, the support and the energies at rounding level must
        # agree; the bound 8 eps was fixed before factored rounds were
        # written.  Rough kernels (H = 0.3 noise and fBm) fill the grid and
        # end early on the whole-grid step, so their rounds agree up to
        # that one
        prob = discretize(kernel, Grid(a, b, n))
        result = solve(prob, tol=1e-9, max_iter=200_000)
        with _threads.one_blas_thread():
            weights, trace, iterations, energy_ = _dense_solve(prob.matrix, 1e-9, 200_000)
        rounds = result.iterations
        hurst = kernel.base.H if kernel.stationary else kernel.H
        if hurst < 0.5:
            assert rounds < iterations
        else:
            assert rounds == iterations
        np.testing.assert_array_equal(result.weights > 0.0, weights > 0.0)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(
            result.energy_trace[:rounds], trace[:rounds], rtol=8.0 * eps, atol=0.0
        )
        np.testing.assert_allclose(result.energy_trace[-1], trace[-1], rtol=8.0 * eps, atol=0.0)
        # the certificate sums the last gradient, not M @ w
        assert abs(result.energy - energy_) <= 8.0 * eps * abs(energy_)


def _dense_solve(M, tol, max_iter):
    """Frozen dense active-set loop on a prebuilt matrix.

    Returns (weights, energy_trace, iterations, energy); the energy is the
    certificate's, 0.5 * w @ (2 M w).
    """

    def face_minimum(face, w):
        cur = w[face]
        while True:
            k = face.size
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = M[np.ix_(face, face)]
            kkt[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                x = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                x = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if not np.all(np.isfinite(x)):
                break
            if np.all(x > 0.0):
                cur = x
                break
            blocking = np.flatnonzero(x <= 0.0)
            c = cur[blocking]
            ratios = np.divide(c, c - x[blocking], out=np.zeros_like(c), where=c > 0.0)
            first = int(np.argmin(ratios))
            cur = cur + ratios[first] * (x - cur)
            cur[blocking[first]] = 0.0
            keep = (x > 0.0) | (cur > 0.0)
            face, cur = face[keep], cur[keep]
        return face, cur / cur.sum()

    start = int(np.argmin(np.diagonal(M)))
    w = np.zeros(M.shape[0])
    w[start] = 1.0
    g = 2.0 * M[start]
    energy_ = float(M[start, start])
    trace = [energy_]
    iterations = 0
    single = False
    while iterations < max_iter:
        lam = float(w @ g)
        s = int(np.argmin(g))
        if lam - float(g[s]) <= tol:
            break
        iterations += 1
        if single:
            added = [s]
        else:
            local = (g <= np.r_[np.inf, g[:-1]]) & (g <= np.r_[g[1:], np.inf])
            added = np.flatnonzero(local & (g < lam))
        face, x = face_minimum(np.union1d(np.flatnonzero(w), added), w)
        trial = np.zeros_like(w)
        trial[face] = x
        g = 2.0 * (x @ M[face])
        trial_energy = 0.5 * float(x @ g[face])
        stalled = single and np.array_equal(trial, w)
        single = not trial_energy < energy_
        w, energy_ = trial, trial_energy
        trace.append(energy_)
        if stalled:
            break
    g = 2.0 * (M @ w)
    return w, np.asarray(trace), iterations, 0.5 * float(w @ g)


class TestSolve:
    def test_diagonal_two_node(self):
        # min over the simplex of w1^2 + 2 w2^2 is 2/3 at w = (2/3, 1/3).
        result = solve(_problem(np.diag([1.0, 2.0])), tol=1e-10)
        assert result.converged
        assert result.energy == pytest.approx(2.0 / 3.0, abs=1e-10)
        # duality: the gap bounds the energy error
        assert result.energy - 2.0 / 3.0 <= result.equilibrium_gap
        np.testing.assert_allclose(result.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-5)

    def test_vertex_optimum_converges_fast(self):
        # minimum at the corner w = (1, 0); line search jumps straight there
        result = solve(_problem([[1.0, 1.2], [1.2, 2.0]]), tol=1e-12)
        assert result.converged
        assert result.iterations <= 5
        assert result.energy == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.weights, [1.0, 0.0], atol=1e-12)

    def test_energy_trace_nonincreasing(self):
        prob = discretize(FractionalGaussianNoise(0.6, 1.0), Grid(0.0, 2.0, 51))
        result = solve(prob, tol=1e-7)
        trace = result.energy_trace
        assert len(trace) == result.iterations + 1
        assert np.all(np.diff(trace) <= 0.0)

    def test_energy_trace_is_always_recorded(self):
        result = solve(_problem(np.eye(3)))
        assert len(result.energy_trace) == result.iterations + 1

    def test_identity_gives_uniform_weights(self):
        result = solve(_problem(np.eye(4)), tol=1e-12)
        assert result.converged
        assert result.energy == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(result.weights, np.full(4, 0.25), atol=1e-6)

    def test_gap_identity_on_returned_iterate(self):
        prob = discretize(FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 2.0, 81))
        result = solve(prob, tol=1e-6)
        g = 2.0 * prob.matrix @ result.weights
        gap = float(result.weights @ g) - float(np.min(g))
        assert result.equilibrium_gap == pytest.approx(gap, rel=1e-12, abs=1e-18)
        assert result.energy == pytest.approx(
            float(result.weights @ prob.matrix @ result.weights), rel=1e-15
        )

    def test_three_point_problem_reaches_closed_form(self):
        kernel = FractionalGaussianNoise(0.75, 1.0)
        prob = discretize(kernel, Grid(0.0, 2.0, 101))
        result = solve(prob, tol=1e-5, max_iter=200_000)
        assert result.converged
        exact = energy(kernel, three_point(0.0, 1.0, c_star(kernel, 1.0)))
        # the optimal atoms 0, 1, 2 are grid nodes, so the discrete minimum
        # equals the continuum one and the gap bounds the excess
        assert result.energy >= exact - 1e-12
        assert result.energy - exact <= result.equilibrium_gap + 1e-12

    def test_readme_run_file_converges(self):
        # FGN H=0.75, h=1 on [0, 2], n=401, tol=1e-9: the README's run file
        prob = discretize(FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 2.0, 401))
        result = solve(prob, tol=1e-9)
        assert result.converged
        assert result.iterations <= 1_000
        assert README_SIGMA_SQ - 1e-12 <= result.energy
        assert result.energy <= README_SIGMA_SQ + result.equilibrium_gap + 1e-12

    def test_rough_kernel_converges(self):
        # H=0.3 has no closed form and spreads its minimizer over many nodes
        prob = discretize(FractionalGaussianNoise(0.3, 1.0), Grid(0.0, 3.0, 401))
        result = solve(prob, tol=1e-9)
        assert result.converged
        assert result.equilibrium_gap <= 1e-9
        assert np.all(np.diff(result.energy_trace) <= 0.0)
        # batch additions reach the dense minimizer in a few rounds
        assert result.iterations <= 50

    def test_half_hurst_singular_face_stays_finite(self):
        # H = 1/2 noise has the triangular autocovariance max(h - |tau|, 0);
        # a repeated node makes M_SS exactly singular on the full support
        kernel = FractionalGaussianNoise(0.5, 1.0)
        nodes = np.array([0.0, 1.0, 1.0, 2.0])
        matrix = kernel.cov(nodes[:, None], nodes[None, :])
        kkt = np.ones((5, 5))
        kkt[:4, :4] = matrix
        kkt[4, 4] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(kkt, np.eye(5)[4])
        w = np.full(4, 0.25)
        start = float(w @ matrix @ w)
        face, x, _ = _face_minimum(matrix, np.arange(4), w)
        assert np.all(np.isfinite(x))
        energy_after = float(x @ matrix[np.ix_(face, face)] @ x)
        assert energy_after <= start
        assert energy_after == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.all(x >= 0.0)
        assert np.sum(x) == pytest.approx(1.0, abs=1e-14)

        result = solve(_problem(matrix), tol=1e-12)
        assert result.converged
        assert np.all(np.isfinite(result.energy_trace))
        assert np.all(np.diff(result.energy_trace) <= 0.0)
        assert result.energy == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_face_rows_kept_when_sorted_and_nothing_drops(self):
        # a face already in grid order that keeps every node hands back
        # its rows object, not a copy
        matrix = np.diag([1.0, 2.0, 3.0])
        face, x, rows = _face_minimum(matrix, np.arange(3), np.array([1.0, 0.0, 0.0]))
        assert rows is matrix
        np.testing.assert_array_equal(face, np.arange(3))
        np.testing.assert_allclose(x, np.array([6.0, 3.0, 2.0]) / 11.0, rtol=1e-15)

    def test_single_node_fallback_round_converges(self):
        # H = 1/2 noise at seeded random nodes: near the optimum the KKT
        # systems are ill-conditioned, a batch round fails to lower the
        # energy at rounding level, and a single-node round must follow
        kernel = FractionalGaussianNoise(0.5, 1.0)
        t = np.sort(np.random.default_rng(0).uniform(0.0, 1.5, 100))
        matrix = kernel.cov(t[:, None], t[None, :])
        problem = _problem(matrix)
        read = problem.rows
        added = []

        # solve reads the start row, then the rows each round adds, once
        def recording(idx):
            added.append(np.size(idx))
            return read(idx)

        problem.rows = recording
        result = solve(problem, tol=1e-12, max_iter=100)
        start, *added = added
        assert start == 1 and len(added) == result.iterations
        # round r + 1 did not lower the energy, so round r + 2 is a fallback
        not_lowered = np.flatnonzero(np.diff(result.energy_trace) >= 0.0)
        fallbacks = not_lowered[not_lowered + 1 < result.iterations] + 1
        assert fallbacks.size
        assert all(added[r] == 1 for r in fallbacks)
        assert max(added) > 1
        assert result.converged
        assert result.equilibrium_gap <= 1e-12
        assert result.energy == pytest.approx(nnls_min_energy(matrix), rel=1e-12)

    def test_max_iter_one_does_not_converge(self):
        prob = discretize(FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 2.0, 51))
        result = solve(prob, tol=1e-9, max_iter=1)
        assert not result.converged
        assert result.iterations == 1
        assert result.equilibrium_gap > 1e-9
        # iterate is still a probability vector
        assert np.all(result.weights >= 0.0)
        assert np.sum(result.weights) == pytest.approx(1.0, abs=1e-14)

    def test_weights_read_only(self):
        result = solve(_problem(np.eye(2)))
        with pytest.raises(ValueError):
            result.weights[0] = 2.0

    @pytest.mark.parametrize("tol", [0.0, -1e-3, np.inf, np.nan])
    def test_tol_validation(self, tol):
        # an infinite tolerance stopped at the start vertex and a nan one
        # never reported convergence
        with pytest.raises(ValueError, match="tolerance"):
            solve(_problem(np.eye(2)), tol=tol)

    @pytest.mark.parametrize("n", [2, 41])
    def test_zero_variance_start_converges_at_once(self, n):
        # Brownian motion vanishes at 0, the start node: its row of M is
        # zero, so the Dirac there is optimal and no face is ever factored
        result = solve(discretize(BrownianMotion(), Grid(0.0, 0.5, n)), tol=1e-9)
        assert result.converged
        assert result.energy == 0.0
        assert result.iterations == 0

    def test_max_iter_validation(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve(_problem(np.eye(2)), max_iter=0)

    def test_output_does_not_depend_on_the_thread_cap(self, tmp_path):
        # two OpenBLAS threads round the solver's products differently from
        # one, so each cap is a fresh interpreter whose BLAS variables come
        # from the cap alone; at n = 401 the rough kernel's printed sigma_sq
        # differed in its last digit before solve ran on one thread
        cfg = tmp_path / "rough.ini"
        cfg.write_text(
            "[kernel]\nkind = fgn\nH = 0.3\nh = 1.0\n[interval]\na = 0.0\nb = 3.0\n"
            "[grid]\nn = 401\n[solver]\ntol = 1e-9\n"
        )
        src = os.path.dirname(os.path.dirname(solver.__file__))
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        runs = []
        for cap in ("1", "2"):
            out_dir = tmp_path / f"cap{cap}"
            res = subprocess.run(
                [sys.executable, "-m", "gaussmin.cli", "solve", "--config", cfg, "--out", out_dir],
                env={**env, "PYTHONPATH": src, "GAUSSMIN_THREADS": cap},
                capture_output=True,
                check=True,
                timeout=120,
            )
            files = {f: (out_dir / f).read_bytes() for f in sorted(os.listdir(out_dir))}
            runs.append((res.stdout, files))
        assert b"sigma_sq = " in runs[0][0]
        assert runs[0] == runs[1]


@st.composite
def positive_definite_matrices(draw):
    """Seeded random positive definite matrices and fgn/fbm grids, n <= 200."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 200))
        rank = draw(st.integers(1, n))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        factor = rng.standard_normal((n, rank))
        ridge = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
        return factor @ factor.T + ridge * np.eye(n)
    H = draw(st.floats(0.1, 0.95))
    if draw(st.booleans()):
        kernel, a = FractionalGaussianNoise(H, 1.0), 0.0
    else:
        kernel, a = FractionalBM(H), draw(st.floats(0.1, 1.0))
    grid = Grid(a, a + draw(st.floats(0.1, 3.0)), draw(st.integers(2, 200)))
    return discretize(kernel, grid).matrix


class TestAgainstNnls:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(positive_definite_matrices())
    def test_energy_matches_oracle(self, matrix):
        # a few dozen rounds at most, so a broken loop fails instead of hanging
        result = solve(_problem(matrix), tol=1e-12, max_iter=100)
        oracle = nnls_min_energy(matrix)
        assert result.converged
        assert result.energy == pytest.approx(oracle, rel=1e-12)
        # the certificate bounds the excess up to rounding in both energies
        slack = 4.0 * np.finfo(float).eps * np.max(np.abs(matrix))
        assert result.energy - oracle <= result.equilibrium_gap + slack


class TestFactoredFace:
    # each round's face system is LU-factored afresh by _face_minimum

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_added_order_does_not_matter(self, seed):
        # solve inserts each round's new nodes at their grid positions, so
        # two rounds on a face grown from nodes picked in shuffled order
        # give the same bits as on the same face with its rows read at once
        prob = discretize(FractionalGaussianNoise(0.5, 1.0), Grid(0.0, 3.0, 401))
        rng = np.random.default_rng(seed)
        picked = rng.choice(np.arange(1, 401), 50, replace=False)
        nodes, x, rows = np.array([0]), np.ones(1), prob.rows(np.array([0]))
        inside = False
        for batch in np.split(picked, 2):
            new = np.sort(batch)
            at = np.searchsorted(nodes, new)
            inside |= bool(np.any(at < nodes.size))
            nodes = np.insert(nodes, at, new)
            x = np.insert(x, at, 0.0)
            rows = np.insert(rows, at, prob.rows(new), axis=0)
            assert np.all(np.diff(nodes) > 0)
            grown = _face_minimum(rows, nodes, x)
            read = _face_minimum(prob.rows(nodes), nodes, x)
            for got, want in zip(grown, read):
                assert _same_bits(got, want)
            nodes, x, rows = grown
        # some node went in between nodes already on the face
        assert inside

    def test_face_stays_in_grid_order(self, monkeypatch):
        # solve inserts each round's new nodes at their grid positions, so
        # every face _face_minimum sees is strictly increasing and its rows
        # are the problem's rows in that order
        n = 401
        t = np.linspace(1.0, 2.0, n)
        table = Tabulated(t, FractionalBM(0.3).cov(t[:, None], t[None, :]))
        cases = [
            (FractionalGaussianNoise(0.5, 1.0), Grid(0.0, 3.0, n)),
            (FractionalGaussianNoise(0.75, 1.0), Grid(0.0, 1.75, n)),
            (table, Grid(1.0, 2.0, n)),
        ]
        face_minimum = solver._face_minimum
        for kernel, grid in cases:
            prob = discretize(kernel, grid)
            rounds = []

            def checking(rows, face, cur):
                rounds.append(face.size)
                assert np.all(np.diff(face) > 0)
                assert _same_bits(rows, prob.rows(face))
                return face_minimum(rows, face, cur)

            monkeypatch.setattr(solver, "_face_minimum", checking)
            result = solve(prob, tol=1e-9)
            assert result.converged
            assert len(rounds) == result.iterations >= 2

    def test_rank_deficient_table_takes_the_dense_fallback(self):
        # node 201 repeats node 200 of a rough fBm table, its variance
        # lowered by 1e-13: rank deficient up to rounding (Tabulated accepts
        # it), so a face holding both nodes is singular up to rounding
        n = 401
        t = np.linspace(1.0, 2.0, n)
        src = np.r_[0:201, 200, 202:n]
        table = FractionalBM(0.3).cov(t[src][:, None], t[src][None, :])
        table[201, 201] -= 1e-13
        result = solve(discretize(Tabulated(t, table), Grid(1.0, 2.0, n)), tol=1e-12, max_iter=100)
        assert result.converged
        distinct = np.r_[0:201, 202:n]
        oracle = nnls_min_energy(table[np.ix_(distinct, distinct)])
        assert result.energy == pytest.approx(oracle, rel=1e-12)


class _OrnsteinUhlenbeck(Kernel):
    """Gamma(tau) = exp(-|tau|).  On an interval of length L the minimizer
    is (delta_a + delta_b + Lebesgue on [a, b]) / (2 + L), whose potential
    is the constant 2 / (2 + L), so sigma*^2 = 2 / (2 + L)."""

    stationary = True

    def gamma(self, tau):
        return np.exp(-np.abs(np.asarray(tau, dtype=float)))

    def cov(self, s, t):
        return self.gamma(np.subtract(t, s, dtype=float))


class TestWholeGrid:
    # a Toeplitz M (noise) and a Toeplitz matrix plus a rank-two term (fBm)
    ROUGH = ((FractionalGaussianNoise(0.3, 1.0), 0.0, 3.0), (FractionalBM(0.3), 1.0, 2.0))

    @staticmethod
    def _spy(monkeypatch):
        # records what each whole-grid step returned
        steps = []
        whole_grid = solver._whole_grid

        def recording(problem, tol):
            steps.append(whole_grid(problem, tol))
            return steps[-1]

        monkeypatch.setattr(solver, "_whole_grid", recording)
        return steps

    @pytest.mark.parametrize(
        "kernel, a, b",
        [
            (FractionalGaussianNoise(0.3, 1.0), 0.0, 3.0),
            (FractionalGaussianNoise(0.4, 1.0), 0.0, 1.0),
            (IncrementOf(FractionalBM(0.3), 1.0), 0.0, 3.0),
            (FractionalBM(0.3), 1.0, 2.0),
            (FractionalBM(0.45), 1.0, 3.0),
        ],
    )
    def test_matches_the_dense_loop(self, kernel, a, b, monkeypatch):
        steps = self._spy(monkeypatch)
        prob = discretize(kernel, Grid(a, b, 401))
        result = solve(prob, tol=1e-9)
        with _threads.one_blas_thread():
            weights, _, _, energy_ = _dense_solve(prob.matrix, 1e-9, 200_000)
        assert len(steps) == 1 and steps[0] is not None
        assert _same_bits(result.weights, steps[0][0])
        assert result.converged
        assert result.equilibrium_gap <= 1e-9
        assert np.all(weights > 0.0) and np.all(result.weights > 0.0)
        eps = np.finfo(float).eps
        assert abs(result.energy - energy_) <= 8.0 * eps * abs(energy_)
        assert result.energy_trace[-1] == result.energy

    @pytest.mark.parametrize("n", [401, 1601])
    def test_gradient_is_the_matrix_product(self, n):
        for kernel, a, b in self.ROUGH:
            prob = discretize(kernel, Grid(a, b, n))
            w, g = solver._whole_grid(prob, 1e-9)
            np.testing.assert_allclose(
                g, 2.0 * w @ prob.matrix, rtol=0.0, atol=1e-13 * np.max(np.abs(g))
            )

    @pytest.mark.parametrize(
        "kernel, a, b, n",
        [
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0, 401),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 1.0, 401),
            (FractionalBM(0.75), 1.0, 2.0, 1601),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0, 1601),
            (FractionalGaussianNoise(0.5, 1.0), 0.0, 3.0, 401),
            (FractionalGaussianNoise(0.9, 1.0), 0.0, 1.5, 401),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 1.75, 401),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 1.75, 1601),
            (FractionalGaussianNoise(0.75, 1.0), 0.0, 1.5, 1601),
            (FractionalGaussianNoise(0.9, 1.0), 0.0, 1.5, 1601),
        ],
    )
    def test_not_tried_when_the_minimizer_is_atomic_or_drops(self, kernel, a, b, n, monkeypatch):
        # the H >= 1/2 bench run files end on faces of at most 3 nodes, and
        # H = 1/2 noise drops nodes in its first round; the clustered
        # supports of H = 0.75 and 0.9 grow to 11 nodes or more before a
        # drop, but their faces keep a gap of a third of the grid or more
        steps = self._spy(monkeypatch)
        assert solve(discretize(kernel, Grid(a, b, n)), tol=1e-9).converged
        assert steps == []

    @pytest.mark.parametrize("n", [401, 1601])
    @pytest.mark.parametrize(
        "kernel, a, b",
        [
            pytest.param(FractionalGaussianNoise(H, 1.0), 0.0, b, id=f"{H}-0.0-{b}")
            for H in (0.3, 0.4, 0.45)
            for b in (3.0, 1.0, 0.5)
        ]
        + [
            pytest.param(FractionalBM(H), a, b, id=f"fbm-{H}-{a}-{b}")
            for H in (0.2, 0.3, 0.45)
            for a, b in ((1.0, 2.0), (0.5, 4.0))
        ],
    )
    def test_grid_filling_faces_reach_the_step_early(self, kernel, a, b, n, monkeypatch):
        # the face spreads across the grid by its 8th or 9th node, so the
        # step comes after a few rounds, not after a face of 64 nodes; for
        # fBm its size times largest gap was 1.66 to 2.66 (n - 1) then
        steps = self._spy(monkeypatch)
        prob = discretize(kernel, Grid(a, b, n))
        result = solve(prob, tol=1e-9)
        assert len(steps) == 1 and steps[0] is not None
        assert result.converged
        assert result.iterations <= 5
        assert _same_bits(result.weights, solver._whole_grid(prob, 1e-9)[0])

    def test_nonpositive_weight_falls_back_to_the_rounds(self, monkeypatch):
        steps = self._spy(monkeypatch)
        pcg = solver._pcg

        def negated(*args):
            x = pcg(*args)
            x[200] = -x[200]
            return x

        monkeypatch.setattr(solver, "_pcg", negated)
        prob = discretize(FractionalGaussianNoise(0.3, 1.0), Grid(0.0, 3.0, 401))
        result = solve(prob, tol=1e-9)
        with _threads.one_blas_thread():
            weights, trace, iterations, energy_ = _dense_solve(prob.matrix, 1e-9, 200_000)
        assert steps == [None]
        assert result.converged
        assert result.iterations == iterations
        np.testing.assert_array_equal(result.weights > 0.0, weights > 0.0)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(result.energy_trace, trace, rtol=8.0 * eps, atol=0.0)
        assert abs(result.energy - energy_) <= 8.0 * eps * abs(energy_)

    @pytest.mark.parametrize("L", [1.0, 3.0])
    def test_exponential_kernel_reaches_its_closed_form(self, L, monkeypatch):
        # a minimizer with a density: the grid's energy lies above
        # 2 / (2 + L) and its excess falls like 1 / n^2 (16x from n = 101
        # to 401 when measured)
        steps = self._spy(monkeypatch)
        exact = 2.0 / (2.0 + L)
        excess = []
        for n in (101, 401):
            steps.clear()
            result = solve(discretize(_OrnsteinUhlenbeck(), Grid(0.0, L, n)), tol=1e-9)
            assert len(steps) == 1 and steps[0] is not None
            assert result.converged
            assert np.all(result.weights > 0.0)
            assert result.energy >= exact * (1.0 - 8.0 * np.finfo(float).eps)
            excess.append(result.energy - exact)
        assert excess[1] * 10.0 <= excess[0]

    def test_large_grid_in_linear_memory(self):
        # the matrix would take 5.2 GB; the rounds before the step hold
        # the rows of a face of a few dozen nodes at most
        n = 25_601
        for kernel, a, b in self.ROUGH:
            tracemalloc.start()
            try:
                prob = discretize(kernel, Grid(a, b, n))
                result = solve(prob, tol=1e-9)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.converged
            assert result.equilibrium_gap <= 1e-9
            assert np.all(result.weights > 0.0)
            assert "matrix" not in vars(prob)
            assert peak < 100 * 8 * n


class TestExtractMeasure:
    def _result(self, weights):
        w = np.asarray(weights, dtype=float)
        return SolverResult(
            weights=w, energy=0.0, equilibrium_gap=0.0, iterations=0, converged=True
        )

    def test_prunes_and_renormalizes(self):
        grid = Grid(0.0, 1.0, 5)
        mu = extract_measure(self._result([0.5, 0.0, 0.0, 0.0, 0.5]), grid)
        np.testing.assert_array_equal(mu.locations, [0.0, 1.0])
        np.testing.assert_array_equal(mu.weights, [0.5, 0.5])

    def test_adjacent_nodes_stay_separate_atoms(self):
        grid = Grid(0.0, 1.0, 5)
        # nodes 0.5 and 0.75 are grid-adjacent; each keeps its own atom, so
        # the measure's energy is the weights' energy
        mu = extract_measure(self._result([0.5, 0.0, 0.25, 0.25, 0.0]), grid)
        np.testing.assert_array_equal(mu.locations, [0.0, 0.5, 0.75])
        np.testing.assert_array_equal(mu.weights, [0.5, 0.25, 0.25])

    def test_separated_runs_stay_apart(self):
        grid = Grid(0.0, 1.0, 5)
        mu = extract_measure(self._result([0.4, 0.0, 0.2, 0.0, 0.4]), grid)
        np.testing.assert_array_equal(mu.locations, [0.0, 0.5, 1.0])

    def test_prune_threshold_drops_small_weights(self):
        grid = Grid(0.0, 1.0, 3)
        w = [0.5 - 5e-5, 1e-4, 0.5 - 5e-5]
        mu = extract_measure(self._result(w), grid, prune=1e-4)
        np.testing.assert_array_equal(mu.locations, [0.0, 1.0])
        assert np.sum(mu.weights) == pytest.approx(1.0, abs=1e-15)

    def test_all_pruned_raises(self):
        grid = Grid(0.0, 1.0, 3)
        with pytest.raises(EmptyMeasureError):
            extract_measure(self._result([1e-5, 1e-5, 1e-5]), grid, prune=1e-4)

    @pytest.mark.parametrize("prune", [-1e-9, 0.011])
    def test_prune_range_validation(self, prune):
        grid = Grid(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="prune"):
            extract_measure(self._result([1.0, 0.0, 0.0]), grid, prune=prune)

    def test_round_trip_through_energy(self):
        # extracting from a converged run changes the energy only at the
        # certificate scale
        kernel = FractionalGaussianNoise(0.75, 1.0)
        grid = Grid(0.0, 2.0, 201)
        result = solve(discretize(kernel, grid), tol=1e-5, max_iter=200_000)
        assert result.converged
        mu = extract_measure(result, grid)
        assert isinstance(mu, DiscreteMeasure)
        assert energy(kernel, mu) == pytest.approx(result.energy, abs=2e-4)
