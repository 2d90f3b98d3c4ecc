"""Active-set solver: discretization, convergence, certificates, extraction."""

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
from gaussmin import solver
from gaussmin.solver import _face_minimum
from oracles import nnls_min_energy

README_SIGMA_SQ = 0.5744706733790146


def _problem(matrix):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    grid = Grid(0.0, 1.0, n)
    matrix = 0.5 * (matrix + matrix.T)
    matrix.flags.writeable = False
    return DiscretizedProblem(grid=grid, matrix=matrix)


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


class TestTiledDiscretize:
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 513, 1601])
    @pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.75, 0.95])
    def test_equals_averaged_full_matrix(self, H, n):
        # n around the tile side, 256: one tile, a tile and a one-node
        # strip, and (at 1601) a ragged last row and column of tiles
        t = Grid(0.5, 3.0, n).nodes
        kernel = FractionalBM(H)
        # the reference is the full-matrix build, frozen: every entry is
        # 0.5 * (cov(s, t) + cov(t, s))
        full = kernel.cov(t[:, None], t[None, :])
        matrix = discretize(kernel, Grid(0.5, 3.0, n)).matrix
        np.testing.assert_array_equal(matrix, 0.5 * (full + full.T))
        assert matrix.flags.c_contiguous

    def test_peak_memory_is_about_one_matrix(self):
        # the full-matrix build held the covariance, its transpose sum and
        # the average at once, three matrices' bytes
        grid = Grid(1.0, 2.0, 1601)
        tracemalloc.start()
        try:
            matrix = discretize(FractionalBM(0.75), grid).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix.nbytes

    @pytest.mark.parametrize("kind", ["bm", "fbm"])
    def test_overflow_at_the_float_range_is_degenerate(self, run_cli, write_ini, kind):
        # bm's covariance at b is finite, but its average on the diagonal
        # overflows; fbm's powers overflow in the kernel itself
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

    def test_tabulated_table_asymmetric_at_rounding_level(self):
        nodes = np.linspace(0.0, 1.0, 5)
        table = 1.0 + np.minimum(nodes[:, None], nodes[None, :])
        table[1, 3] += 1e-13
        kernel = Tabulated(nodes, table)
        s, t = np.meshgrid(nodes, nodes, indexing="ij")
        np.testing.assert_array_equal(kernel.cov(s, t), kernel.cov(t, s))
        matrix = discretize(kernel, Grid(0.0, 1.0, 5)).matrix
        np.testing.assert_array_equal(matrix, 0.5 * (table + table.T))


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
        face, x = _face_minimum(matrix, np.arange(4), w)
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

    def test_single_node_fallback_round_converges(self, monkeypatch):
        # H = 1/2 noise at seeded random nodes: near the optimum the KKT
        # systems are ill-conditioned, a batch round fails to lower the
        # energy at rounding level, and a single-node round must follow
        added = []

        def recording(M, face, w):
            added.append(face.size - np.count_nonzero(w))
            return _face_minimum(M, face, w)

        monkeypatch.setattr(solver, "_face_minimum", recording)
        kernel = FractionalGaussianNoise(0.5, 1.0)
        t = np.sort(np.random.default_rng(0).uniform(0.0, 1.5, 100))
        matrix = kernel.cov(t[:, None], t[None, :])
        result = solve(_problem(matrix), tol=1e-12, max_iter=100)
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

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            solve(_problem(np.eye(2)), tol=tol)

    def test_max_iter_validation(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve(_problem(np.eye(2)), max_iter=0)


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
