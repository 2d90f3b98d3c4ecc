"""Covariance catalogue: closed-form anchors, symmetry, constructors, errors."""

import numpy as np
import pytest

from gaussmin import _threads
from gaussmin import (
    BrownianMotion,
    DomainError,
    FactorizationError,
    FractionalBM,
    FractionalGaussianNoise,
    GridError,
    IncrementOf,
    Kernel,
    SingularityError,
    StationarityError,
    Tabulated,
    decomposition_residual,
)

# anchors computed with 40-digit arithmetic, compared at float precision
GAMMA1_H075 = 0.41421356237309503
GAMMA2_H075 = 0.26964908660712583


class TestBrownianMotion:
    def test_cov_is_min(self):
        k = BrownianMotion()
        assert k.cov(1.0, 2.0) == 1.0
        assert k.cov(2.0, 1.0) == 1.0
        assert k.cov(0.0, 5.0) == 0.0
        s = np.array([0.5, 1.5])
        t = np.array([1.0, 1.0])
        assert np.array_equal(k.cov(s, t), np.array([0.5, 1.0]))

    def test_negative_time_rejected(self):
        k = BrownianMotion()
        with pytest.raises(DomainError):
            k.cov(-0.1, 1.0)
        with pytest.raises(DomainError):
            k.variance(np.array([1.0, -2.0]))

    def test_flags(self):
        k = BrownianMotion()
        assert k.pinned_origin and not k.stationary
        with pytest.raises(StationarityError):
            k.gamma(1.0)

    def test_variance(self):
        assert BrownianMotion().variance(3.5) == 3.5


class TestFractionalBM:
    def test_half_matches_bm_exactly(self):
        fbm = FractionalBM(0.5)
        bm = BrownianMotion()
        s = np.linspace(0.0, 4.0, 23)
        assert np.array_equal(fbm.cov(s[:, None], s[None, :]), bm.cov(s[:, None], s[None, :]))

    def test_anchor_values(self):
        k = FractionalBM(0.75)
        # (1/2)(1 + 2^1.5 - 1) = sqrt(2)
        assert k.cov(1.0, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert k.variance(1.0) == 1.0
        assert k.cov(0.0, 3.0) == 0.0

    def test_self_similarity(self):
        k = FractionalBM(0.7)
        rng = np.random.default_rng(1)
        s, t = rng.uniform(0.0, 3.0, size=(2, 50))
        c = 1.7
        lhs = k.cov(c * s, c * t)
        rhs = c ** 1.4 * k.cov(s, t)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_range(self, H):
        with pytest.raises(ValueError):
            FractionalBM(H)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            FractionalBM(0.75).cov(1.0, -1.0)


class TestFractionalGaussianNoise:
    def test_gamma_anchors(self):
        k = FractionalGaussianNoise(0.75, 1.0)
        assert k.gamma(0.0) == 1.0
        assert k.gamma(1.0) == pytest.approx(GAMMA1_H075, rel=1e-15)
        assert k.gamma(2.0) == pytest.approx(GAMMA2_H075, rel=1e-15)

    def test_gamma_even_and_stationary(self):
        k = FractionalGaussianNoise(0.6, 0.7)
        tau = np.linspace(-3.0, 3.0, 41)
        # same three terms summed in a different order, so rounding differs
        assert np.allclose(k.gamma(tau), k.gamma(-tau), rtol=1e-14, atol=1e-16)
        rng = np.random.default_rng(2)
        s, t = rng.uniform(-2.0, 4.0, size=(2, 30))
        assert np.allclose(k.cov(s, t), k.gamma(t - s), rtol=1e-14)

    def test_gamma_zero_is_lag_power(self):
        k = FractionalGaussianNoise(0.9, 0.5)
        assert k.gamma(0.0) == pytest.approx(0.5 ** 1.8, rel=1e-15)

    def test_matches_generic_increment_construction(self):
        analytic = FractionalGaussianNoise(0.75, 1.0)
        generic = IncrementOf(FractionalBM(0.75), 1.0)
        tau = np.linspace(0.0, 3.0, 61)
        assert np.allclose(analytic.gamma(tau), generic.gamma(tau), atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FractionalGaussianNoise(1.2, 1.0)
        with pytest.raises(ValueError):
            FractionalGaussianNoise(0.75, 0.0)

    def test_h_half_gamma_is_triangular(self):
        k = FractionalGaussianNoise(0.5, 1.0)
        tau = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
        expected = np.maximum(0.0, 1.0 - np.abs(tau))
        assert np.allclose(k.gamma(tau), expected, atol=1e-15)


class TestIncrementFunction:
    def test_values_and_slope_sign(self):
        k = FractionalGaussianNoise(0.75, 1.0)
        # f(t) = |t+1|^1.5 - |t|^1.5
        assert k.increment(1.0) == pytest.approx(2.0 ** 1.5 - 1.0, rel=1e-15)
        assert k.increment(-0.5) == 0.0
        t = np.array([-2.5, -1.7, -0.6, 0.3, 1.2])
        assert np.all(k.increment_d1(t) > 0.0)

    def test_d2_matches_finite_difference(self):
        k = FractionalGaussianNoise(0.8, 1.0)
        t = np.array([0.4, 1.3, -0.5, -2.0])
        eps = 1e-5
        fd = (
            k.increment(t + eps)
            - 2.0 * k.increment(t)
            + k.increment(t - eps)
        ) / eps**2
        # atol floor sits above the 1e-16/eps^2 rounding noise of the stencil
        assert np.allclose(k.increment_d2(t), fd, rtol=1e-4, atol=1e-5)

    def test_singular_points_raise(self):
        k = FractionalGaussianNoise(0.75, 1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(SingularityError):
                k.increment_d1(bad)
            with pytest.raises(SingularityError):
                k.increment_d2(np.array([0.5, bad]))

    def test_non_increment_kernel_rejected(self):
        # only increment kernels carry a one-sided increment function
        with pytest.raises(AttributeError):
            BrownianMotion().increment(1.0)
        with pytest.raises(AttributeError):
            FractionalBM(0.7).increment_d1(1.0)


class _PinnedBase(Kernel):
    """Brownian covariance in a class that is not a FractionalBM: pinned,
    with stationary increments, and saying so by attribute.  The increment
    derivatives are analytic for an fBm base only, so IncrementOf refuses it."""

    pinned_origin = True
    stationary_increments = True

    def cov(self, s, t):
        return np.minimum(np.asarray(s, dtype=float), np.asarray(t, dtype=float))


class TestIncrementOf:
    def test_requires_pinned_stationary_increment_base(self):
        for base in (FractionalGaussianNoise(0.75, 1.0), _PinnedBase()):
            with pytest.raises(StationarityError):
                IncrementOf(base, 1.0)

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            IncrementOf(BrownianMotion(), -1.0)

    def test_bm_increments_are_triangular(self):
        k = IncrementOf(BrownianMotion(), 1.0)
        tau = np.array([0.0, 0.5, 1.0, 2.0])
        assert np.allclose(k.gamma(tau), np.maximum(0.0, 1.0 - tau), atol=1e-15)

    def test_matches_four_term_covariance(self):
        base = FractionalBM(0.6)
        k = IncrementOf(base, 0.5)
        rng = np.random.default_rng(3)
        s, t = rng.uniform(0.0, 4.0, size=(2, 40))
        four = (
            base.cov(s + 0.5, t + 0.5)
            - base.cov(s, t + 0.5)
            - base.cov(t, s + 0.5)
            + base.cov(s, t)
        )
        assert np.allclose(k.cov(s, t), four, atol=1e-13)


class TestDecompositionResidual:
    def test_small_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            H = rng.uniform(0.05, 0.95)
            h = rng.uniform(0.1, 2.0)
            s, t = rng.uniform(0.0, 5.0, size=2)
            assert decomposition_residual(FractionalBM(H), h, s, t) < 1e-12


class TestTabulated:
    def _kernel(self):
        nodes = np.array([0.0, 1.0, 2.0])
        matrix = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.4], [0.2, 0.4, 1.0]])
        return Tabulated(nodes, matrix)

    def test_lookup(self):
        k = self._kernel()
        assert k.cov(0.0, 2.0) == 0.2
        got = k.cov(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert np.array_equal(got, np.array([0.4, 1.0]))

    def test_off_node_query_rejected(self):
        with pytest.raises(GridError):
            self._kernel().cov(0.5, 1.0)

    def test_outer_query_equals_elementwise_lookups(self):
        nodes = np.linspace(1.0, 2.0, 7)
        kernel = Tabulated(nodes, FractionalBM(0.7).cov(nodes[:, None], nodes[None, :]))
        s = nodes[[4, 0, 6, 4]]
        got = kernel.cov(s[:, None], nodes[None, :])
        assert got.shape == (4, 7)
        want = [[kernel.cov(x, y) for y in nodes] for x in s]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            kernel.cov(nodes[:, None], nodes[None, :]), kernel.matrix
        )

    @pytest.mark.parametrize("side", ["s", "t"])
    def test_off_node_point_in_either_argument_rejected(self, side):
        nodes = np.linspace(1.0, 2.0, 7)
        kernel = Tabulated(nodes, np.eye(7))
        off = nodes.copy()
        off[3] += 0.01
        s, t = (off, nodes) if side == "s" else (nodes, off)
        with pytest.raises(GridError, match=repr(float(off[3]))):
            kernel.cov(s[:, None], t[None, :])

    def test_validation(self):
        nodes = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            Tabulated(nodes, np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
        with pytest.raises(GridError):
            Tabulated(np.array([1.0, 0.0]), np.eye(2))  # not increasing
        with pytest.raises(GridError):
            Tabulated(nodes, np.eye(3))  # shape mismatch

    def test_indefinite_matrix_rejected(self):
        nodes = np.array([0.0, 1.0, 2.0])
        with pytest.raises(FactorizationError, match="semidefinite"):
            Tabulated(nodes, -np.eye(3))
        # rounding-level negative eigenvalues of a singular matrix pass
        Tabulated(nodes, np.ones((3, 3)) - 1e-13 * np.eye(3))
        Tabulated(nodes, np.zeros((3, 3)))

    def test_definite_table_accepted_without_eigenvalues(self, monkeypatch):
        # the Cholesky factor of the shifted table decides; eigenvalues are
        # only computed to word the rejection
        def eigvalsh(matrix):
            raise AssertionError("eigvalsh called on a definite table")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        nodes = np.linspace(1.0, 2.0, 201)
        Tabulated(nodes, FractionalBM(0.7).cov(nodes[:, None], nodes[None, :]))

    def test_not_stationary(self):
        with pytest.raises(StationarityError):
            self._kernel().gamma(1.0)

    def test_positive_semidefinite_check_runs_on_one_blas_thread(self, monkeypatch):
        # two OpenBLAS threads would make acceptance depend on the cap and
        # leave an idle helper thread spinning after the table is built
        calls = _threads._openblas()
        if calls is None:
            pytest.skip("numpy is not linked against its bundled OpenBLAS")
        get, set_ = calls
        previous = get()
        set_(2)
        try:
            seen = []
            real = np.linalg.cholesky

            def cholesky(matrix):
                seen.append(get())
                return real(matrix)

            monkeypatch.setattr(np.linalg, "cholesky", cholesky)
            nodes = np.linspace(1.0, 2.0, 201)
            Tabulated(nodes, FractionalBM(0.7).cov(nodes[:, None], nodes[None, :]))
            assert seen == [1]
            assert get() == 2
        finally:
            set_(previous)
