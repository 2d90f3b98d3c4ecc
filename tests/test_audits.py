"""Assumption audits: sampled sign checks and their witnesses."""

import numpy as np
import pytest

from gaussmin import (
    AssumptionReport,
    BrownianMotion,
    DegenerateKernelError,
    FractionalBM,
    FractionalGaussianNoise,
    PinnedOriginError,
    audit_converse,
    audit_first_case,
    audit_increment_monotone,
    audit_nonneg_increments,
    audit_second_case,
)

CSTAR = {
    0.5: 1.0,
    0.6: 0.90896451801457623,
    0.75: 0.75321300310123562,
    0.9: 0.57139113664299046,
    0.95: 0.50434638293644196,
}


class _HumpPinned:
    """Pinned kernel whose covariance dips below R(a, a) inside the interval."""

    stationary = False
    pinned_origin = True

    def cov(self, s, t):
        s, t = np.asarray(s, float), np.asarray(t, float)
        return s * t * (3.0 - np.maximum(s, t))


class _Flat:
    """Stationary kernel with constant autocovariance (degenerate)."""

    stationary = True
    pinned_origin = False
    h = 1.0

    def gamma(self, tau):
        return np.ones_like(np.asarray(tau, dtype=float))

    def cov(self, s, t):
        return self.gamma(np.asarray(t, float) - np.asarray(s, float))


class TestNonnegIncrements:
    @pytest.mark.parametrize("kernel", [BrownianMotion(), FractionalBM(0.5),
                                        FractionalBM(0.75), FractionalBM(0.9)])
    def test_passes_for_positively_correlated(self, kernel):
        report = audit_nonneg_increments(kernel, 1.0, 2.0, samples=4000, seed=3)
        assert report.passed
        assert report.worst_violation >= -1e-12
        assert report.samples == 4000

    def test_fails_for_rough_fbm(self):
        report = audit_nonneg_increments(FractionalBM(0.3), 1.0, 2.0, seed=0)
        assert not report.passed
        assert report.worst_violation < -1e-12

    def test_witness_replays_worst_value(self):
        kernel = FractionalBM(0.3)
        report = audit_nonneg_increments(kernel, 1.0, 2.0, seed=0)
        s1, t1, s2, t2 = report.witness
        value = (
            kernel.cov(t1, t2) - kernel.cov(t1, s2)
            - kernel.cov(s1, t2) + kernel.cov(s1, s2)
        )
        assert value == pytest.approx(report.worst_violation, abs=1e-12)
        assert 1.0 <= s1 <= t1 <= 2.0
        assert 1.0 <= s2 <= t2 <= 2.0

    def test_deterministic_for_fixed_seed(self):
        a = audit_nonneg_increments(FractionalBM(0.3), 0.5, 2.0, seed=42)
        b = audit_nonneg_increments(FractionalBM(0.3), 0.5, 2.0, seed=42)
        assert a == b

    def test_seed_changes_sample_set(self):
        a = audit_nonneg_increments(BrownianMotion(), 0.5, 2.0, seed=1)
        b = audit_nonneg_increments(BrownianMotion(), 0.5, 2.0, seed=2)
        assert a.witness != b.witness

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            audit_nonneg_increments(BrownianMotion(), 2.0, 1.0)

    def test_samples_validation(self):
        with pytest.raises(ValueError, match="samples"):
            audit_nonneg_increments(BrownianMotion(), 1.0, 2.0, samples=0)


class TestIncrementMonotone:
    def test_passes_for_smooth_persistent_noise(self):
        report = audit_increment_monotone(FractionalGaussianNoise(0.75, 1.0), seed=0)
        assert report.passed
        assert report.worst_violation > 0.0
        assert report.note == ""

    def test_flat_region_is_degenerate_not_passing(self):
        # H = 1/2: the increment variance is constant past the lag, so the
        # derivative vanishes there
        report = audit_increment_monotone(FractionalGaussianNoise(0.5, 1.0), seed=0)
        assert not report.passed
        assert report.worst_violation == 0.0
        assert "degenerate" in report.note

    def test_fails_for_antipersistent_noise(self):
        report = audit_increment_monotone(FractionalGaussianNoise(0.3, 1.0), seed=0)
        assert not report.passed
        assert report.worst_violation < 0.0

    def test_custom_range(self):
        report = audit_increment_monotone(
            FractionalGaussianNoise(0.75, 1.0), t_range=(0.1, 0.9), samples=500, seed=7
        )
        assert report.passed
        assert 0.1 <= report.witness[0] <= 0.9

    def test_range_validation(self):
        with pytest.raises(ValueError, match="range"):
            audit_increment_monotone(
                FractionalGaussianNoise(0.75, 1.0), t_range=(1.0, 1.0)
            )

    @pytest.mark.parametrize("h", [3e307, 1e308])
    def test_overflowing_range_is_degenerate(self, h):
        # the default range (-4h, 4h) has no finite width to sample from
        with pytest.raises(DegenerateKernelError, match="overflows"):
            audit_increment_monotone(FractionalGaussianNoise(0.75, h))


class TestFirstCase:
    def test_passes_for_concave_increment_function(self):
        report = audit_first_case(FractionalGaussianNoise(0.75, 1.0))
        assert report.passed
        assert report.worst_violation < 0.0
        assert report.seed is None

    def test_flat_second_derivative_is_degenerate(self):
        report = audit_first_case(FractionalGaussianNoise(0.5, 1.0))
        assert not report.passed
        assert report.worst_violation == 0.0
        assert "degenerate" in report.note

    def test_fails_for_convex_increment_function(self):
        report = audit_first_case(FractionalGaussianNoise(0.3, 1.0))
        assert not report.passed
        assert report.worst_violation > 0.0

    def test_witness_inside_domain(self):
        report = audit_first_case(FractionalGaussianNoise(0.75, 1.0))
        b, t = report.witness
        assert 0.0 < b < 1.0
        assert 0.0 < t <= 4.0

    def test_parameter_validation(self):
        kernel = FractionalGaussianNoise(0.75, 1.0)
        with pytest.raises(ValueError):
            audit_first_case(kernel, b_samples=0)
        with pytest.raises(ValueError):
            audit_first_case(kernel, t_samples=7)


class TestSecondCase:
    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9, 0.95])
    def test_passes_with_one_sign_change(self, H):
        report = audit_second_case(FractionalGaussianNoise(H, 1.0), 1.0)
        assert report.passed
        assert report.worst_violation == pytest.approx(CSTAR[H], rel=1e-14)
        assert "sign_changes=1" in report.note

    def test_half_hurst_is_flat_curve(self):
        # triangular autocovariance makes the scanned curve constant
        report = audit_second_case(FractionalGaussianNoise(0.5, 1.0), 1.0)
        assert report.passed
        assert report.worst_violation == pytest.approx(1.0, rel=1e-14)
        assert "sign_changes=0" in report.note

    def test_degenerate_kernel_propagates(self):
        with pytest.raises(DegenerateKernelError):
            audit_second_case(_Flat(), 1.0)

    def test_lag_scale_invariance(self):
        a = audit_second_case(FractionalGaussianNoise(0.75, 1.0), 1.0)
        b = audit_second_case(FractionalGaussianNoise(0.75, 0.25), 0.25)
        assert a.worst_violation == pytest.approx(b.worst_violation, rel=1e-12)

    def test_node_validation(self):
        with pytest.raises(ValueError, match="nodes"):
            audit_second_case(FractionalGaussianNoise(0.75, 1.0), 1.0, n=7)


class TestConverse:
    def test_bm_margin_exactly_zero(self):
        report = audit_converse(BrownianMotion(), 1.0, 2.0)
        assert report.passed
        assert report.worst_violation == 0.0

    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    def test_fbm_passes(self, H):
        report = audit_converse(FractionalBM(H), 1.0, 2.0)
        assert report.passed

    def test_stationary_kernel_rejected(self):
        with pytest.raises(PinnedOriginError):
            audit_converse(FractionalGaussianNoise(0.75, 1.0), 0.0, 2.0)

    def test_dipping_covariance_fails(self):
        # R(1, t) = t (3 - t) falls below R(1, 1) = 2 past t = 2
        report = audit_converse(_HumpPinned(), 1.0, 2.5)
        assert not report.passed
        assert report.worst_violation == pytest.approx(1.25 - 2.0, abs=1e-12)
        assert report.witness[0] == 2.5

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="a < b"):
            audit_converse(BrownianMotion(), 2.0, 1.0)
        with pytest.raises(ValueError, match="nodes"):
            audit_converse(BrownianMotion(), 1.0, 2.0, n=1)


class TestReportShape:
    def test_rows_layout(self):
        report = audit_nonneg_increments(BrownianMotion(), 1.0, 2.0, samples=10, seed=5)
        rows = report.rows()
        keys = [k for k, _ in rows]
        assert keys == [
            "audit", "passed", "worst_violation", "witness", "samples", "seed", "note",
        ]
        values = dict(rows)
        assert values["audit"] == "nonneg_increments"
        assert values["seed"] == 5
        assert values["witness"].count(";") == 3

    def test_seedless_report_renders_empty_seed(self):
        report = audit_converse(BrownianMotion(), 1.0, 2.0)
        assert dict(report.rows())["seed"] == ""
        assert isinstance(report, AssumptionReport)
