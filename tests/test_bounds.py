"""Closed-form pipeline model: worked examples, monotonicity, boundary identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipegate.bounds import (
    VERDICT_BOUNDARY,
    VERDICT_CONVENIENT,
    VERDICT_NOT_CONVENIENT,
    PipelineConfig,
    augmented_time,
    augmented_tp,
    baseline_time,
    baseline_tp,
    evaluate,
    max_model_time,
    min_extra_ratio,
    min_validator_time,
)
from pipegate.metrics import MetricsError, invert_detector_precision

VDP_P_M = invert_detector_precision(0.87, 0.84, 0.05)  # 0.93713
VDP_R_M = 0.95


class TestThroughput:
    def test_baseline_tp(self):
        assert baseline_tp(0.38, 100, 1.0) == pytest.approx(38.0)
        # 30 observed correct patches out of 78 generated
        assert baseline_tp(0.38, 78, 1.0) == pytest.approx(29.64)
        assert round(baseline_tp(0.38, 78, 1.0)) == 30
        assert baseline_tp(0.29, 1000, 0.5) == pytest.approx(145.0)

    def test_baseline_time(self):
        assert baseline_time(100, 9.17) == pytest.approx(917.0)
        assert baseline_time(0, 123.0) == 0.0
        assert baseline_time(10, 337.83) == pytest.approx(3378.3)

    def test_augmented_tp(self):
        boundary_n = 100 * (1 + min_extra_ratio(VDP_R_M))
        assert augmented_tp(0.38, boundary_n, VDP_R_M, 1.0) == pytest.approx(
            baseline_tp(0.38, 100, 1.0)
        )
        assert augmented_tp(0.4, 50, 1.0, 0.9) == pytest.approx(baseline_tp(0.4, 50, 0.9))
        assert augmented_tp(0.5, 10, 0.5, 0.5) == pytest.approx(1.25)

    def test_augmented_time(self):
        assert augmented_time(0.38, 100, 0.0, 10.0, 1.0, 1.0) == pytest.approx(380.0)
        assert augmented_time(0.5, 0, 1.0, 1.0, 0.5, 0.5) == 0.0
        # frozen arithmetic: (156 + 273.6*(R_M/P_M)*0.38) * 105.26
        expect = (156 + 273.6 * (VDP_R_M / VDP_P_M) * 0.38) * 105.26
        assert augmented_time(0.38, 105.26, 156, 273.6, VDP_R_M, VDP_P_M) == pytest.approx(
            expect, rel=1e-12
        )
        # at the true break-even validator time the pipelines tie exactly
        floor = min_validator_time(156, VDP_R_M, VDP_P_M, 0.38)
        n_total = 100 / VDP_R_M
        assert augmented_time(0.38, n_total, 156, floor, VDP_R_M, VDP_P_M) == pytest.approx(
            baseline_time(100, floor), rel=1e-12
        )


class TestBoundsFormulas:
    def test_min_extra_ratio(self):
        assert min_extra_ratio(0.95) == pytest.approx(0.0526, abs=5e-5)
        assert min_extra_ratio(1.0) == 0.0
        assert min_extra_ratio(0.5) == pytest.approx(1.0)
        with pytest.raises(MetricsError):
            min_extra_ratio(0.0)

    def test_max_model_time_linevul_q25(self):
        p_m = invert_detector_precision(0.97, 0.86, 0.002)
        budget = max_model_time(9.17, 0.998, p_m, 0.38)
        assert budget.relaxed > 0
        assert budget.relaxed == pytest.approx(5.67, rel=0.01)

    def test_max_model_time_no_headroom(self):
        budget = max_model_time(100.0, 0.9, 0.38, 0.38)
        assert budget.relaxed == pytest.approx(0.0, abs=1e-12)
        assert budget.relaxed <= 0

    def test_max_model_time_vuldeepecker_median(self):
        budget = max_model_time(27.04, VDP_R_M, VDP_P_M, 0.38)
        assert budget.relaxed == pytest.approx(15.27, abs=0.01)
        assert budget.relaxed == pytest.approx(15.6, rel=0.03)

    def test_tight_equals_relaxed_at_minimum_ratio(self):
        budget = max_model_time(27.04, VDP_R_M, VDP_P_M, 0.38, min_extra_ratio(VDP_R_M))
        assert budget.tight == pytest.approx(budget.relaxed, rel=1e-12)

    def test_tight_below_relaxed_beyond_minimum(self):
        budget = max_model_time(27.04, VDP_R_M, VDP_P_M, 0.38, 0.2)
        assert budget.tight < budget.relaxed

    def test_min_validator_time_fixed_model(self):
        floor = min_validator_time(156, VDP_R_M, VDP_P_M, 0.38)
        assert floor / 60 == pytest.approx(4.56, rel=0.02)
        p_m = invert_detector_precision(0.11, 0.14, 0.11)
        floor = min_validator_time(156, 0.89, p_m, 0.38)
        assert floor / 60 == pytest.approx(5.07, rel=0.02)

    def test_min_validator_time_infeasible(self):
        assert min_validator_time(10.0, 0.9, 0.3, 0.38) is None

    def test_free_screener_floor_tends_to_zero(self):
        assert min_validator_time(1e-12, 0.95, 0.9, 0.38) == pytest.approx(0.0, abs=1e-9)
        assert min_validator_time(0.0, 0.95, 0.9, 0.38) == 0.0
        with pytest.raises(MetricsError, match="tau_m must be >= 0"):
            min_validator_time(-1.0, 0.95, 0.9, 0.38)

    @given(st.floats(min_value=0.05, max_value=0.999))
    def test_min_extra_ratio_strictly_decreasing(self, r_m):
        assert min_extra_ratio(r_m) > min_extra_ratio(min(1.0, r_m + 1e-3))

    @given(
        tau_v=st.floats(min_value=0.1, max_value=1e4),
        r_m=st.floats(min_value=0.05, max_value=1.0),
        p_m=st.floats(min_value=0.45, max_value=0.999),
        pi=st.floats(min_value=0.01, max_value=0.4),
    )
    def test_relaxed_bound_monotonicity(self, tau_v, r_m, p_m, pi):
        base = max_model_time(tau_v, r_m, p_m, pi).relaxed
        assert max_model_time(tau_v * 1.01, r_m, p_m, pi).relaxed > base
        assert max_model_time(tau_v, r_m, min(1.0, p_m + 1e-3), pi).relaxed > base
        assert max_model_time(tau_v, r_m, p_m, pi + 1e-3).relaxed < base

    @given(
        r_m=st.floats(min_value=0.05, max_value=1.0),
        p_m=st.floats(min_value=0.45, max_value=1.0),
        pi=st.floats(min_value=0.01, max_value=0.4),
        tau_v=st.floats(min_value=0.1, max_value=1e4),
    )
    def test_time_bound_implies_screener_faster_than_validator(self, r_m, p_m, pi, tau_v):
        budget = max_model_time(tau_v, r_m, p_m, pi, min_extra_ratio(r_m))
        assert budget.tight <= tau_v + 1e-9


class TestEvaluate:
    def test_convenient_scenario(self):
        config = PipelineConfig(0.38, 100, 1.0, 300.0, VDP_P_M, VDP_R_M, 156.0)
        report = evaluate(config, 0.06)
        assert report.verdict == VERDICT_CONVENIENT
        assert report.binding is None

    def test_perfect_free_screener_boundary_on_tp(self):
        config = PipelineConfig(0.38, 100, 1.0, 10.0, 1.0, 1.0, 0.0)
        report = evaluate(config, 0.0)
        # tp ties exactly, time is strictly smaller
        assert report.verdict == VERDICT_CONVENIENT
        assert report.augmented_tp == pytest.approx(report.baseline_tp, rel=1e-12)
        assert report.augmented_time < report.baseline_time

    def test_no_headroom_never_convenient(self):
        config = PipelineConfig(0.38, 100, 1.0, 300.0, 0.38, 0.95, 10.0)
        report = evaluate(config, min_extra_ratio(0.95))
        assert report.verdict == VERDICT_NOT_CONVENIENT
        assert "time" in report.binding

    def test_boundary_verdict_at_exact_tie(self):
        dn = min_extra_ratio(VDP_R_M)
        budget = max_model_time(300.0, VDP_R_M, VDP_P_M, 0.38, dn)
        config = PipelineConfig(0.38, 100, 1.0, 300.0, VDP_P_M, VDP_R_M, budget.tight)
        report = evaluate(config, dn)
        assert report.verdict == VERDICT_BOUNDARY

    def test_screener_passing_no_good_patch_rejected(self):
        with pytest.raises(MetricsError, match=r"r_m must be in \(0, 1\], got 0.0"):
            PipelineConfig(0.38, 100, 1.0, 300.0, VDP_P_M, 0.0, 10.0)
        # its prevalence-consistent precision is 0 too, and P_M is named first
        with pytest.raises(MetricsError, match="precision must be > 0, got 0.0"):
            PipelineConfig(0.38, 100, 1.0, 300.0, 0.0, 0.0, 10.0)
        # each of the other numbers outside its range
        good = dict(pi=0.38, n=100, r_v=1.0, tau_v=300.0, p_m=VDP_P_M, r_m=VDP_R_M, tau_m=10.0)
        for field, value, message in [
            ("p_m", 1.5, r"precision must be in \[0, 1\], got 1.5"),
            ("p_m", -0.1, r"precision must be in \[0, 1\], got -0.1"),
            ("r_v", 0.0, "validator recall must be > 0"),
            ("r_v", 1.5, r"r_v must be in \[0, 1\], got 1.5"),
            ("tau_v", 0.0, "validator latency must be present and > 0"),
            ("tau_v", -1.0, "validator latency must be present and > 0"),
            ("r_m", 1.5, r"r_m must be in \(0, 1\], got 1.5"),
            ("pi", 1.0, "pi must be < 1, got 1.0"),
            ("n", 0, "n must be > 0, got 0"),
        ]:
            with pytest.raises(MetricsError, match=message):
                PipelineConfig(**dict(good, **{field: value}))

    def test_missing_screener_latency(self):
        for tau_m in (None, -1.0):
            with pytest.raises(MetricsError, match="latency"):
                PipelineConfig(0.38, 100, 1.0, 300.0, VDP_P_M, VDP_R_M, tau_m)

    def test_overflowed_figures_rejected(self):
        # both times overflow to inf and would tie as a boundary
        config = PipelineConfig(0.38, 100, 1.0, 1e308, VDP_P_M, VDP_R_M, 1e308)
        with pytest.raises(MetricsError, match="not a finite number"):
            evaluate(config, 0.06)

    def test_boundary_identity_random_configs(self):
        # at dn = 1/R_M - 1 and tau_M at the tight budget both requirements
        # tie to 1e-9 relative
        rng = np.random.default_rng(7)
        for _ in range(200):
            pi = rng.uniform(0.05, 0.9)
            r_m = rng.uniform(0.1, 1.0)
            p_m = rng.uniform(pi + 0.01, 1.0)
            r_v = rng.uniform(0.1, 1.0)
            tau_v = rng.uniform(0.1, 1000.0)
            n = rng.uniform(1, 1e6)
            dn = min_extra_ratio(r_m)
            tau_m = max_model_time(tau_v, r_m, p_m, pi, dn).tight
            if tau_m < 0:
                continue
            config = PipelineConfig(pi, n, r_v, tau_v, p_m, r_m, tau_m)
            report = evaluate(config, dn)
            assert report.augmented_tp == pytest.approx(report.baseline_tp, rel=1e-9)
            assert report.augmented_time == pytest.approx(report.baseline_time, rel=1e-9)
            assert report.verdict == VERDICT_BOUNDARY
