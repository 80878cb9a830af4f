"""Closed-form pipeline model: worked examples, monotonicity, boundary identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipegate.bounds import (
    VERDICT_BOUNDARY,
    VERDICT_CONVENIENT,
    VERDICT_NOT_CONVENIENT,
    evaluate,
    expected_figures,
    max_model_time,
    min_extra_ratio,
    min_validator_time,
)
from pipegate.metrics import MetricsError, invert_detector

VDP_P_M = invert_detector(0.87, 0.84, 0.05)[0]  # 0.93713
VDP_R_M = 0.95


def figures(pi=0.38, n=100, r_v=1.0, tau_v=1.0, p_m=1.0, r_m=1.0, tau_m=0.0, dn_ratio=0.0):
    """The expected pipeline figures ``evaluate`` compares, at q = (R_M/P_M)*pi."""
    return expected_figures(pi, n, n * (1.0 + dn_ratio), r_v, r_m, (r_m / p_m) * pi, tau_m, tau_v)


class TestThroughput:
    def test_baseline_tp(self):
        assert figures(0.38, 100, 1.0)["baseline_tp"] == pytest.approx(38.0)
        # 30 observed correct patches out of 78 generated
        assert figures(0.38, 78, 1.0)["baseline_tp"] == pytest.approx(29.64)
        assert round(figures(0.38, 78, 1.0)["baseline_tp"]) == 30
        assert figures(0.29, 1000, 0.5)["baseline_tp"] == pytest.approx(145.0)

    def test_baseline_time(self):
        assert figures(n=100, tau_v=9.17)["baseline_time"] == pytest.approx(917.0)
        assert figures(n=10, tau_v=337.83)["baseline_time"] == pytest.approx(3378.3)

    def test_augmented_tp(self):
        # at dn/n = 1/R_M - 1 the screened pipeline keeps the baseline throughput
        fig = figures(0.38, 100, 1.0, r_m=VDP_R_M, dn_ratio=min_extra_ratio(VDP_R_M))
        assert fig["augmented_tp"] == pytest.approx(fig["baseline_tp"])
        fig = figures(0.4, 50, 0.9, r_m=1.0)
        assert fig["augmented_tp"] == pytest.approx(fig["baseline_tp"])
        assert figures(0.5, 10, 0.5, r_m=0.5)["augmented_tp"] == pytest.approx(1.25)

    def test_augmented_time(self):
        fig = figures(0.38, 100, tau_v=10.0, p_m=1.0, r_m=1.0, tau_m=0.0)
        assert fig["augmented_time"] == pytest.approx(380.0)
        # frozen arithmetic: (156 + 273.6*(R_M/P_M)*0.38) * 105.26
        expect = (156 + 273.6 * (VDP_R_M / VDP_P_M) * 0.38) * 105.26
        fig = figures(0.38, 105.26, tau_v=273.6, p_m=VDP_P_M, r_m=VDP_R_M, tau_m=156)
        assert fig["augmented_time"] == pytest.approx(expect, rel=1e-12)
        # at the true break-even validator time the pipelines tie exactly
        floor = min_validator_time(156, VDP_R_M, VDP_P_M, 0.38)
        fig = figures(0.38, 100, tau_v=floor, p_m=VDP_P_M, r_m=VDP_R_M, tau_m=156,
                      dn_ratio=min_extra_ratio(VDP_R_M))
        assert fig["augmented_time"] == pytest.approx(fig["baseline_time"], rel=1e-12)


class TestBoundsFormulas:
    def test_min_extra_ratio(self):
        assert min_extra_ratio(0.95) == pytest.approx(0.0526, abs=5e-5)
        assert min_extra_ratio(1.0) == 0.0
        assert min_extra_ratio(0.5) == pytest.approx(1.0)
        with pytest.raises(MetricsError):
            min_extra_ratio(0.0)

    def test_max_model_time_linevul_q25(self):
        p_m = invert_detector(0.97, 0.86, 0.002)[0]
        relaxed, _ = max_model_time(9.17, 0.998, p_m, 0.38)
        assert relaxed > 0
        assert relaxed == pytest.approx(5.67, rel=0.01)

    def test_max_model_time_no_headroom(self):
        relaxed, _ = max_model_time(100.0, 0.9, 0.38, 0.38)
        assert relaxed == pytest.approx(0.0, abs=1e-12)
        assert relaxed <= 0

    def test_max_model_time_vuldeepecker_median(self):
        relaxed, _ = max_model_time(27.04, VDP_R_M, VDP_P_M, 0.38)
        assert relaxed == pytest.approx(15.27, abs=0.01)
        assert relaxed == pytest.approx(15.6, rel=0.03)

    def test_tight_equals_relaxed_at_minimum_ratio(self):
        relaxed, tight = max_model_time(27.04, VDP_R_M, VDP_P_M, 0.38, min_extra_ratio(VDP_R_M))
        assert tight == pytest.approx(relaxed, rel=1e-12)

    def test_tight_below_relaxed_beyond_minimum(self):
        relaxed, tight = max_model_time(27.04, VDP_R_M, VDP_P_M, 0.38, 0.2)
        assert tight < relaxed

    def test_min_validator_time_fixed_model(self):
        floor = min_validator_time(156, VDP_R_M, VDP_P_M, 0.38)
        assert floor / 60 == pytest.approx(4.56, rel=0.02)
        p_m = invert_detector(0.11, 0.14, 0.11)[0]
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
        base = max_model_time(tau_v, r_m, p_m, pi)[0]
        assert max_model_time(tau_v * 1.01, r_m, p_m, pi)[0] > base
        assert max_model_time(tau_v, r_m, min(1.0, p_m + 1e-3), pi)[0] > base
        assert max_model_time(tau_v, r_m, p_m, pi + 1e-3)[0] < base

    @given(
        r_m=st.floats(min_value=0.05, max_value=1.0),
        p_m=st.floats(min_value=0.45, max_value=1.0),
        pi=st.floats(min_value=0.01, max_value=0.4),
        tau_v=st.floats(min_value=0.1, max_value=1e4),
    )
    def test_time_bound_implies_screener_faster_than_validator(self, r_m, p_m, pi, tau_v):
        _, tight = max_model_time(tau_v, r_m, p_m, pi, min_extra_ratio(r_m))
        assert tight <= tau_v + 1e-9


class TestEvaluate:
    def test_convenient_scenario(self):
        assert evaluate(0.38, 100, 1.0, VDP_R_M, VDP_P_M, 156.0, 300.0, 0.06) == (
            VERDICT_CONVENIENT, None)

    def test_perfect_free_screener_boundary_on_tp(self):
        # tp ties exactly, time is strictly smaller
        assert evaluate(0.38, 100, 1.0, 1.0, 1.0, 0.0, 10.0, 0.0) == (VERDICT_CONVENIENT, None)
        fig = figures(0.38, 100, 1.0, tau_v=10.0)
        assert fig["augmented_tp"] == pytest.approx(fig["baseline_tp"], rel=1e-12)
        assert fig["augmented_time"] < fig["baseline_time"]

    def test_no_headroom_never_convenient(self):
        got, binding = evaluate(0.38, 100, 1.0, 0.95, 0.38, 10.0, 300.0, min_extra_ratio(0.95))
        assert got == VERDICT_NOT_CONVENIENT
        assert "time" in binding

    def test_boundary_verdict_at_exact_tie(self):
        dn = min_extra_ratio(VDP_R_M)
        _, tight = max_model_time(300.0, VDP_R_M, VDP_P_M, 0.38, dn)
        assert evaluate(0.38, 100, 1.0, VDP_R_M, VDP_P_M, tight, 300.0, dn) == (
            VERDICT_BOUNDARY, "throughput+time")

    def test_screener_passing_no_good_patch_rejected(self):
        # the bounds range-check the screener and pi themselves
        for r_m, pi, message in [
            (0.0, 0.38, r"r_m must be in \(0, 1\], got 0.0"),
            (1.5, 0.38, r"r_m must be in \(0, 1\], got 1.5"),
            (VDP_R_M, 1.0, "pi must be < 1, got 1.0"),
        ]:
            with pytest.raises(MetricsError, match=message):
                max_model_time(300.0, r_m, VDP_P_M, pi)
            with pytest.raises(MetricsError, match=message):
                min_validator_time(10.0, r_m, VDP_P_M, pi)
        # evaluate leaves R_M and pi to its caller.  It checks P_M, which is 0
        # for such a screener at the generator's pi (test_cli's
        # test_rejected_before_sampling), before it forms q, then the validator
        good = dict(pi=0.38, n=100, r_v=1.0, tau_v=300.0, p_m=VDP_P_M, r_m=VDP_R_M, tau_m=10.0,
                    dn_ratio=0.06)
        for field, value, message in [
            ("p_m", 0.0, "precision must be > 0"),
            ("r_v", 0.0, "validator recall must be > 0"),
            ("tau_v", 0.0, "validator latency must be present and > 0"),
            ("tau_v", -1.0, "validator latency must be present and > 0"),
        ]:
            with pytest.raises(MetricsError, match=message):
                evaluate(**dict(good, **{field: value}))

    def test_negative_extra_ratio_rejected(self):
        with pytest.raises(MetricsError, match="dn_ratio must be >= 0, got -0.1"):
            evaluate(0.38, 100, 1.0, VDP_R_M, VDP_P_M, 10.0, 300.0, -0.1)
        with pytest.raises(MetricsError, match="dn_ratio must be >= 0, got -0.1"):
            max_model_time(300.0, VDP_R_M, VDP_P_M, 0.38, -0.1)

    def test_precision_above_one_rejected(self):
        # and P_M = 0, which the CLI's inversion rejects before these are reached
        for p_m in (1.5, 0.0):
            with pytest.raises(MetricsError, match=rf"p_m must be in \(0, 1\], got {p_m}"):
                max_model_time(300.0, VDP_R_M, p_m, 0.38)
            with pytest.raises(MetricsError, match=rf"p_m must be in \(0, 1\], got {p_m}"):
                min_validator_time(10.0, VDP_R_M, p_m, 0.38)

    def test_overflowed_figures_rejected(self):
        # both times overflow to inf and would tie as a boundary
        with pytest.raises(MetricsError, match="not a finite number"):
            evaluate(0.38, 100, 1.0, VDP_R_M, VDP_P_M, 1e308, 1e308, 0.06)

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
            _, tau_m = max_model_time(tau_v, r_m, p_m, pi, dn)
            if tau_m < 0:
                continue
            fig = figures(pi, n, r_v, tau_v, p_m, r_m, tau_m, dn)
            assert fig["augmented_tp"] == pytest.approx(fig["baseline_tp"], rel=1e-9)
            assert fig["augmented_time"] == pytest.approx(fig["baseline_time"], rel=1e-9)
            assert evaluate(pi, n, r_v, r_m, p_m, tau_m, tau_v, dn)[0] == VERDICT_BOUNDARY
