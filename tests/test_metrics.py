"""Confusion-matrix algebra: worked examples and algebraic invariants."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pipegate.metrics import (
    EPS_CONSISTENCY,
    MetricsError,
    _check_unit,
    bayes_fpr,
    consistency_gap,
    invert_detector,
    pass_rate,
    precision_at_prevalence,
)
from reference import ConfusionCounts, counts_from_rates, swap_labels

rates = st.floats(min_value=0.01, max_value=0.99)
prevalences = st.floats(min_value=0.01, max_value=0.99)


class TestBayesFpr:
    def test_linevul_row(self):
        # published row reconstructs its starred 0.002
        assert bayes_fpr(0.97, 0.86, 0.06) == pytest.approx(0.0016977, abs=1e-6)
        assert round(bayes_fpr(0.97, 0.86, 0.06), 3) == 0.002

    def test_linevd_row(self):
        assert bayes_fpr(0.27, 0.53, 0.06) == pytest.approx(0.0914661, abs=1e-6)
        assert round(bayes_fpr(0.27, 0.53, 0.06), 2) == 0.09

    def test_perfect_precision_implies_zero_fpr(self):
        for r in (0.1, 0.5, 1.0):
            for pi in (0.1, 0.9):
                assert bayes_fpr(1.0, r, pi) == 0.0

    def test_domain_errors(self):
        with pytest.raises(MetricsError):
            bayes_fpr(0.9, 0.8, 0.0)
        with pytest.raises(MetricsError):
            bayes_fpr(0.9, 0.8, 1.0)
        with pytest.raises(MetricsError):
            bayes_fpr(0.0, 0.8, 0.5)

    @given(p=rates, r=rates, pi=prevalences)
    def test_exact_inverse_of_precision(self, p, r, pi):
        far = bayes_fpr(p, r, pi)
        # an implied rate above 1 means no confusion matrix realises the
        # triple, so there is nothing to round-trip
        assume(far <= 1.0)
        assert precision_at_prevalence(r, far, pi) == pytest.approx(p, abs=1e-12)


class TestCountsFromRates:
    def test_perfect_classifier(self):
        c = counts_from_rates(1.0, 0.0, 0.5, 100)
        assert (c.tp, c.fp, c.fn, c.tn) == (50, 0, 0, 50)

    def test_vuldeepecker_gadget_counts(self):
        # frozen from exact rational arithmetic:
        # tp = 84/100 * 29/100 * 61638, etc.
        c = counts_from_rates(0.84, 0.05, 0.29, 61638)
        assert c.tp == pytest.approx(float(Fraction(84 * 29 * 61638, 10000)), rel=1e-12)
        assert c.fn == pytest.approx(float(Fraction(16 * 29 * 61638, 10000)), rel=1e-12)
        assert c.fp == pytest.approx(float(Fraction(5 * 71 * 61638, 10000)), rel=1e-12)
        assert c.tn == pytest.approx(float(Fraction(95 * 71 * 61638, 10000)), rel=1e-12)
        assert c.total == pytest.approx(61638, rel=1e-12)

    def test_uninformative_symmetric(self):
        c = counts_from_rates(0.5, 0.5, 0.5, 4)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_range_violations(self):
        with pytest.raises(MetricsError):
            counts_from_rates(1.2, 0.0, 0.5, 10)
        with pytest.raises(MetricsError):
            counts_from_rates(0.5, 0.5, 0.5, 0)

    @given(tpr=rates, fpr=rates, pi=prevalences, total=st.floats(min_value=1, max_value=1e9))
    def test_precision_consistency(self, tpr, fpr, pi, total):
        c = counts_from_rates(tpr, fpr, pi, total)
        assert c.precision == pytest.approx(
            precision_at_prevalence(tpr, fpr, pi), abs=1e-12
        )


class TestSwapLabels:
    def test_definitional(self):
        c = swap_labels(ConfusionCounts(tp=1, fp=2, fn=3, tn=4))
        assert (c.tp, c.fp, c.fn, c.tn) == (4, 3, 2, 1)

    def test_symmetric_fixed_point(self):
        c = ConfusionCounts(tp=50, fp=0, fn=0, tn=50)
        assert swap_labels(c) == c

    def test_swapped_gadget_counts(self):
        c = swap_labels(counts_from_rates(0.84, 0.05, 0.29, 61638))
        assert c.tp == pytest.approx(float(Fraction(95 * 71 * 61638, 10000)), rel=1e-12)
        assert c.fp == pytest.approx(float(Fraction(16 * 29 * 61638, 10000)), rel=1e-12)

    @given(
        tp=st.floats(min_value=0, max_value=1e9),
        fp=st.floats(min_value=0, max_value=1e9),
        fn=st.floats(min_value=0, max_value=1e9),
        tn=st.floats(min_value=0, max_value=1e9),
    )
    def test_involution(self, tp, fp, fn, tn):
        c = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
        assert swap_labels(swap_labels(c)) == c


class TestDetectorInversion:
    def test_vuldeepecker_precision(self):
        assert invert_detector(0.87, 0.84, 0.05)[0] == pytest.approx(0.9371, abs=5e-5)

    def test_reveal_precision(self):
        assert invert_detector(0.11, 0.14, 0.11)[0] == pytest.approx(0.914, abs=5e-4)

    def test_perfect_recall_gives_perfect_screener_precision(self):
        assert invert_detector(0.5, 1.0, 0.3)[0] == 1.0
        assert invert_detector(0.5, 0.7, 0.0)[0] == 1.0

    def test_inconsistent_perfect_precision(self):
        with pytest.raises(MetricsError):
            invert_detector(1.0, 0.5, 0.1)[0]

    def test_zero_recall_with_fpr_rejected(self):
        with pytest.raises(MetricsError, match="detector recall must be > 0 when FPR > 0"):
            invert_detector(0.5, 0.0, 0.1)[0]

    def test_recall_and_fpr(self):
        # screener recall is 1 - detector FPR, screener FPR 1 - detector recall
        assert invert_detector(0.87, 0.84, 0.05)[1] == 0.95
        assert invert_detector(0.5, 0.7, 0.0)[1] == 1.0
        assert invert_detector(0.11, 0.14, 0.11)[1] == pytest.approx(0.89)
        assert invert_detector(0.87, 0.84, 0.05)[2] == pytest.approx(0.16)
        assert invert_detector(0.5, 1.0, 0.3)[2] == 0.0
        assert invert_detector(0.11, 0.14, 0.11)[2] == pytest.approx(0.86)

    def test_precision_underflow_rejected(self):
        # a subnormal recall overflows the ratio, and P_M = 1/(1 + inf) is 0
        with pytest.raises(MetricsError, match=r"^precision must be > 0, got 0.0$"):
            invert_detector(0.5, 1e-310, 0.5)
        # a smaller one underflows the denominator to 0, and the ratio is inf too
        with pytest.raises(MetricsError, match=r"^precision must be > 0, got 0.0$"):
            invert_detector(0.5, 5e-324, 0.5)

    @given(r=rates, far=rates, pi=prevalences, total=st.floats(min_value=1, max_value=1e6))
    @settings(max_examples=300)
    def test_matches_swap_labels_oracle(self, r, far, pi, total):
        # feed the formula the precision implied at pi; it must then agree
        # with reading the swapped confusion counts directly
        implied_p = precision_at_prevalence(r, far, pi)
        swapped = swap_labels(counts_from_rates(r, far, pi, total))
        assert invert_detector(implied_p, r, far)[0] == pytest.approx(
            swapped.precision, abs=1e-12
        )
        _, r_m, f_m = invert_detector(implied_p, r, far)
        assert r_m == pytest.approx(swapped.recall, abs=1e-12)
        assert f_m == pytest.approx(swapped.fpr, abs=1e-12)


class TestPrecisionAtPrevalence:
    def test_examples(self):
        assert precision_at_prevalence(0.95, 0.16, 0.71) == pytest.approx(0.9356, abs=5e-5)
        assert precision_at_prevalence(1.0, 0.0, 0.3) == 1.0
        assert precision_at_prevalence(0.5, 0.5, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_undefined_when_nothing_passes(self):
        with pytest.raises(MetricsError):
            precision_at_prevalence(0.0, 0.0, 0.5)

    def test_prevalence_gap_between_published_and_consistent(self):
        # the two precision readings of the same screener differ materially
        as_published = invert_detector(0.87, 0.84, 0.05)[0]
        consistent = precision_at_prevalence(0.95, 0.16, 0.38)
        assert as_published == pytest.approx(0.9371, abs=5e-5)
        assert consistent == pytest.approx(0.7843, abs=5e-4)


class TestPassRate:
    def test_examples(self):
        assert pass_rate(0.95, 0.16, 0.38) == pytest.approx(0.4602, abs=1e-12)
        assert pass_rate(0.0, 0.0, 0.5) == 0.0
        assert pass_rate(1.0, 1.0, 0.3) == 1.0

    @given(rates, rates, prevalences)
    def test_precision_is_true_passes_over_pass_rate(self, tpr, fpr, pi):
        assert precision_at_prevalence(tpr, fpr, pi) == pi * tpr / pass_rate(tpr, fpr, pi)

    @pytest.mark.parametrize("args", [
        (1.5, 0.2, 0.4), (-0.1, 0.2, 0.4),
        (0.5, 1.5, 0.4), (0.5, -0.1, 0.4),
        (0.5, 0.2, 0.0), (0.5, 0.2, 1.0), (0.5, 0.2, 1.5),
        (1.5, 1.5, 0.0),  # several bad inputs: tpr, then fpr, then pi
    ])
    def test_range_errors_match_precision_at_prevalence(self, args):
        with pytest.raises(MetricsError) as want:
            precision_at_prevalence(*args)
        with pytest.raises(MetricsError, match=f"^{re.escape(str(want.value))}$"):
            pass_rate(*args)


class TestSpecTypes:
    def test_rate_triple_validation(self):
        # the range check SimConfig runs on tpr_m, fpr_m and r_v
        with pytest.raises(MetricsError, match=r"tpr must be in \[0, 1\], got 1.1"):
            _check_unit("tpr", 1.1)
        with pytest.raises(MetricsError, match=r"fpr must be in \[0, 1\], got -0.1"):
            _check_unit("fpr", -0.1)
        _check_unit("tpr", 0.0)
        _check_unit("fpr", 1.0)

    def test_consistency_warning(self):
        # the caller reports the gap
        assert consistency_gap(0.9, 0.5, 0.5, 0.5) > EPS_CONSISTENCY

    def test_consistent_spec_no_warning(self):
        assert consistency_gap(0.87, 0.84, 0.05, 0.29) <= EPS_CONSISTENCY

    def test_consistency_gap_undefined(self):
        # a classifier that passes nothing implies no precision
        assert consistency_gap(0.9, 0.0, 0.0, 0.5) is None

    def test_screener_rates(self):
        p_m, r_m, f_m = invert_detector(0.87, 0.84, 0.05)
        assert p_m == pytest.approx(0.9371, abs=5e-5)
        assert r_m == pytest.approx(0.95)
        assert f_m == pytest.approx(0.16)

    def test_negative_counts_rejected(self):
        with pytest.raises(MetricsError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)

    def test_counts_rate_accessors(self):
        c = ConfusionCounts(tp=3, fp=1, fn=1, tn=5)
        assert c.precision == 0.75
        assert c.recall == 0.75
        assert c.fpr == pytest.approx(1 / 6)
        assert c.prevalence == 0.4
        with pytest.raises(MetricsError):
            _ = ConfusionCounts(tp=0, fp=0, fn=1, tn=1).precision
