"""Brute-force confusion-count oracle for the closed forms in ``metrics``.

The package computes screener metrics straight from rates; these helpers
build the expected TP/FP/FN/TN counts and swap the labels instead, so tests
can check ``invert_detector_precision`` against a direct re-reading of the
swapped counts.  Counts are real-valued: they represent expected counts, not
integer tallies.
"""

from __future__ import annotations

from dataclasses import dataclass

from pipegate.metrics import MetricsError, _check_unit


@dataclass(frozen=True)
class ConfusionCounts:
    """Expected TP/FP/FN/TN counts; fractional values are allowed."""

    tp: float
    fp: float
    fn: float
    tn: float

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise MetricsError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        if denom == 0:
            raise MetricsError("precision undefined: no predicted positives")
        return self.tp / denom

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        if denom == 0:
            raise MetricsError("recall undefined: no actual positives")
        return self.tp / denom

    @property
    def fpr(self) -> float:
        denom = self.fp + self.tn
        if denom == 0:
            raise MetricsError("fpr undefined: no actual negatives")
        return self.fp / denom

    @property
    def prevalence(self) -> float:
        if self.total == 0:
            raise MetricsError("prevalence undefined: empty counts")
        return (self.tp + self.fn) / self.total


def counts_from_rates(tpr: float, fpr: float, pi: float, total: float) -> ConfusionCounts:
    """Expected confusion counts of a classifier over ``total`` items."""
    _check_unit("tpr", tpr)
    _check_unit("fpr", fpr)
    _check_unit("pi", pi, lo_open=True, hi_open=True)
    if total <= 0:
        raise MetricsError(f"total must be > 0, got {total}")
    pos = pi * total
    neg = (1 - pi) * total
    return ConfusionCounts(
        tp=tpr * pos,
        fn=(1 - tpr) * pos,
        fp=fpr * neg,
        tn=(1 - fpr) * neg,
    )


def swap_labels(c: ConfusionCounts) -> ConfusionCounts:
    """Relabel the positive class as negative: TP<->TN and FP<->FN.

    Involution: applying it twice returns the original counts.
    """
    return ConfusionCounts(tp=c.tn, fp=c.fn, fn=c.fp, tn=c.tp)
