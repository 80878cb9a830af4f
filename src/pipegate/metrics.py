"""Confusion-matrix algebra for binary classifiers.

Everything here is prevalence-aware arithmetic on four numbers (TP/FP/FN/TN)
and the three rates derived from them.  Two less common pieces:

* ``bayes_fpr`` reconstructs a false-positive rate that a model's authors did
  not report, from the precision, recall and dataset prevalence they did
  report.
* ``invert_detector`` converts the published metrics of a
  vulnerability *detector* (positive class = vulnerable) into the metrics of
  the same model used in reverse as a good-patch *screener* (positive class =
  good patch).  Flipping the labels swaps TP with TN and FP with FN, and the
  screener metrics follow from re-reading the swapped counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

__all__ = [
    "MetricsError",
    "ClassifierSpec",
    "EPS_CONSISTENCY",
    "bayes_fpr",
    "invert_detector_precision",
    "precision_at_prevalence",
    "invert_detector",
]

# Published specs are rounded to 2 decimals, so mutual consistency of
# (P, R, FPR, prevalence) is only checked to this absolute tolerance.
EPS_CONSISTENCY = 0.02


class MetricsError(ValueError):
    """Domain error: an input is outside the range where the formula holds."""


class InconsistentSpecWarning(UserWarning):
    """A published (P, R, FPR, prevalence) tuple disagrees beyond rounding."""


def _check_unit(name: str, value: float, lo_open: bool = False, hi_open: bool = False) -> None:
    if not (0.0 <= value <= 1.0):
        raise MetricsError(f"{name} must be in [0, 1], got {value}")
    if lo_open and value == 0.0:
        raise MetricsError(f"{name} must be > 0, got {value}")
    if hi_open and value == 1.0:
        raise MetricsError(f"{name} must be < 1, got {value}")


@dataclass(frozen=True)
class ClassifierSpec:
    """Published performance figures for one binary classifier.

    ``fpr``, ``latency`` and ``eval_prevalence`` may be absent (None); a
    missing FPR can be reconstructed with :func:`bayes_fpr` when the
    evaluation prevalence is known.  When all four rate fields are present
    they are checked for mutual consistency to within ``EPS_CONSISTENCY``;
    a violation emits :class:`InconsistentSpecWarning` rather than raising,
    because published rows rounded to two decimals routinely fail an exact
    check.
    """

    precision: float
    recall: float
    fpr: float | None = None
    latency: float | None = None
    eval_prevalence: float | None = None

    def __post_init__(self) -> None:
        _check_unit("precision", self.precision, lo_open=True)
        _check_unit("recall", self.recall)
        if self.fpr is not None:
            _check_unit("fpr", self.fpr)
        if self.latency is not None and self.latency < 0:
            raise MetricsError(f"latency must be >= 0, got {self.latency}")
        if self.eval_prevalence is not None:
            _check_unit("eval_prevalence", self.eval_prevalence, lo_open=True, hi_open=True)
        gap = self.consistency_gap()
        if gap is not None and gap > EPS_CONSISTENCY:
            warnings.warn(
                f"precision {self.precision} disagrees with the value implied by "
                f"(recall={self.recall}, fpr={self.fpr}, prevalence={self.eval_prevalence}) "
                f"by {gap:.4f} (> {EPS_CONSISTENCY})",
                InconsistentSpecWarning,
                stacklevel=2,
            )

    def consistency_gap(self) -> float | None:
        """|published precision - precision implied by (R, FPR, prevalence)|.

        None when any of fpr / eval_prevalence is absent or the implied
        precision is undefined (classifier that passes nothing).
        """
        if self.fpr is None or self.eval_prevalence is None:
            return None
        pi = self.eval_prevalence
        if pi * self.recall + (1 - pi) * self.fpr == 0:
            return None
        return abs(self.precision - precision_at_prevalence(self.recall, self.fpr, pi))


def bayes_fpr(precision: float, recall: float, pi: float) -> float:
    """Reconstruct the FPR implied by precision, recall and prevalence.

    Inverts P = pi*R / (pi*R + (1-pi)*Far) for Far.  Exact inverse: feeding
    the result back into :func:`precision_at_prevalence` recovers the input
    precision.
    """
    _check_unit("precision", precision, lo_open=True)
    _check_unit("recall", recall)
    _check_unit("pi", pi, lo_open=True, hi_open=True)
    if precision == 1.0:
        return 0.0
    return pi * recall * (1 - precision) / (precision * (1 - pi))


def invert_detector_precision(p_mvd: float, r_mvd: float, far_mvd: float) -> float:
    """Precision of a vulnerability detector used in reverse as a screener.

    Evaluates, as published, P_M = 1 / (1 + Far*P*(1-R) / ((1-Far)*(1-P)*R))
    on the detector-side triple.  When the triple is mutually consistent at
    some prevalence, this equals the precision read off the label-swapped
    confusion counts at that prevalence.  The published triple is taken at
    face value even when its components are mutually inconsistent; use
    :func:`precision_at_prevalence` on the screener rates for the
    prevalence-consistent alternative.
    """
    _check_unit("p_mvd", p_mvd, lo_open=True)
    _check_unit("r_mvd", r_mvd)
    _check_unit("far_mvd", far_mvd, hi_open=True)
    # Degenerate cases route to their closed forms to avoid 0/0.
    if far_mvd == 0.0 or r_mvd == 1.0:
        return 1.0
    if p_mvd == 1.0:
        raise MetricsError(
            "inconsistent detector spec: perfect precision with nonzero FPR"
        )
    if r_mvd == 0.0:
        raise MetricsError("detector recall must be > 0 when FPR > 0")
    ratio = (far_mvd * p_mvd * (1 - r_mvd)) / ((1 - far_mvd) * (1 - p_mvd) * r_mvd)
    return 1.0 / (1.0 + ratio)


def precision_at_prevalence(tpr: float, fpr: float, pi: float) -> float:
    """Bayes' rule: precision of a (tpr, fpr) classifier at prevalence pi."""
    _check_unit("tpr", tpr)
    _check_unit("fpr", fpr)
    _check_unit("pi", pi, lo_open=True, hi_open=True)
    denom = pi * tpr + (1 - pi) * fpr
    if denom == 0:
        raise MetricsError("precision undefined: classifier passes nothing")
    return pi * tpr / denom


def invert_detector(detector: ClassifierSpec) -> ClassifierSpec:
    """The screener a detector becomes when used in reverse.

    Precision is the as-published :func:`invert_detector_precision`, recall
    is 1 - detector FPR, FPR is 1 - detector recall, and the latency carries
    over.  Requires the detector FPR to be present (reconstruct it first
    with :func:`bayes_fpr` if needed).
    """
    if detector.fpr is None:
        raise MetricsError("detector fpr is required; complete it via bayes_fpr first")
    return ClassifierSpec(
        precision=invert_detector_precision(detector.precision, detector.recall, detector.fpr),
        recall=1.0 - detector.fpr,
        fpr=1.0 - detector.recall,
        latency=detector.latency,
    )
