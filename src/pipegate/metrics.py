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

__all__ = [
    "MetricsError",
    "EPS_CONSISTENCY",
    "bayes_fpr",
    "consistency_gap",
    "invert_detector_precision",
    "pass_rate",
    "precision_at_prevalence",
    "invert_detector",
]

# Published specs are rounded to 2 decimals, so mutual consistency of
# (P, R, FPR, prevalence) is only checked to this absolute tolerance.
EPS_CONSISTENCY = 0.02


class MetricsError(ValueError):
    """Domain error: an input is outside the range where the formula holds."""


def _check_unit(name: str, value: float, lo_open: bool = False, hi_open: bool = False) -> None:
    if not (0.0 <= value <= 1.0):
        raise MetricsError(f"{name} must be in [0, 1], got {value}")
    if lo_open and value == 0.0:
        raise MetricsError(f"{name} must be > 0, got {value}")
    if hi_open and value == 1.0:
        raise MetricsError(f"{name} must be < 1, got {value}")


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


def consistency_gap(precision: float, recall: float, fpr: float, pi: float) -> float | None:
    """|published precision - precision implied by (R, FPR, prevalence)|.

    Published rows are rounded to two decimals and routinely fail an exact
    check, so the caller decides whether the gap exceeds ``EPS_CONSISTENCY``.
    None when the implied precision is undefined (a classifier that passes
    nothing).
    """
    if pass_rate(recall, fpr, pi) == 0:
        return None
    return abs(precision - precision_at_prevalence(recall, fpr, pi))


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


def pass_rate(tpr: float, fpr: float, pi: float) -> float:
    """Share of items a (tpr, fpr) classifier passes at prevalence pi, good or not."""
    _check_unit("tpr", tpr)
    _check_unit("fpr", fpr)
    _check_unit("pi", pi, lo_open=True, hi_open=True)
    return pi * tpr + (1 - pi) * fpr


def precision_at_prevalence(tpr: float, fpr: float, pi: float) -> float:
    """Bayes' rule: precision of a (tpr, fpr) classifier at prevalence pi."""
    denom = pass_rate(tpr, fpr, pi)
    if denom == 0:
        raise MetricsError("precision undefined: classifier passes nothing")
    return pi * tpr / denom


def invert_detector(precision: float, recall: float, fpr: float) -> tuple[float, float, float]:
    """The screener a detector becomes when used in reverse: ``(P_M, R_M, F_M)``.

    P_M is the as-published :func:`invert_detector_precision`, R_M is
    1 - detector FPR and F_M is 1 - detector recall.
    """
    p_m = invert_detector_precision(precision, recall, fpr)
    _check_unit("precision", p_m, lo_open=True)  # a subnormal recall can overflow the ratio
    return p_m, 1.0 - fpr, 1.0 - recall
