"""Closed-form pipeline model for a screener inserted before a validator.

Baseline: a generator emits ``n`` candidate patches, a fraction ``pi`` of
which are good; a validator with recall R_V and per-patch time tau_V checks
all of them.  Augmented: a screener M (precision P_M, recall R_M, per-patch
time tau_M) filters ``n + dn`` patches first and only its survivors reach
the validator.

The insertion is *convenient* when the augmented pipeline keeps at least the
baseline true-patch throughput and takes at most the baseline time, with at
least one inequality strict.  Rearranging the two requirements gives two
planning bounds:

* extra volume:   dn/n >= 1/R_M - 1
* screener speed: tau_M <= tau_V * (n/(n+dn) - (R_M/P_M)*pi)
                        <= tau_V * (R_M/P_M) * (P_M - pi)

The right-hand (relaxed) form is the tight form evaluated at the minimum
extra volume.  It is positive only when P_M > pi: a screener less precise
than the generator itself has no time budget at all.

All counts are expectations (real-valued); rounding is presentation-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from pipegate.metrics import ClassifierSpec, MetricsError, _check_unit

__all__ = [
    "PipelineConfig",
    "ModelTimeBudget",
    "BoundsReport",
    "VERDICT_CONVENIENT",
    "VERDICT_NOT_CONVENIENT",
    "VERDICT_BOUNDARY",
    "baseline_tp",
    "baseline_time",
    "augmented_time",
    "augmented_tp",
    "min_extra_ratio",
    "max_model_time",
    "min_validator_time",
    "evaluate",
]

VERDICT_CONVENIENT = "convenient"
VERDICT_NOT_CONVENIENT = "not-convenient"
VERDICT_BOUNDARY = "boundary"

# Relative tolerance for calling the two convenience inequalities ties.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class PipelineConfig:
    """Scenario parameters: generator prevalence, batch size, both filters.

    ``validator`` needs recall and latency; ``screener`` carries the
    screener-side metrics (precision P_M, recall R_M, latency tau_M).
    """

    pi: float
    n: float
    validator: ClassifierSpec
    screener: ClassifierSpec

    def __post_init__(self) -> None:
        _check_unit("pi", self.pi, lo_open=True, hi_open=True)
        if self.n <= 0:
            raise MetricsError(f"n must be > 0, got {self.n}")
        if self.validator.latency is None or self.validator.latency <= 0:
            raise MetricsError("validator latency must be present and > 0")
        if self.validator.recall <= 0:
            raise MetricsError("validator recall must be > 0")
        if self.screener.recall <= 0:
            raise MetricsError(f"r_m must be in (0, 1], got {self.screener.recall}")


@dataclass(frozen=True)
class ModelTimeBudget:
    """Maximum screener latency; relaxed <= 0 when P_M <= pi (no headroom)."""

    relaxed: float
    tight: float | None


@dataclass(frozen=True)
class BoundsReport:
    verdict: str
    binding: str | None
    baseline_tp: float
    augmented_tp: float
    baseline_time: float
    augmented_time: float


def _check_screener(r_m: float, p_m: float, pi: float) -> None:
    """Range checks on the screener recall, its precision and the prevalence."""
    if not (0 < r_m <= 1):
        raise MetricsError(f"r_m must be in (0, 1], got {r_m}")
    if not (0 < p_m <= 1):
        raise MetricsError(f"p_m must be in (0, 1], got {p_m}")
    _check_unit("pi", pi, lo_open=True, hi_open=True)


def baseline_tp(pi: float, n: float, r_v: float) -> float:
    """Expected true patches surviving the validator alone: R_V * pi * n."""
    _check_unit("pi", pi, lo_open=True, hi_open=True)
    _check_unit("r_v", r_v)
    if n < 0:
        raise MetricsError(f"n must be >= 0, got {n}")
    return r_v * pi * n


def baseline_time(n: float, tau_v: float) -> float:
    """Time to validate n patches without a screener: n * tau_V."""
    if n < 0:
        raise MetricsError(f"n must be >= 0, got {n}")
    if tau_v < 0:
        raise MetricsError(f"tau_v must be >= 0, got {tau_v}")
    return n * tau_v


def augmented_time(
    pi: float, n_total: float, tau_m: float, tau_v: float, r_m: float, p_m: float
) -> float:
    """Screener over everything plus validator over survivors.

    (tau_M + tau_V * (R_M/P_M) * pi) * n_total
    """
    if tau_m < 0 or tau_v < 0:
        raise MetricsError("latencies must be >= 0")
    _check_screener(r_m, p_m, pi)
    if n_total < 0:
        raise MetricsError(f"n_total must be >= 0, got {n_total}")
    return (tau_m + tau_v * (r_m / p_m) * pi) * n_total


def augmented_tp(pi: float, n_total: float, r_m: float, r_v: float) -> float:
    """Expected true patches surviving both filters: R_V * R_M * pi * n_total."""
    _check_unit("pi", pi, lo_open=True, hi_open=True)
    _check_unit("r_m", r_m)
    _check_unit("r_v", r_v)
    if n_total < 0:
        raise MetricsError(f"n_total must be >= 0, got {n_total}")
    return r_v * r_m * pi * n_total


def min_extra_ratio(r_m: float) -> float:
    """Minimum dn/n keeping baseline throughput: 1/R_M - 1."""
    if not (0 < r_m <= 1):
        raise MetricsError(f"r_m must be in (0, 1], got {r_m}")
    return 1.0 / r_m - 1.0


def max_model_time(
    tau_v: float,
    r_m: float,
    p_m: float,
    pi: float,
    dn_ratio: float | None = None,
) -> ModelTimeBudget:
    """Maximum screener latency for the time requirement to hold.

    relaxed = tau_V * (R_M/P_M) * (P_M - pi); with a chosen dn_ratio the
    tight form tau_V * (1/(1+dn_ratio) - (R_M/P_M)*pi) applies instead.
    No headroom (not an error) when P_M <= pi: relaxed is then <= 0.
    """
    if tau_v < 0:
        raise MetricsError(f"tau_v must be >= 0, got {tau_v}")
    _check_screener(r_m, p_m, pi)
    if dn_ratio is not None and dn_ratio < 0:
        raise MetricsError(f"dn_ratio must be >= 0, got {dn_ratio}")
    relaxed = tau_v * (r_m / p_m) * (p_m - pi)
    tight = None
    if dn_ratio is not None:
        tight = tau_v * (1.0 / (1.0 + dn_ratio) - (r_m / p_m) * pi)
    return ModelTimeBudget(relaxed=relaxed, tight=tight)


def min_validator_time(tau_m: float, r_m: float, p_m: float, pi: float) -> float | None:
    """Slowest validator for which a screener with latency tau_m pays off.

    tau_M / ((R_M/P_M) * (P_M - pi)), 0 for a free screener; None when
    P_M <= pi (no validator is slow enough).
    """
    if tau_m < 0:
        raise MetricsError(f"tau_m must be >= 0, got {tau_m}")
    _check_screener(r_m, p_m, pi)
    if p_m <= pi:
        return None
    return tau_m / ((r_m / p_m) * (p_m - pi))


def _leq(a: float, b: float) -> tuple[bool, bool]:
    """(a <= b within relative tolerance, strictly below tolerance band)."""
    tol = _REL_TOL * max(abs(a), abs(b), 1.0)
    return a <= b + tol, a < b - tol


def evaluate(config: PipelineConfig, dn_ratio: float) -> BoundsReport:
    """Full convenience check of one scenario at a chosen extra-volume ratio.

    Verdict is ``convenient`` iff throughput does not drop and time does not
    grow, with at least one strict; ties within 1e-9 relative on both give
    ``boundary``.  ``binding`` names the violated (or tying) constraint.
    Finite inputs whose figures overflow raise: two infinite times tie, so
    any verdict drawn from them would be false.
    """
    if dn_ratio < 0:
        raise MetricsError(f"dn_ratio must be >= 0, got {dn_ratio}")
    scr = config.screener
    if scr.latency is None:
        raise MetricsError("screener latency unknown: cannot evaluate the time requirement")
    n_total = config.n * (1.0 + dn_ratio)
    base_tp = baseline_tp(config.pi, config.n, config.validator.recall)
    base_time = baseline_time(config.n, config.validator.latency)
    aug_tp = augmented_tp(config.pi, n_total, scr.recall, config.validator.recall)
    aug_time = augmented_time(
        config.pi, n_total, scr.latency, config.validator.latency, scr.recall, scr.precision
    )
    if not all(math.isfinite(x) for x in (base_tp, aug_tp, base_time, aug_time)):
        raise MetricsError("a pipeline figure is not a finite number; inputs too large")

    tp_ok, tp_strict = _leq(base_tp, aug_tp)
    time_ok, time_strict = _leq(aug_time, base_time)
    if tp_ok and time_ok:
        if tp_strict or time_strict:
            verdict = VERDICT_CONVENIENT
            binding = None
        else:
            verdict = VERDICT_BOUNDARY
            binding = "throughput+time"
    else:
        verdict = VERDICT_NOT_CONVENIENT
        failed = []
        if not tp_ok:
            failed.append("throughput")
        if not time_ok:
            failed.append("time")
        binding = "+".join(failed)
    return BoundsReport(
        verdict=verdict,
        binding=binding,
        baseline_tp=base_tp,
        augmented_tp=aug_tp,
        baseline_time=base_time,
        augmented_time=aug_time,
    )
