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

from pipegate.metrics import MetricsError, _check_unit

__all__ = [
    "VERDICT_CONVENIENT",
    "VERDICT_NOT_CONVENIENT",
    "VERDICT_BOUNDARY",
    "min_extra_ratio",
    "max_model_time",
    "min_validator_time",
    "expected_figures",
    "evaluate",
]

VERDICT_CONVENIENT = "convenient"
VERDICT_NOT_CONVENIENT = "not-convenient"
VERDICT_BOUNDARY = "boundary"

# Relative tolerance for calling the two convenience inequalities ties.
_REL_TOL = 1e-9


def _check_screener(r_m: float, p_m: float, pi: float) -> None:
    """Range checks on the screener recall, its precision and the prevalence."""
    if not (0 < r_m <= 1):
        raise MetricsError(f"r_m must be in (0, 1], got {r_m}")
    if not (0 < p_m <= 1):
        raise MetricsError(f"p_m must be in (0, 1], got {p_m}")
    _check_unit("pi", pi, lo_open=True, hi_open=True)


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
) -> tuple[float, float | None]:
    """Maximum screener latency for the time requirement to hold: ``(relaxed, tight)``.

    relaxed = tau_V * (R_M/P_M) * (P_M - pi); with a chosen dn_ratio the
    tight form tau_V * (1/(1+dn_ratio) - (R_M/P_M)*pi) applies instead, and
    tight is None without one.  No headroom (not an error) when P_M <= pi:
    relaxed is then <= 0.
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
    return relaxed, tight


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


def expected_figures(pi: float, n: float, n_total: float, r_v: float, r_m: float, q: float,
                     tau_m: float, tau_v: float) -> dict[str, float]:
    """The model: both pipelines' expected true patches and times, and the survivors.

    The baseline validates all ``n`` patches; the augmented pipeline screens
    ``n_total`` and validates the share q, its pass rate, that survives.
    """
    return {
        "baseline_tp": r_v * pi * n,
        "augmented_tp": r_v * r_m * pi * n_total,
        "baseline_time": n * tau_v,
        "augmented_time": tau_m * n_total + tau_v * q * n_total,
        "survivors": q * n_total,
    }


def evaluate(pi: float, n: float, r_v: float, r_m: float, p_m: float, tau_m: float,
             tau_v: float, dn_ratio: float) -> tuple[str, str | None]:
    """Full convenience check of one scenario at a chosen extra-volume ratio.

    Compares the :func:`expected_figures` over N = n*(1 + dn_ratio) at the
    pass rate q = (R_M/P_M)*pi and returns ``(verdict, binding)``.  Verdict
    is ``convenient`` iff throughput does not drop and time does not grow,
    with at least one strict; ties within 1e-9 relative on both give
    ``boundary``.  ``binding`` names the violated (or tying) constraint.
    Checks, in order: 0 < P_M <= 1, tau_V > 0, R_V > 0 and dn_ratio >= 0;
    the caller range-checks the rest.  Finite inputs whose figures overflow
    raise: two infinite times tie, so any verdict drawn from them would be
    false.
    """
    _check_unit("precision", p_m, lo_open=True)
    if tau_v <= 0:
        raise MetricsError("validator latency must be present and > 0")
    if r_v <= 0:
        raise MetricsError("validator recall must be > 0")
    if dn_ratio < 0:
        raise MetricsError(f"dn_ratio must be >= 0, got {dn_ratio}")
    f = expected_figures(pi, n, n * (1.0 + dn_ratio), r_v, r_m, (r_m / p_m) * pi, tau_m, tau_v)
    base_tp, aug_tp = f["baseline_tp"], f["augmented_tp"]
    base_time, aug_time = f["baseline_time"], f["augmented_time"]
    if not all(math.isfinite(x) for x in (base_tp, aug_tp, base_time, aug_time)):
        raise MetricsError("a pipeline figure is not a finite number; inputs too large")

    tp_ok, tp_strict = _leq(base_tp, aug_tp)
    time_ok, time_strict = _leq(aug_time, base_time)
    if tp_ok and time_ok:
        if tp_strict or time_strict:
            return VERDICT_CONVENIENT, None
        return VERDICT_BOUNDARY, "throughput+time"
    failed = [name for name, ok in (("throughput", tp_ok), ("time", time_ok)) if not ok]
    return VERDICT_NOT_CONVENIENT, "+".join(failed)
