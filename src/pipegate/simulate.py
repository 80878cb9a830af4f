"""Seeded Monte Carlo oracle for the two-stage validation pipeline.

Each trial synthesizes a patch population, pushes it through the screener and
validator as independent Bernoulli filters with constant per-item latencies,
and records true-patch and survivor counts.  The closed forms in
:mod:`pipegate.bounds` are expectations of exactly this process, so agreement
within sampling error is the acceptance oracle for the whole model.

Reproducibility contract: every trial draws from its own Philox counter-based
stream keyed by (seed, trial index, pipeline), so results are bit-identical
for a fixed (seed, config) no matter how many workers execute the trials or
in which order.  The generator identity is part of the external contract;
changing it invalidates golden outputs.  From its one stream, an augmented
trial over m = n + delta_n items draws m label variates, then m screener
variates, then m validator variates; a baseline trial draws n labels, then n
validator variates.  At validator TPR 1 no validator variates are drawn:
``u < 1.0`` holds for every u in [0, 1), and they are the last draws of their
stream, so every good item that reaches the validator counts without them
and no other draw moves.  Each run is drawn in chunks of 8192 doubles (64 KiB)
into one reused buffer.  Consecutive draws continue the Philox counter where
the last stopped, so the chunks hold exactly the variates that one
``random(m)`` call would return.

Memory per worker thread is one bool mask of m items, reused across its
trials, plus the 64 KiB chunk and two 8 KiB chunk masks.  Trials are
dispatched as contiguous blocks, one per worker thread.

Within a trial the two filters share nothing, but a single item's screener
draw is a common random number across configs: raising the screener TPR can
only turn rejections into passes, never the reverse (monotone coupling).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from pipegate.bounds import (
    VERDICT_CONVENIENT,
    VERDICT_NOT_CONVENIENT,
    augmented_tp,
    baseline_time,
    baseline_tp,
)
from pipegate.metrics import MetricsError, RateTriple, _check_unit

__all__ = [
    "SimConfig",
    "Stat",
    "PipelineSamples",
    "SimOutcome",
    "run_baseline",
    "run_augmented",
    "compare",
    "expected_outcome",
    "expected_sd",
    "VERDICT_INCONCLUSIVE",
    "NOTHING_SURVIVES",
]

VERDICT_INCONCLUSIVE = "inconclusive"
NOTHING_SURVIVES = "screener passed nothing in every trial; precision undefined"

_BASELINE_STREAM = 0
_AUGMENTED_STREAM = 1

# Doubles per draw: 64 KiB, so a chunk and the masks it is compared into
# stay in a per-core L2 cache between the draw and the comparison.
_CHUNK = 1 << 13


@dataclass(frozen=True)
class SimConfig:
    """Inputs for one simulated scenario.

    ``screener`` carries the screener-side rates (tpr = R_M, fpr = Far_M).
    The validator's FPR is range-checked, but no result depends on it: both
    pipelines count only good items, and charge time per item regardless.
    """

    pi: float
    n: int
    delta_n: int
    screener: RateTriple
    tau_m: float
    tau_v: float
    validator: RateTriple = field(default=RateTriple(tpr=1.0, fpr=0.0))
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_unit("pi", self.pi, lo_open=True, hi_open=True)
        if self.n <= 0:
            raise MetricsError(f"n must be > 0, got {self.n}")
        if self.delta_n < 0:
            raise MetricsError(f"delta_n must be >= 0, got {self.delta_n}")
        if self.tau_m < 0 or self.tau_v < 0:
            raise MetricsError("latencies must be >= 0")
        if self.trials < 1:
            raise MetricsError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise MetricsError("seed must fit in 64 bits")

    @property
    def n_total(self) -> int:
        return self.n + self.delta_n


@dataclass(frozen=True)
class Stat:
    """Sample mean and standard error over trials."""

    mean: float
    se: float


@dataclass(frozen=True)
class PipelineSamples:
    """Per-trial observations for one pipeline variant.

    ``survivors`` and ``good_survivors`` count the screener's output and are
    absent (None) for the baseline pipeline.
    """

    tp: np.ndarray
    time: np.ndarray
    survivors: np.ndarray | None = None
    good_survivors: np.ndarray | None = None

    def tp_stat(self) -> Stat:
        return _summarize(self.tp)

    def time_stat(self) -> Stat:
        return _summarize(self.time)

    def survivors_stat(self) -> Stat:
        if self.survivors is None:
            raise MetricsError("baseline pipeline has no screener survivors")
        return _summarize(self.survivors)


@dataclass(frozen=True)
class SimOutcome:
    baseline_tp: Stat
    augmented_tp: Stat
    baseline_time: Stat
    augmented_time: Stat
    survivors: Stat
    verdict: str
    trials: int
    # Screener precision from the same augmented samples; None when the
    # screener passed nothing in every trial.
    survivor_precision: Stat | None


def _pass_rate(cfg: SimConfig) -> float:
    """Share of items the screener passes, good or not."""
    return cfg.pi * cfg.screener.tpr + (1 - cfg.pi) * cfg.screener.fpr


def expected_outcome(cfg: SimConfig) -> dict[str, float]:
    """Closed-form expectation of each ``SimOutcome`` statistic, by field name."""
    m = cfg.n_total
    tpr_m, r_v = cfg.screener.tpr, cfg.validator.tpr
    pass_rate = _pass_rate(cfg)
    return {
        "baseline_tp": baseline_tp(cfg.pi, cfg.n, r_v),
        "augmented_tp": augmented_tp(cfg.pi, m, tpr_m, r_v),
        "baseline_time": baseline_time(cfg.n, cfg.tau_v),
        "augmented_time": cfg.tau_m * m + cfg.tau_v * pass_rate * m,
        "survivors": pass_rate * m,
    }


def expected_sd(cfg: SimConfig) -> dict[str, float]:
    """Standard deviation of one trial's value of each statistic under the model.

    Every count is binomial.  The augmented time moves only with its
    survivors, tau_V per survivor; the baseline time does not move at all.
    """
    m = cfg.n_total
    tpr_m, r_v = cfg.screener.tpr, cfg.validator.tpr
    survivors = _binomial_sd(m, _pass_rate(cfg))
    return {
        "baseline_tp": _binomial_sd(cfg.n, cfg.pi * r_v),
        "augmented_tp": _binomial_sd(m, cfg.pi * tpr_m * r_v),
        "baseline_time": 0.0,
        "augmented_time": cfg.tau_v * survivors,
        "survivors": survivors,
    }


def _binomial_sd(items: int, p: float) -> float:
    return math.sqrt(items * p * (1 - p))


def _summarize(samples: np.ndarray) -> Stat:
    # np.mean/np.std use pairwise summation: order-insensitive aggregation.
    n = samples.size
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Stat(mean=mean, se=se)


class _Worker:
    """One worker thread's generator and buffers, reused by each of its trials.

    Re-keying one Philox through its state gives the stream a fresh
    ``Philox(key=...)`` would, without constructing a generator per trial.
    """

    def __init__(self, items: int) -> None:
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._philox = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._philox)
        self._mask = np.empty(items, dtype=bool)
        self._u = np.empty(_CHUNK, dtype=np.float64)
        self._passed = np.empty(_CHUNK, dtype=bool)
        self._hit = np.empty(_CHUNK, dtype=bool)

    def start(self, seed: int, trial: int, stream: int) -> None:
        """Point the generator at the start of this trial's stream."""
        self._key[0] = seed
        self._key[1] = (trial << 1) | stream
        self._philox.state = self._state

    def draws(self, items: int):
        """Yield (item slice, its variates) for the next ``items`` draws."""
        for lo in range(0, items, _CHUNK):
            hi = min(lo + _CHUNK, items)
            u = self._u[: hi - lo]
            self._rng.random(out=u)
            yield slice(lo, hi), u

    def labels(self, pi: float, items: int) -> np.ndarray:
        """Draw which of ``items`` patches are good, into the reused mask."""
        good = self._mask[:items]
        for s, u in self.draws(items):
            np.less(u, pi, out=good[s])
        return good

    def screen(self, rates: RateTriple, good: np.ndarray) -> int:
        """Pass each item at its rate; ``good`` becomes the good survivors.

        Returns the number of survivors, good or not.
        """
        survivors = 0
        for s, u in self.draws(good.size):
            kept = good[s]
            passed, hit = self._passed[: u.size], self._hit[: u.size]
            np.less(u, rates.fpr, out=passed)
            np.greater(passed, kept, out=passed)  # bad items passed
            np.less(u, rates.tpr, out=hit)
            kept &= hit
            survivors += int(np.count_nonzero(passed)) + int(np.count_nonzero(kept))
        return survivors

    def true_positives(self, tpr: float, good: np.ndarray) -> int:
        """Good items the validator passes; its FPR never reaches this count."""
        tp = 0
        for s, u in self.draws(good.size):
            hit = self._hit[: u.size]
            np.less(u, tpr, out=hit)
            hit &= good[s]
            tp += int(np.count_nonzero(hit))
        return tp


def _trial(
    cfg: SimConfig, trial: int, worker: _Worker, stream: int
) -> tuple[float, float, float, float]:
    """One trial's (true positives, time, survivors, good survivors).

    The baseline stream skips the screener pass: all n items reach the
    validator, and it charges no screener time.
    """
    worker.start(cfg.seed, trial, stream)
    augmented = stream == _AUGMENTED_STREAM
    m = cfg.n_total if augmented else cfg.n
    good = worker.labels(cfg.pi, m)
    survivors = worker.screen(cfg.screener, good) if augmented else m
    good_survivors = int(np.count_nonzero(good))
    r_v = cfg.validator.tpr
    # at R_V = 1 the validator passes every good item: its variates, the
    # stream's last, could change no count, so they are not drawn
    tp = good_survivors if r_v == 1.0 else worker.true_positives(r_v, good)
    tau_m = cfg.tau_m if augmented else 0.0
    return float(tp), tau_m * m + cfg.tau_v * survivors, float(survivors), float(good_survivors)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_trials(cfg: SimConfig, stream: int, workers: int) -> np.ndarray:
    """Run every trial of one pipeline's stream into a (4, trials) array.

    Trials are split into at most ``workers`` contiguous blocks, one thread
    each, capped at the trial count and at the CPUs this process may use.
    Results land at their trial index, so the output is identical for any
    worker count or completion order.
    """
    trials = cfg.trials
    out = np.empty((4, trials), dtype=np.float64)
    threads = max(1, min(workers, trials, _usable_cpus()))
    blocks = [range(trials * i // threads, trials * (i + 1) // threads) for i in range(threads)]

    def work(block: range) -> None:
        worker = _Worker(cfg.n_total)
        for t in block:
            out[:, t] = _trial(cfg, t, worker, stream)

    if threads == 1:
        work(blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return out


def run_baseline(cfg: SimConfig, workers: int = 1) -> PipelineSamples:
    """Validator-only pipeline over n patches, one row per trial."""
    res = _map_trials(cfg, _BASELINE_STREAM, workers)
    return PipelineSamples(tp=res[0], time=res[1])


def run_augmented(cfg: SimConfig, workers: int = 1) -> PipelineSamples:
    """Screener-then-validator pipeline over n + delta_n patches."""
    res = _map_trials(cfg, _AUGMENTED_STREAM, workers)
    return PipelineSamples(tp=res[0], time=res[1], survivors=res[2], good_survivors=res[3])


def _margin_verdict(base: PipelineSamples, aug: PipelineSamples) -> str:
    """Empirical convenience verdict with a 3-standard-error guard band.

    Margins within 3 combined SEs of zero cannot be distinguished from the
    boundary, so the verdict is inconclusive rather than a coin flip.
    """
    b_tp, a_tp = base.tp_stat(), aug.tp_stat()
    b_t, a_t = base.time_stat(), aug.time_stat()
    tp_margin = a_tp.mean - b_tp.mean
    tp_band = 3.0 * float(np.hypot(a_tp.se, b_tp.se))
    time_margin = b_t.mean - a_t.mean  # positive = time saved
    time_band = 3.0 * float(np.hypot(a_t.se, b_t.se))
    if tp_margin < -tp_band or time_margin < -time_band:
        return VERDICT_NOT_CONVENIENT
    if tp_margin > tp_band and time_margin > time_band:
        return VERDICT_CONVENIENT
    return VERDICT_INCONCLUSIVE


def compare(cfg: SimConfig, workers: int = 1) -> SimOutcome:
    """Run both pipelines on independent streams and compare them."""
    base = run_baseline(cfg, workers=workers)
    aug = run_augmented(cfg, workers=workers)
    return SimOutcome(
        baseline_tp=base.tp_stat(),
        augmented_tp=aug.tp_stat(),
        baseline_time=base.time_stat(),
        augmented_time=aug.time_stat(),
        survivors=aug.survivors_stat(),
        verdict=_margin_verdict(base, aug),
        trials=cfg.trials,
        survivor_precision=_survivor_precision(aug),
    )


def _survivor_precision(aug: PipelineSamples) -> Stat | None:
    """Mean and SE of good survivors / survivors over the trials with survivors."""
    some = aug.survivors > 0
    return _summarize(aug.good_survivors[some] / aug.survivors[some]) if some.any() else None
