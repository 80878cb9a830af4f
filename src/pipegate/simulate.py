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
validator variates.  At validator recall 1 no validator variates are drawn:
``u < 1.0`` holds for every u in [0, 1), and they are the last draws of their
stream, so every good item that reaches the validator counts without them
and no other draw moves.

Memory per worker thread is fixed, whatever n is: one 64 KiB chunk of 8192
doubles and three 8 KiB chunk masks.  A trial makes one pass over its items,
a chunk at a time, with up to three generators on its stream, each pointed
at the offset where its kind of variate starts (labels at 0, screener at m,
validator after both).  Philox is counter-based, so any offset is reached
directly, and each generator's chunks hold exactly the variates that one
``random(m)`` call from that offset would return: the draw layout above is
unchanged.  Trials are dispatched as contiguous blocks, one per worker
thread.

Within a trial the two filters share nothing, but a single item's screener
draw is a common random number across configs: raising the screener TPR can
only turn rejections into passes, never the reverse (monotone coupling).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from pipegate.bounds import VERDICT_CONVENIENT, VERDICT_NOT_CONVENIENT
from pipegate.metrics import MetricsError, _check_unit, pass_rate

__all__ = [
    "SimConfig",
    "Stat",
    "SimOutcome",
    "run_baseline",
    "run_augmented",
    "compare",
    "expected_outcome",
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

    ``tpr_m`` and ``fpr_m`` are the screener's rates (R_M and Far_M) and
    ``r_v`` is the validator's recall.  The validator has no FPR here: both
    pipelines count only good items, and charge time per item regardless.
    At least two trials, so that every statistic has a standard error.
    """

    pi: float
    n: int
    delta_n: int
    tpr_m: float
    fpr_m: float
    tau_m: float
    tau_v: float
    r_v: float = 1.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_unit("tpr", self.tpr_m)
        _check_unit("fpr", self.fpr_m)
        _check_unit("r_v", self.r_v)
        _check_unit("pi", self.pi, lo_open=True, hi_open=True)
        if self.n <= 0:
            raise MetricsError(f"n must be > 0, got {self.n}")
        if self.delta_n < 0:
            raise MetricsError(f"delta_n must be >= 0, got {self.delta_n}")
        if self.tau_m < 0 or self.tau_v < 0:
            raise MetricsError("latencies must be >= 0")
        if self.trials < 2:
            raise MetricsError(f"trials must be >= 2, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise MetricsError("seed must fit in 64 bits")

    @property
    def n_total(self) -> int:
        return self.n + self.delta_n


@dataclass(frozen=True)
class Stat:
    """A sample's or the model's mean and standard error over trials."""

    mean: float
    se: float


@dataclass(frozen=True)
class SimOutcome:
    """Summary of both pipelines' trials.

    ``stats`` is keyed like :func:`expected_outcome`.  ``survivor_precision``
    is the screener's precision from the same augmented trials; None when
    the screener passed nothing in every trial.
    """

    stats: dict[str, Stat]
    verdict: str
    survivor_precision: Stat | None


def expected_outcome(cfg: SimConfig) -> dict[str, Stat]:
    """The model's mean and standard error of each statistic in ``SimOutcome.stats``.

    Every count is binomial, and its SE is one trial's binomial SD over
    sqrt(trials).  The augmented time moves only with its survivors, tau_V
    per survivor; the baseline time does not move at all.
    """
    m = cfg.n_total
    q = pass_rate(cfg.tpr_m, cfg.fpr_m, cfg.pi)
    root = math.sqrt(cfg.trials)
    survivors_sd = _binomial_sd(m, q)
    return {
        "baseline_tp": Stat(cfg.r_v * cfg.pi * cfg.n,
                            _binomial_sd(cfg.n, cfg.pi * cfg.r_v) / root),
        "augmented_tp": Stat(cfg.r_v * cfg.tpr_m * cfg.pi * m,
                             _binomial_sd(m, cfg.pi * cfg.tpr_m * cfg.r_v) / root),
        "baseline_time": Stat(cfg.n * cfg.tau_v, 0.0),
        "augmented_time": Stat(cfg.tau_m * m + cfg.tau_v * q * m,
                               cfg.tau_v * survivors_sd / root),
        "survivors": Stat(q * m, survivors_sd / root),
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
    """One worker thread's generators and buffers, reused by each of its trials.

    Re-keying a Philox through its state gives the stream a fresh
    ``Philox(key=...)`` would, without constructing a generator per trial.
    """

    def __init__(self) -> None:
        self._key = np.zeros(2, dtype=np.uint64)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._labels, self._screener, self._validator = (
            np.random.Generator(np.random.Philox(key=0)) for _ in range(3)
        )
        self._u = np.empty(_CHUNK, dtype=np.float64)
        self._good = np.empty(_CHUNK, dtype=bool)
        self._passed = np.empty(_CHUNK, dtype=bool)
        self._hit = np.empty(_CHUNK, dtype=bool)

    def _point(self, rng: np.random.Generator, offset: int) -> np.random.Generator:
        """Point ``rng`` at draw ``offset`` of the stream keyed in ``_key``.

        Philox yields doubles in blocks of four, one counter step each: skip
        the whole blocks, then draw and drop the rest.
        """
        self._counter[0] = offset >> 2
        rng.bit_generator.state = self._state
        if offset & 3:
            rng.random(out=self._u[: offset & 3])
        return rng

    def trial(self, cfg: SimConfig, trial: int, stream: int) -> tuple[int, int, int]:
        """One trial's (true positives, survivors, good survivors).

        The baseline stream has no screener: all n items reach the
        validator, whose variates then start right after the labels.
        """
        self._key[0] = cfg.seed
        self._key[1] = (trial << 1) | stream
        augmented = stream == _AUGMENTED_STREAM
        m = cfg.n_total if augmented else cfg.n
        labels = self._point(self._labels, 0)
        screener = self._point(self._screener, m) if augmented else None
        # at R_V = 1 the validator passes every good item: its variates, the
        # stream's last, could change no count, so they are not drawn
        validator = None
        if cfg.r_v < 1.0:
            validator = self._point(self._validator, 2 * m if augmented else m)
        bad_passed = good_survivors = tp = 0
        for lo in range(0, m, _CHUNK):
            size = min(_CHUNK, m - lo)
            u, good = self._u[:size], self._good[:size]
            passed, hit = self._passed[:size], self._hit[:size]
            labels.random(out=u)
            np.less(u, cfg.pi, out=good)
            if screener is not None:
                screener.random(out=u)
                np.less(u, cfg.fpr_m, out=passed)
                np.greater(passed, good, out=passed)  # bad items passed
                bad_passed += int(np.count_nonzero(passed))
                np.less(u, cfg.tpr_m, out=hit)
                good &= hit
            good_survivors += int(np.count_nonzero(good))
            if validator is not None:
                validator.random(out=u)
                np.less(u, cfg.r_v, out=hit)
                hit &= good
                tp += int(np.count_nonzero(hit))
        if validator is None:
            tp = good_survivors
        return tp, (bad_passed + good_survivors if augmented else m), good_survivors


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_trials(cfg: SimConfig, stream: int, workers: int) -> dict[str, np.ndarray]:
    """Run every trial of one pipeline's stream; one row per statistic.

    Trials are split into at most ``workers`` contiguous blocks, one thread
    each, capped at the trial count and at the CPUs this process may use.
    Results land at their trial index, so the output is identical for any
    worker count or completion order.  Time is charged afterwards, tau_M
    per item screened and tau_V per item reaching the validator.
    """
    trials = cfg.trials
    try:
        counts = np.empty((3, trials), dtype=np.float64)
    except MemoryError:
        raise MetricsError(f"trials={trials}: per-trial results do not fit in memory") from None
    threads = max(1, min(workers, trials, _usable_cpus()))
    blocks = [range(trials * i // threads, trials * (i + 1) // threads) for i in range(threads)]

    def work(block: range) -> None:
        worker = _Worker()
        for t in block:
            counts[:, t] = worker.trial(cfg, t, stream)

    if threads == 1:
        work(blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    augmented = stream == _AUGMENTED_STREAM
    m = cfg.n_total if augmented else cfg.n
    tp, survivors, good_survivors = counts
    time = (cfg.tau_m if augmented else 0.0) * m + cfg.tau_v * survivors
    return {"tp": tp, "time": time, "survivors": survivors, "good_survivors": good_survivors}


def run_baseline(cfg: SimConfig, workers: int = 1) -> dict[str, np.ndarray]:
    """Validator-only pipeline over n patches, one row per trial."""
    return _map_trials(cfg, _BASELINE_STREAM, workers)


def run_augmented(cfg: SimConfig, workers: int = 1) -> dict[str, np.ndarray]:
    """Screener-then-validator pipeline over n + delta_n patches."""
    return _map_trials(cfg, _AUGMENTED_STREAM, workers)


def _margin_verdict(stats: dict[str, Stat]) -> str:
    """Empirical convenience verdict with a 3-standard-error guard band.

    Margins within 3 combined SEs of zero cannot be distinguished from the
    boundary, so the verdict is inconclusive rather than a coin flip.
    """
    b_tp, a_tp = stats["baseline_tp"], stats["augmented_tp"]
    b_t, a_t = stats["baseline_time"], stats["augmented_time"]
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
    """Run both pipelines on independent streams and compare them.

    numpy stays quiet by policy: a statistic that overflows comes back as
    inf (or nan), and the caller decides what a non-finite result means.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        base = run_baseline(cfg, workers=workers)
        aug = run_augmented(cfg, workers=workers)
        stats = {
            "baseline_tp": _summarize(base["tp"]),
            "augmented_tp": _summarize(aug["tp"]),
            "baseline_time": _summarize(base["time"]),
            "augmented_time": _summarize(aug["time"]),
            "survivors": _summarize(aug["survivors"]),
        }
        # good survivors / survivors, over the trials whose screener passed any
        some = aug["survivors"] > 0
        precision = (_summarize(aug["good_survivors"][some] / aug["survivors"][some])
                     if some.any() else None)
    return SimOutcome(stats=stats, verdict=_margin_verdict(stats), survivor_precision=precision)
