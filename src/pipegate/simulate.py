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

No variate is ever a double.  numpy's double of a 64-bit Philox word w is
(w >> 11) * 2**-53, and a Bernoulli(p) draw passes when that double is below
p, which holds exactly when w < ceil(p * 2**53) << 11: one integer limit per
probability, computed once per run (``_word_limit``), so every comparison is
made on the raw words and the seeded counts are those of the doubles.

A worker holds only its Philox, and what numpy allocates for it does not
grow with n.  Trials of at most 6144 words share blocks of at most
3 x 8192 words (192 KiB): each takes its words in one call from the start
of its stream, the block is concatenated from their draws, and it runs in
the calling thread.  A larger trial is a block alone, and only such trials
are split into contiguous runs of trials: the calling thread takes the
first run, and one worker thread each of the others.  A trial alone in its
block is counted in chunks of 32768 items, one kind of variate at a time,
with one Philox re-pointed at the offset where each kind starts
(labels at 0, screener at m, validator after both).  A chunk's label words
become its mask of good items before its screener words are drawn, and
those are counted before its validator words are drawn, so one kind's
32768 words (256 KiB) exist at a time, plus the chunk's masks.  Philox is
counter-based, so any offset is reached directly, and each kind's chunks
hold exactly the words that one ``random_raw(m)`` call from that offset
would return: the draw layout above is unchanged.

Within a trial the two filters share nothing, but a single item's screener
draw is a common random number across configs: raising the screener TPR can
only turn rejections into passes, never the reverse (monotone coupling).
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

# pipegate makes no BLAS call, yet the thread pool OpenBLAS starts as numpy
# loads spins through start-up on a CPU the interpreter needs.  OpenBLAS reads
# the variable once, as numpy loads it, so it is set for that import alone; a
# value the user set, or a numpy already loaded, is left as it is.
_one_blas_thread = "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules
if _one_blas_thread:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _one_blas_thread:
        del os.environ["OPENBLAS_NUM_THREADS"]

from pipegate.bounds import VERDICT_CONVENIENT, VERDICT_NOT_CONVENIENT, expected_figures
from pipegate.metrics import MetricsError, _check_unit, pass_rate

__all__ = [
    "SimConfig",
    "Stat",
    "run_baseline",
    "run_augmented",
    "compare",
    "expected_outcome",
    "VERDICT_INCONCLUSIVE",
    "NOTHING_SURVIVES",
]

VERDICT_INCONCLUSIVE = "inconclusive"
NOTHING_SURVIVES = "screener passed nothing in every trial; precision undefined"

# The trials that share a block hold at most 3 * _CHUNK words (192 KiB)
# between them, so a block's row counts fit 16 bits.
_CHUNK = 1 << 13

# Items per chunk of a trial alone in its block, whatever its kinds of
# variate: each kind's words are drawn and counted before the next kind's,
# so a chunk holds one kind's 1 << 15 words (256 KiB) at a time, and a
# trial at the CLI-default n = 1e5 takes 4 chunks, one call per kind each.
_WIDTH = 1 << 15

# Trials of at most this many words share blocks, four or more to a block's
# 3 * _CHUNK words, and run in the calling thread: their re-keys and short
# numpy calls hold the GIL.  On a 2-vCPU VM a second thread took 1.1-1.9x
# the time of one for trials of 3,000 to 6,000 words alone in their blocks.
# For lone trials of 8,000 to 9,000 words, counted a kind at a time, it took
# 1.01-1.03x (medians of 21 runs of 200 trials), but on that VM two busy
# processes each ran at half speed: there was no second CPU to use.
_INLINE_DRAWS = 3 * _CHUNK // 4


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


def expected_outcome(cfg: SimConfig) -> dict[str, Stat]:
    """The model's mean and standard error of each statistic that :func:`compare` samples.

    The means are :func:`pipegate.bounds.expected_figures` at the sampled
    screener's pass rate.  Every count is binomial, and its SE is one trial's
    binomial SD over sqrt(trials).  The augmented time moves only with its
    survivors, tau_V per survivor; the baseline time does not move at all.
    """
    m = cfg.n_total
    q = pass_rate(cfg.tpr_m, cfg.fpr_m, cfg.pi)
    means = expected_figures(cfg.pi, cfg.n, m, cfg.r_v, cfg.tpr_m, q, cfg.tau_m, cfg.tau_v)
    root = math.sqrt(cfg.trials)
    survivors_sd = _binomial_sd(m, q)
    ses = {
        "baseline_tp": _binomial_sd(cfg.n, cfg.pi * cfg.r_v) / root,
        "augmented_tp": _binomial_sd(m, cfg.pi * cfg.tpr_m * cfg.r_v) / root,
        "baseline_time": 0.0,
        "augmented_time": cfg.tau_v * survivors_sd / root,
        "survivors": survivors_sd / root,
    }
    return {key: Stat(mean, ses[key]) for key, mean in means.items()}


def _binomial_sd(items: int, p: float) -> float:
    return math.sqrt(items * p * (1 - p))


def _summarize(samples: np.ndarray) -> Stat:
    # np.mean/np.std use pairwise summation: order-insensitive aggregation.
    n = samples.size
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Stat(mean=mean, se=se)


def _word_limit(p: float) -> int:
    """The words of a Bernoulli(p) draw that pass: those below this limit.

    numpy's double of a word w is (w >> 11) * 2**-53, and w >> 11 < 2**53, so
    the double is exact.  It is below p exactly when the integer w >> 11 is
    below p * 2**53, so below ceil(p * 2**53), so exactly when w is below
    ceil(p * 2**53) << 11.  p * 2**53 is a power-of-two scaling of a double in
    [0, 1], exact too.  At p = 1 the limit is 2**64 and every word passes.
    """
    return math.ceil(p * 2**53) << 11


def _below(words: np.ndarray, limit: int) -> np.ndarray:
    """The mask ``words < limit``, in uint64: no word is ever widened to a double."""
    if limit == 1 << 64:  # past uint64; every word is below it
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(limit)


def _count(cfg: SimConfig, limits: tuple, words, augmented: bool, total) -> tuple:
    """(true positives, survivors, good survivors) of one chunk, each summed by ``total``.

    ``words(k)`` returns the chunk's words of kind k: labels, then the
    screener's if ``augmented``, then the validator's if R_V < 1.  Each kind
    is asked for once, in that order, and dropped once its masks are made,
    so a caller that draws a kind when asked holds one kind's words at a
    time.  ``limits`` are the word limits of (pi, F_M, R_M, R_V).  ``total``
    counts a mask's items over its last axis.  Without a screener all items
    reach the validator.
    """
    pi, fpr_m, tpr_m, r_v = limits
    good = _below(words(0), pi)
    if augmented:
        screener = words(1)
        passed = _below(screener, fpr_m) > good  # bad items passed
        good &= _below(screener, tpr_m)
        del screener
    tp = good_survivors = total(good)
    if cfg.r_v < 1.0:
        tp = total(_below(words(1 + augmented), r_v) & good)
    survivors = total(passed) + good_survivors if augmented else good.shape[-1]
    return tp, survivors, good_survivors


def _row_sums(mask: np.ndarray) -> np.ndarray:
    """Items per row of a block's mask; a block holds at most ``3 * _CHUNK`` words, so they fit 16 bits."""
    return mask.sum(axis=1, dtype=np.uint16)


class _Worker:
    """One run's Philox, re-keyed for each of its trials; it holds no array.

    Re-keying the Philox through its state gives the stream a fresh
    ``Philox(key=...)`` would, without constructing a generator per trial.
    Every draw is a raw 64-bit word, compared with a :func:`_word_limit`.
    """

    def __init__(self) -> None:
        self._bits = np.random.Philox(key=0)
        self._key = [0, 0]
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _draw(self, cfg: SimConfig, trial: int, augmented: bool, offset: int, count: int) -> np.ndarray:
        """``count`` words from word ``offset`` of one trial's stream.

        Philox yields words in blocks of four, one counter step each: the
        counter skips the whole blocks, and the rest are drawn and dropped.
        """
        self._key[0] = cfg.seed
        self._key[1] = (trial << 1) | augmented
        self._counter[0] = offset >> 2
        self._bits.state = self._state
        if offset & 3:
            self._bits.random_raw(offset & 3, output=False)
        return self._bits.random_raw(count)

    def run(self, cfg: SimConfig, trials: range, augmented: bool, counts: np.ndarray) -> None:
        """Write each trial's (true positives, survivors, good survivors) into ``counts[:, t]``.

        Trials that share a block each take one draw call from the start of
        their streams, joined by one ``np.concatenate``, and one
        :func:`_count` takes a block's row sums.  A trial alone in its block
        is counted ``_WIDTH`` items at a time, one kind of word at a time,
        each chunk's masks counted into plain ints: each kind is drawn from
        where that kind starts, every kind m words after the one before, so
        the chunk reads what one ``random_raw(m)`` call from there would
        return.
        """
        m, kinds, rows = _geometry(cfg, augmented)
        limits = tuple(_word_limit(p) for p in (cfg.pi, cfg.fpr_m, cfg.tpr_m, cfg.r_v))
        if rows == 1:
            counts[:, trials.start:trials.stop] = 0
            for t in trials:
                for lo in range(0, m, _WIDTH):
                    size = min(_WIDTH, m - lo)
                    counts[:, t] += _count(
                        cfg, limits, lambda kind: self._draw(cfg, t, augmented, kind * m + lo, size),
                        augmented, np.count_nonzero)
            return
        for first in range(trials.start, trials.stop, rows):
            block = range(first, min(first + rows, trials.stop))
            words = np.concatenate([self._draw(cfg, t, augmented, 0, kinds * m) for t in block])
            words = words.reshape(len(block), kinds, m).swapaxes(0, 1)
            for row, chunk in zip(counts[:, first:block.stop],
                                  _count(cfg, limits, words.__getitem__, augmented, _row_sums)):
                row[:] = chunk
            del words  # before the next block's draws: one block's words at a time


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _geometry(cfg: SimConfig, augmented: bool) -> tuple[int, int, int]:
    """A trial's (items, kinds of variate, trials per block).

    The kinds are labels, the screener's if augmented and the validator's if
    R_V < 1.  Trials of at most ``_INLINE_DRAWS`` draws share a block, as
    many as ``3 * _CHUNK`` words hold, four or more.  A larger trial is a
    block alone, counted in chunks of ``_WIDTH`` items.
    """
    m = cfg.n_total if augmented else cfg.n
    kinds = 1 + augmented + (cfg.r_v < 1.0)
    if kinds * m <= _INLINE_DRAWS:
        return m, kinds, 3 * _CHUNK // (kinds * m)
    return m, kinds, 1


def _map_trials(cfg: SimConfig, augmented: bool, workers: int) -> dict[str, np.ndarray]:
    """Run every trial of one pipeline's stream; one row per statistic.

    Trials that share blocks make one run.  Larger trials are split into at
    most ``workers`` contiguous runs, capped at the trial count and at the
    CPUs this process may use; the calling thread takes the first run and
    one thread each of the others.  Results land at their trial index, so the
    output is identical for any worker count or completion order.  Time is
    charged afterwards, tau_M per item screened and tau_V per item reaching
    the validator.
    """
    trials = cfg.trials
    try:
        counts = np.empty((3, trials), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: more bytes than numpy can address
        raise MetricsError(f"trials={trials}: per-trial results do not fit in memory") from None
    m, _, rows = _geometry(cfg, augmented)
    split = 1 if rows > 1 else max(1, min(workers, trials, _usable_cpus()))
    runs = [range(trials * i // split, trials * (i + 1) // split) for i in range(split)]
    _run_threads(cfg, augmented, runs, counts)
    tp, survivors, good_survivors = counts
    time = (cfg.tau_m if augmented else 0.0) * m + cfg.tau_v * survivors
    return {"tp": tp, "time": time, "survivors": survivors, "good_survivors": good_survivors}


def _run_threads(cfg: SimConfig, augmented: bool, runs: list[range], counts: np.ndarray) -> None:
    """The first run in the calling thread and each other run in a thread of its own.

    Every started thread is joined before this returns or raises, and the
    first failing run's exception, if any, is raised here.
    """
    failures: list[Exception | None] = [None] * len(runs)

    def work(i: int) -> None:
        try:
            _Worker().run(cfg, runs[i], augmented, counts)
        except Exception as exc:  # re-raised in the calling thread below
            failures[i] = exc

    started = []
    try:
        for i in range(1, len(runs)):
            thread = threading.Thread(target=work, args=(i,))
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    for exc in failures:
        if exc is not None:
            raise exc


def run_baseline(cfg: SimConfig, workers: int = 1) -> dict[str, np.ndarray]:
    """Validator-only pipeline over n patches, one row per trial."""
    return _map_trials(cfg, False, workers)


def run_augmented(cfg: SimConfig, workers: int = 1) -> dict[str, np.ndarray]:
    """Screener-then-validator pipeline over n + delta_n patches."""
    return _map_trials(cfg, True, workers)


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


def compare(cfg: SimConfig, workers: int = 1) -> tuple[dict[str, Stat], str, Stat | None]:
    """Run both pipelines on independent streams: ``(stats, verdict, survivor precision)``.

    ``stats`` is keyed like :func:`expected_outcome`, and the verdict is the
    empirical one.  The survivor precision is the screener's precision over
    the same augmented trials; None when it passed nothing in every trial.
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
    return stats, _margin_verdict(stats), precision
