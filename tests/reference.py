"""Brute-force oracles for ``metrics`` and for the ``simulate`` sampler.

The package computes screener metrics straight from rates; these helpers
build the expected TP/FP/FN/TN counts and swap the labels instead, so tests
can check ``invert_detector``'s P_M against a direct re-reading of the
swapped counts.  Counts are real-valued: they represent expected counts, not
integer tallies.

The sampler's reference is a pure-Python Philox4x64-10 written from its
specification, not from numpy, and a per-item count of one trial from the
draw layout that the ``simulate`` module docstring states.
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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
_MASK = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _philox_block(key: tuple[int, int], counter: int) -> tuple[int, int, int, int]:
    """The four 64-bit words of one block: 10 rounds, the key bumped between rounds."""
    k0, k1 = key
    c0, c1, c2, c3 = ((counter >> shift) & _MASK for shift in (0, 64, 128, 192))
    for round_ in range(10):
        if round_:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK, (k1 + _PHILOX_W[1]) & _MASK
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
    return c0, c1, c2, c3


def philox_words(key: tuple[int, int], offset: int, count: int) -> list[int]:
    """``count`` 64-bit words from word ``offset`` of the Philox stream under ``key``.

    numpy's conventions: the counter is incremented before each block, so
    word ``offset`` lies in the block at counter offset // 4 + 1, and a
    block's words are drawn in order.
    """
    out: list[int] = []
    counter = offset // 4 + 1
    skip = offset % 4
    while len(out) < skip + count:
        out.extend(_philox_block(key, counter))
        counter += 1
    return out[skip: skip + count]


def philox_doubles(key: tuple[int, int], offset: int, count: int) -> list[float]:
    """The same draws as numpy's doubles: a word's top 53 bits times 2**-53."""
    return [(word >> 11) * 2.0**-53 for word in philox_words(key, offset, count)]


def sampled_trial(cfg, trial: int, augmented: bool) -> tuple[int, int, int]:
    """One ``simulate`` trial's (true positives, survivors, good survivors), item by item.

    The trial's stream is keyed (seed, 2*trial + 1 if augmented else 2*trial).
    It draws the m labels, then the m screener variates if augmented, then the
    m validator variates; an item is good when its label variate is below pi.
    """
    m = cfg.n_total if augmented else cfg.n
    kinds = 3 if augmented else 2
    u = philox_doubles((cfg.seed, 2 * trial + augmented), 0, kinds * m)
    tp = survivors = good_survivors = 0
    for i in range(m):
        good = u[i] < cfg.pi
        passed = not augmented or u[m + i] < (cfg.tpr_m if good else cfg.fpr_m)
        survivors += passed
        good_survivors += passed and good
        tp += passed and good and u[(kinds - 1) * m + i] < cfg.r_v
    return tp, survivors, good_survivors
