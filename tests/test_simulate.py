"""Monte Carlo oracle: determinism, unbiasedness, coupling, time accounting."""

import dataclasses
import itertools
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipegate import simulate
from pipegate.bounds import expected_figures
from pipegate.cli import main
from pipegate.metrics import MetricsError, pass_rate, precision_at_prevalence
from pipegate.simulate import (
    VERDICT_INCONCLUSIVE,
    SimConfig,
    _summarize,
    compare,
    expected_outcome,
    run_augmented,
    run_baseline,
)
from reference import philox_words, sampled_trial

VDP_TPR, VDP_FPR = 0.95, 0.16


def make_config(**overrides):
    base = dict(
        pi=0.38,
        n=20_000,
        delta_n=1200,
        tpr_m=VDP_TPR,
        fpr_m=VDP_FPR,
        tau_m=156.0,
        tau_v=600.0,
        trials=50,
        seed=42,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestDeterminism:
    def test_identical_seed_identical_outcome(self):
        cfg = make_config()
        assert compare(cfg) == compare(cfg)

    def test_worker_count_does_not_change_results(self):
        cfg = make_config()
        assert compare(cfg, workers=1) == compare(cfg, workers=4)
        probe1 = compare(cfg, workers=1)["screener_precision"]
        probe8 = compare(cfg, workers=8)["screener_precision"]
        assert probe1 == probe8

    def test_different_seeds_differ(self):
        a = compare(make_config(seed=1))
        b = compare(make_config(seed=2))
        assert a["baseline_tp"]["mean"] != b["baseline_tp"]["mean"]

    def test_baseline_and_augmented_streams_independent(self):
        cfg = make_config(delta_n=0, tau_m=0.0, tpr_m=1.0, fpr_m=1.0)
        base = run_baseline(cfg)
        aug = run_augmented(cfg)
        # pass-through screener over the same n: per-trial TPs come from
        # different streams, so they should not be identical trial by trial
        assert not np.array_equal(base["tp"], aug["tp"])


def single_shot_trial(cfg, trial, augmented):
    """Reference sampler: one ``random(m)`` call per variate kind."""
    key = np.array([cfg.seed, (trial << 1) | augmented], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    m = cfg.n_total if augmented else cfg.n
    good = rng.random(m) < cfg.pi
    if not augmented:
        pass_m = np.ones(m, dtype=bool)
    else:
        u_m = rng.random(m)
        pass_m = np.where(good, u_m < cfg.tpr_m, u_m < cfg.fpr_m)
    u_v = rng.random(m)
    pass_v = u_v < cfg.r_v
    return (
        np.count_nonzero(pass_m & good & pass_v),
        np.count_nonzero(pass_m),
        np.count_nonzero(pass_m & good),
    )


CHUNK = simulate._CHUNK
INLINE = simulate._INLINE_DRAWS
WIDTH = simulate._WIDTH


@pytest.fixture
def recorded_draws(monkeypatch):
    """Per stream key, how far into the stream each worker drew, and the sizes of its draw calls.

    A draw call is a ``random_raw`` call that returns its words; the calls
    that skip into a block of four are not listed.
    """
    ends, calls = {}, {}
    init = simulate._Worker.__init__

    class Recording:
        def __init__(self, bits):
            self._bits = bits

        @property
        def state(self):
            return self._bits.state

        @state.setter
        def state(self, value):
            self._bits.state = value

        def random_raw(self, size, output=True):
            words = self._bits.random_raw(size, output=output)
            state = self._bits.state
            # Philox hands out four words per counter step
            end = 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4
            stream = int(state["state"]["key"][1])
            ends[stream] = max(ends.get(stream, 0), end)
            if output:
                calls.setdefault(stream, []).append(size)
            return words

    def recording_init(worker):
        init(worker)
        worker._bits = Recording(worker._bits)

    monkeypatch.setattr(simulate._Worker, "__init__", recording_init)
    return ends, calls


class TestChunkedKernel:
    @pytest.mark.parametrize("items", [
        1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
        # a trial draws kinds x items variates, kinds = 1 (baseline at R_V = 1)
        # to 3 (augmented at R_V < 1): the largest trial of each kinds that
        # shares a block in the calling thread, and the smallest that does not
        INLINE, INLINE + 1, INLINE // 2, INLINE // 2 + 1, INLINE // 3, INLINE // 3 + 1,
        # 17 trials are not a multiple of 13, the trials per block at 3 kinds
        600,
        # trials of 2 and 3 kinds at and just past 2,048 words (INLINE // 3
        # is the 1-kind one), twelve and eleven to a block: 17 trials end on
        # a partly filled block
        2048 // 2, 2048 // 2 + 1, 2048 // 3, 2048 // 3 + 1,
        # trials alone in one chunk whose kinds hold about a full block's
        # 3 * CHUNK words: 3 * CHUNK // kinds items at 2 kinds and at 1
        3 * CHUNK // 2 - 1, 3 * CHUNK // 2, 3 * CHUNK // 2 + 1,
        3 * CHUNK - 1, 3 * CHUNK, 3 * CHUNK + 1,
        # a trial counted a kind at a time takes chunks of WIDTH items: around
        # one and two chunks.  At 3 kinds, 2 * WIDTH + 1 ends on a 1-item
        # chunk whose screener and validator variates start 1 and 2 draws
        # into a Philox block of four, more draws than the chunk holds
        WIDTH - 1, WIDTH, WIDTH + 1, 2 * WIDTH + 1,
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_single_shot_reference(self, items, workers):
        # the reference always draws the validator pass, which the kernel
        # skips at R_V = 1
        for r_v in (0.8, 1.0):
            cfg = make_config(
                n=items, delta_n=0, trials=17, seed=2**64 - 1,
                tpr_m=0.3, fpr_m=0.6, r_v=r_v,
            )
            base = run_baseline(cfg, workers=workers)
            aug = run_augmented(cfg, workers=workers)
            for t in range(cfg.trials):
                tp, _, _ = single_shot_trial(cfg, t, False)
                assert base["tp"][t] == tp, r_v
                tp, surv, good_surv = single_shot_trial(cfg, t, True)
                got = (aug["tp"][t], aug["survivors"][t], aug["good_survivors"][t])
                assert got == (tp, surv, good_surv), r_v

    @settings(max_examples=20, derandomize=True)
    @given(
        n=st.integers(1, 3 * CHUNK),
        delta_n=st.integers(0, 64),
        trials=st.integers(2, 40),
        r_v=st.sampled_from([0.7, 1.0]),
        workers=st.sampled_from([1, 3]),
    )
    def test_any_size_any_workers_same_arrays(self, n, delta_n, trials, r_v, workers):
        cfg = make_config(n=n, delta_n=delta_n, trials=trials, r_v=r_v)
        for run, augmented in ((run_baseline, False), (run_augmented, True)):
            got, want = run(cfg, workers=workers), run(cfg, workers=1)
            assert list(got) == list(want)
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])
            last = trials - 1  # the last trial may end a partly filled block
            row = (want["tp"][last], want["survivors"][last], want["good_survivors"][last])
            assert row == single_shot_trial(cfg, last, augmented)

    def test_validator_pass_skipped_only_at_full_recall(self, recorded_draws):
        # how far into its stream each trial draws: at R_V = 1 the draws stop
        # after the screener variates (after the labels, for the baseline)
        ends, _ = recorded_draws
        # small trials share blocks, one draw each; larger ones are counted a
        # kind at a time, in one chunk or in two
        for (items, workers), (r_v, validated) in itertools.product(
                ((100, 1), (4000, 2), (WIDTH + 1, 1)), ((1.0, 0), (0.9, 1))):
            ends.clear()
            cfg = make_config(n=items, delta_n=10, trials=3, r_v=r_v)
            compare(cfg, workers=workers)
            want = {}
            for t in range(cfg.trials):
                want[t << 1 | False] = (1 + validated) * cfg.n
                want[t << 1 | True] = (2 + validated) * cfg.n_total
            assert ends == want, (items, r_v)

    @pytest.mark.parametrize("items", [
        # a trial alone in one chunk of 12,000 words at 3 kinds; trials of
        # 1 to 3 kinds around a full block's 3 * CHUNK words; three chunks
        4000, CHUNK, CHUNK + 1, 3 * CHUNK // 2, 3 * CHUNK // 2 + 1, 3 * CHUNK, 3 * CHUNK + 1,
        2 * WIDTH + 1,
    ])
    def test_draw_calls_per_trial(self, recorded_draws, items):
        # a trial that shares a block takes its words in one call; any other
        # takes each kind in ceil(m / WIDTH) calls of at most WIDTH words, a
        # chunk's kinds in order
        _, calls = recorded_draws
        for r_v in (0.9, 1.0):
            calls.clear()
            cfg = make_config(n=items, delta_n=0, trials=2, r_v=r_v)
            compare(cfg, workers=2)
            want = {}
            for t, augmented in itertools.product(range(cfg.trials), (False, True)):
                kinds = 1 + augmented + (r_v < 1.0)
                want[t << 1 | augmented] = (
                    [kinds * items] if kinds * items <= INLINE
                    else [min(WIDTH, items - lo) for lo in range(0, items, WIDTH)
                          for _ in range(kinds)])
            assert calls == want, r_v

    # trials that share blocks, a trial alone in one chunk, and a trial
    # alone in many chunks, at 3 kinds and at 2
    @pytest.mark.parametrize("n,trials,r_v", [
        (500, 200, 0.9), (2**12, 2, 0.9), (2**20, 2, 0.9), (2**20, 2, 1.0),
    ], ids=["500", "4096", "1048576", "1048576-full-recall"])
    def test_memory_does_not_grow_with_n(self, n, trials, r_v):
        # what a worker allocates is bounded by a chunk's size, never by n
        cfg = make_config(n=n, delta_n=0, trials=trials, r_v=r_v)
        run_augmented(make_config(n=10, trials=2))  # one-time module set-up, untraced
        tracemalloc.start()
        try:
            run_augmented(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_pool_capped_at_trials_and_cpus(self, monkeypatch):
        sizes, runs, started = [], [], []
        run_trials = simulate._Worker.run

        def recording_run(worker, cfg, trials, augmented, counts):
            runs.append(trials)
            run_trials(worker, cfg, trials, augmented, counts)

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def run(pipeline, cfg, workers):
            runs.clear()
            started.clear()
            pipeline(cfg, workers=workers)
            assert sorted(t for r in runs for t in r) == list(range(cfg.trials))  # each trial once
            assert len(started) == len(runs) - 1  # the calling thread takes the first run
            sizes.append(len(runs))

        monkeypatch.setattr(simulate._Worker, "run", recording_run)
        monkeypatch.setattr(threading, "Thread", RecordingThread)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        big = dict(n=CHUNK + 1, delta_n=0)  # trials too large to share a block
        run(run_augmented, make_config(trials=5, **big), workers=64)  # capped by CPUs
        run(run_augmented, make_config(trials=2, **big), workers=64)  # capped by trials
        run(run_augmented, make_config(trials=5, **big), workers=2)
        run(run_augmented, make_config(trials=5, **big), workers=1)
        assert sizes == [3, 2, 2, 1]
        # the largest baseline trial that shares blocks, and the smallest that does not
        sizes.clear()
        run(run_baseline, make_config(n=INLINE, delta_n=0, trials=5), workers=2)
        run(run_baseline, make_config(n=INLINE + 1, delta_n=0, trials=5), workers=2)
        assert sizes == [1, 2]

    def test_small_trials_start_no_pool(self, monkeypatch):
        cfg = make_config(n=500, delta_n=30, trials=20, r_v=0.9)
        want = compare(cfg, workers=1)

        def no_thread(*args, **kwargs):
            raise AssertionError("thread started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
        assert compare(cfg, workers=4) == want
        # not vacuous: trials too large to share a block do start threads
        with pytest.raises(AssertionError, match="thread started"):
            run_augmented(make_config(n=CHUNK + 1, delta_n=0, trials=4), workers=4)

    @pytest.mark.parametrize("failing,first", [
        ({1, 2}, 1),  # runs in threads of their own
        ({0}, 0),  # the calling thread's own run
        ({0, 1, 2}, 0),
    ], ids=["thread-runs", "caller-run", "every-run"])
    def test_worker_exception_reaches_caller(self, monkeypatch, failing, first):
        run = simulate._Worker.run

        def failing_run(worker, cfg, trials, augmented, counts):
            # runs of trials 0, 1 and 2-3: run i starts at trial i
            if trials.start in failing:
                raise RuntimeError(f"trials from {trials.start}")
            run(worker, cfg, trials, augmented, counts)

        monkeypatch.setattr(simulate._Worker, "run", failing_run)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        # the first failing run's exception is raised
        with pytest.raises(RuntimeError, match=f"^trials from {first}$"):
            compare(make_config(n=CHUNK + 1, delta_n=0, trials=4), workers=3)
        assert threading.active_count() == before  # every thread was joined

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # platforms without CPU affinity count every CPU, or one if that is unknown
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        assert simulate._usable_cpus() == 3
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1


def double_passes(word: int, p: float) -> bool:
    """numpy's rule: the word's double, its top 53 bits times 2**-53, is below p."""
    return (word >> 11) * 2.0**-53 < p


class TestWordLimit:
    """``_word_limit`` and ``_below`` against the double rule they replace."""

    @pytest.mark.parametrize("p,limit", [
        (0.0, 0),
        (1.0, 2**64),
        (1 - 2**-53, 2**64 - 2**11),
        (5e-324, 2**11),  # the least subnormal: only words whose top 53 bits are 0
        (2**-53, 2**11),
        (3 * 2**-53, 3 << 11),
        (12345 * 2**-53, 12345 << 11),
        (0.5, 2**63),
        (0.38, math.ceil(0.38 * 2**53) << 11),
    ])
    def test_edges(self, p, limit):
        assert simulate._word_limit(p) == limit
        words = [w for w in (limit - 1, limit) if 0 <= w < 2**64]
        passes = simulate._below(np.array(words, dtype=np.uint64), limit)
        assert passes.tolist() == [double_passes(w, p) for w in words] == [w < limit for w in words]

    @given(
        p=st.floats(0.0, 1.0),
        words=st.lists(st.integers(0, 2**64 - 1), max_size=8),
        near=st.lists(st.integers(-2**12, 2**12), max_size=8),
    )
    def test_limit_is_the_double_rule(self, p, words, near):
        limit = simulate._word_limit(p)
        words += [w for w in (limit + d for d in near) if 0 <= w < 2**64]
        passes = simulate._below(np.array(words, dtype=np.uint64), limit)
        assert passes.tolist() == [double_passes(w, p) for w in words]


class TestSamplerSpec:
    """The sampler against a pure-Python Philox4x64-10, not against numpy's own."""

    @pytest.mark.parametrize("seed,trial,stream", [(0, 0, 0), (2**64 - 1, 123456, 1)])
    @pytest.mark.parametrize("offset", [*range(8), 2**40 + 3])
    def test_draw_matches_spec(self, seed, trial, stream, offset):
        # past the end of the next block of four
        words = simulate._Worker()._draw(make_config(seed=seed), trial, stream, offset, 9)
        assert words.dtype == np.uint64
        assert words.tolist() == philox_words((seed, 2 * trial + stream), offset, 9)

    @pytest.mark.parametrize("n,delta_n,r_v,trials,layouts,blocks", [
        (200, 40, 0.9, 3, ("block", "block"), (61, 34)),
        (200, 40, 1.0, 3, ("block", "block"), (122, 51)),
        # 3,500 baseline items at 2 kinds in one chunk, and 32,769 augmented
        # items at 3 kinds, which end on a 1-item chunk
        (3500, 29269, 0.9, 2, ("chunk", "chunks"), (1, 1)),
        # 10,000 and 15,000 draws: too many to share a block, so each trial
        # is a block alone in one chunk, one call per kind
        (5000, 0, 0.9, 2, ("chunk", "chunk"), (1, 1)),
        # 1,024 and 2,048 draws fill a block at 24 and 12 trials to a
        # block, so the last block of each stream holds one trial
        (1024, 0, 1.0, 25, ("block", "block"), (24, 12)),
        # 1 and 2 kinds counted a kind at a time, in chunks of WIDTH items
        # and a last chunk of 7,232, as at the CLI-default R_V = 1
        (40_000, 0, 1.0, 2, ("chunks", "chunks"), (1, 1)),
    ], ids=["block", "block-full-recall", "chunked", "one-chunk", "last-block-one-trial",
            "chunked-full-recall"])
    def test_counts_match_spec(self, n, delta_n, r_v, trials, layouts, blocks):
        cfg = make_config(n=n, delta_n=delta_n, r_v=r_v, trials=trials, tpr_m=0.3, fpr_m=0.6)
        for run, augmented, layout, block_rows in zip(
                (run_baseline, run_augmented), (False, True), layouts, blocks):
            m, _, per_block = simulate._geometry(cfg, augmented)
            assert ("block" if per_block > 1 else "chunk" if m <= WIDTH else "chunks") == layout
            assert per_block == block_rows
            got = run(cfg)
            rows = zip(got["tp"], got["survivors"], got["good_survivors"])
            assert [tuple(map(int, row)) for row in rows] == [
                sampled_trial(cfg, t, augmented)
                for t in range(trials)]


class TestBaseline:
    def test_tp_mean_matches_binomial_expectation(self):
        cfg = make_config(n=100_000, trials=100, r_v=1.0)
        stat = _summarize(run_baseline(cfg)["tp"])
        assert abs(stat.mean - 38_000) <= 3 * stat.se

    def test_zero_recall_validator(self):
        cfg = make_config(r_v=0.0)
        base = run_baseline(cfg)
        assert np.all(base["tp"] == 0)

    def test_time_is_deterministic(self):
        cfg = make_config(n=100_000, tau_v=9.17)
        base = run_baseline(cfg)
        assert np.all(base["time"] == 100_000 * 9.17)
        assert _summarize(base["time"]).se == 0.0


class TestAugmented:
    def test_means_match_expectations(self):
        cfg = make_config(n=100_000, delta_n=0, trials=100)
        aug = run_augmented(cfg)
        tp_stat, surv_stat = _summarize(aug["tp"]), _summarize(aug["survivors"])
        assert abs(tp_stat.mean - 36_100) <= 3 * tp_stat.se
        assert abs(surv_stat.mean - 46_020) <= 3 * surv_stat.se

    def test_free_perfect_screener_beats_baseline(self):
        cfg = make_config(delta_n=0, tau_m=0.0, tpr_m=1.0, fpr_m=0.0)
        base = run_baseline(cfg)
        aug = run_augmented(cfg)
        base_tp, aug_tp = _summarize(base["tp"]), _summarize(aug["tp"])
        assert abs(aug_tp.mean - base_tp.mean) <= 3 * np.hypot(aug_tp.se, base_tp.se)
        assert np.all(aug["time"] <= base["time"])

    def test_pass_through_screener(self):
        cfg = make_config(tpr_m=1.0, fpr_m=1.0)
        aug = run_augmented(cfg)
        m = cfg.n_total
        assert np.all(aug["survivors"] == m)
        assert np.all(aug["time"] == (cfg.tau_m + cfg.tau_v) * m)

    def test_time_accounting_identity(self):
        cfg = make_config()
        aug = run_augmented(cfg)
        expected = cfg.tau_m * cfg.n_total + cfg.tau_v * aug["survivors"]
        np.testing.assert_array_equal(aug["time"], expected)

    def test_monotone_coupling_in_screener_tpr(self):
        # common random numbers: a better screener never loses a TP
        lo = run_augmented(make_config(tpr_m=0.6, fpr_m=0.16))
        hi = run_augmented(make_config(tpr_m=0.9, fpr_m=0.16))
        assert np.all(hi["tp"] >= lo["tp"])
        assert np.all(hi["good_survivors"] >= lo["good_survivors"])


class TestModel:
    def test_standard_errors(self):
        cfg = make_config(trials=40)
        model = expected_outcome(cfg)
        assert model["baseline_time"].se == 0.0
        m, q = cfg.n_total, pass_rate(cfg.tpr_m, cfg.fpr_m, cfg.pi)
        assert model["survivors"].se == math.sqrt(m * q * (1 - q)) / math.sqrt(cfg.trials)
        assert model["augmented_time"].se == pytest.approx(cfg.tau_v * model["survivors"].se)

    def test_augmented_tp_standard_error(self):
        # p = pi * R_M * R_V = 1/8 over m = 448 items: one trial's SD is
        # sqrt(448 * 1/8 * 7/8) = 7, over sqrt(4) trials; every step is exact
        cfg = make_config(pi=0.5, tpr_m=0.5, r_v=0.5, n=400, delta_n=48, trials=4)
        assert expected_outcome(cfg)["augmented_tp"].se == 3.5

    def test_baseline_tp_standard_error(self):
        # p = pi * R_V = 1/4 over n = 48 items: one trial's SD is
        # sqrt(48 * 1/4 * 3/4) = 3, over sqrt(4) trials; every step is exact
        cfg = make_config(pi=0.5, r_v=0.5, n=48, delta_n=0, trials=4)
        assert expected_outcome(cfg)["baseline_tp"].se == 1.5

    @pytest.mark.parametrize("overrides", [
        {},
        {"n": 333, "delta_n": 17, "tau_v": 237.97, "r_v": 0.8},
        {"n": 100_000, "delta_n": 6000, "tpr_m": 0.5, "fpr_m": 0.01, "tau_m": 0.0},
        {"pi": 0.05, "n": 7, "delta_n": 0, "tpr_m": 1.0, "fpr_m": 1.0, "tau_v": 1e-3},
    ])
    def test_means_are_the_bounds_figures(self, overrides):
        # one home for the model: the simulated expectations are the closed
        # forms at the sampled screener's pass rate, bit for bit
        cfg = make_config(**overrides)
        q = pass_rate(cfg.tpr_m, cfg.fpr_m, cfg.pi)
        want = expected_figures(cfg.pi, cfg.n, cfg.n_total, cfg.r_v, cfg.tpr_m, q,
                                cfg.tau_m, cfg.tau_v)
        assert {key: stat.mean for key, stat in expected_outcome(cfg).items()} == want
        assert list(expected_outcome(cfg)) == list(want)


class TestCompare:
    def test_convenient_scenario(self):
        # analytic margins are wide: tau_v=600 far above the 4.6 min floor
        cfg = make_config(n=100_000, delta_n=6000, trials=100, tau_v=600.0)
        verdict = compare(cfg)["empirical_verdict"]
        assert verdict == "convenient"

    def test_fast_validator_not_convenient(self):
        cfg = make_config(tau_v=27.04)
        verdict = compare(cfg)["empirical_verdict"]
        assert verdict == "not-convenient"

    def test_boundary_config_inconclusive(self):
        # dn at the exact throughput boundary and tau_m at the tight time
        # budget: both margins are zero by construction
        r_m = VDP_TPR
        dn_ratio = 1 / r_m - 1
        n = 50_000
        p_cons = precision_at_prevalence(VDP_TPR, VDP_FPR, 0.38)
        tau_v = 600.0
        tau_m = tau_v * (1 / (1 + dn_ratio) - (r_m / p_cons) * 0.38)
        cfg = make_config(n=n, delta_n=int(round(n * dn_ratio)), tau_m=tau_m, tau_v=tau_v)
        verdict = compare(cfg)["empirical_verdict"]
        assert verdict == VERDICT_INCONCLUSIVE

    def test_trials_recorded(self, capsys):
        cfg = make_config(n=1000, delta_n=60, trials=13)
        for run in (run_baseline, run_augmented):
            assert all(row.shape == (cfg.trials,) for row in run(cfg).values())
        code = main(["simulate", "--tpr-m", str(cfg.tpr_m), "--fpr-m", str(cfg.fpr_m),
                     "--pi", str(cfg.pi), "--n", str(cfg.n), "--delta-ratio", "0.06",
                     "--tau-m", str(cfg.tau_m), "--tau-v", str(cfg.tau_v),
                     "--trials", str(cfg.trials), "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]["trials"] == cfg.trials


    # three of the golden argvs in test_cli.py: shared blocks, and trials alone at 2 and 1 kinds
    GOLDEN = [
        "--model VulDeePecker --pi 0.38 --n 1000 --delta-ratio 0.1 --tau-v 600 --trials 7"
        " --seed 3",
        "--tpr-m 0.8 --fpr-m 0.3 --pi 0.2 --n 16000 --delta-ratio 0.024 --tau-v 5 --tau-m 1"
        " --validator-tpr 0.9 --trials 5 --seed 11",
        "--model LineVul --tau-m 2 --pi 0.5 --n 16385 --tau-v 30 --trials 5 --seed 7"
        " --precision-mode prevalence-consistent",
    ]

    @pytest.mark.parametrize("argv", GOLDEN)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_returns_the_runs_results(self, capsys, monkeypatch, argv, workers):
        # the CLI adds only the analytic side to what compare returns
        configs = []
        real = simulate.compare

        def recording(cfg, workers=1):
            configs.append(cfg)
            return real(cfg, workers=workers)

        monkeypatch.setattr(simulate, "compare", recording)
        assert main(["simulate", *argv.split(), "--format", "json"]) == 0
        want = json.loads(capsys.readouterr().out)["results"]
        del want["analytic_verdict"]
        del want["screener_precision"]["as_published"]
        del want["screener_precision"]["prevalence_consistent"]
        got = real(configs[0], workers)
        assert got == want
        assert list(got) == ["trials", "empirical_verdict", *expected_outcome(configs[0]),
                             "analytic_agreement", "screener_precision"]
        assert list(got["baseline_tp"]) == ["mean", "se", "analytic", "within_3se"]

    def test_agreement_at_exact_ties(self, monkeypatch):
        # a pass-through screener at tau_M = 0 makes the survivors (1024) and
        # both times (n * tau_V = a) the same in every trial, with an SE of 0.
        # Every model figure below is dyadic, so each tie is exact: survivors
        # 1.5 off at an SE of 0.5, and b = 1e9 / 4096 with 1e-9 * b == 2**-12
        b = 1e9 / 4096
        a = b + 2**-12
        cfg = make_config(n=1024, delta_n=0, tpr_m=1.0, fpr_m=1.0, tau_m=0.0, tau_v=a / 1024,
                          trials=4)
        model = expected_outcome(cfg)
        model["survivors"] = simulate.Stat(1024 + 1.5, 0.5)
        model["baseline_time"] = simulate.Stat(b, 0.0)
        model["augmented_time"] = simulate.Stat(a + 2.0, 0.5)  # 4 SEs off
        monkeypatch.setattr(simulate, "expected_outcome", lambda cfg: model)
        results = compare(cfg)
        assert [results[key]["mean"] for key in ("survivors", "baseline_time", "augmented_time")] \
            == [1024, a, a]
        assert results["survivors"]["within_3se"] is True
        assert results["baseline_time"]["within_3se"] is True
        assert results["augmented_time"]["within_3se"] is False
        assert results["analytic_agreement"] is False


class TestSurvivorPrecisionProbe:
    def test_matches_prevalence_consistent_precision(self):
        cfg = make_config(n=100_000, trials=100)
        stat = compare(cfg)["screener_precision"]
        expected = precision_at_prevalence(0.95, 0.16, 0.38)
        assert expected == pytest.approx(0.784, abs=5e-4)
        assert abs(stat["empirical_mean"] - expected) <= 3 * stat["empirical_se"]

    def test_zero_fpr_gives_perfect_precision(self):
        cfg = make_config(tpr_m=0.9, fpr_m=0.0)
        stat = compare(cfg)["screener_precision"]
        assert stat["empirical_mean"] == 1.0
        assert stat["empirical_se"] == 0.0

    def test_screener_passing_nothing_rejected(self):
        # decided by the rates alone, before anything samples
        with pytest.raises(MetricsError, match=simulate.NOTHING_SURVIVES):
            make_config(tpr_m=0.0, fpr_m=0.0, trials=3)

    def test_nothing_survives(self):
        # the screener can pass items, but at q = 3.8e-13 over 3 trials of 100 no trial's did
        cfg = make_config(tpr_m=1e-12, fpr_m=0.0, n=100, delta_n=0, trials=3)
        with pytest.raises(MetricsError, match=simulate.NOTHING_SURVIVES):
            compare(cfg)

    def test_uninformative_screener_precision_equals_prevalence(self):
        cfg = make_config(n=100_000, tpr_m=0.5, fpr_m=0.5, trials=100)
        stat = compare(cfg)["screener_precision"]
        assert abs(stat["empirical_mean"] - 0.38) <= 3 * stat["empirical_se"]


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(MetricsError):
            make_config(pi=0.0)
        with pytest.raises(MetricsError):
            make_config(n=0)
        with pytest.raises(MetricsError):
            make_config(delta_n=-1)
        with pytest.raises(MetricsError):
            make_config(trials=0)
        with pytest.raises(MetricsError):
            make_config(seed=-1)
        for field, value, message in [
            ("tpr_m", 1.5, r"tpr must be in \[0, 1\], got 1.5"),
            ("tpr_m", -0.1, r"tpr must be in \[0, 1\], got -0.1"),
            ("fpr_m", 1.5, r"fpr must be in \[0, 1\], got 1.5"),
            ("fpr_m", -0.1, r"fpr must be in \[0, 1\], got -0.1"),
            ("r_v", 1.5, r"r_v must be in \[0, 1\], got 1.5"),
            ("r_v", -0.1, r"r_v must be in \[0, 1\], got -0.1"),
            ("trials", 1, r"trials must be >= 2, got 1"),
            ("seed", 2**64, "seed must fit in 64 bits"),
        ]:
            with pytest.raises(MetricsError, match=message):
                make_config(**{field: value})

    def test_config_is_frozen(self):
        cfg = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pi = 0.5
