"""Monte Carlo oracle: determinism, unbiasedness, coupling, time accounting."""

import dataclasses
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pipegate import simulate
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
        probe1 = compare(cfg, workers=1).survivor_precision
        probe8 = compare(cfg, workers=8).survivor_precision
        assert probe1 == probe8

    def test_different_seeds_differ(self):
        a = compare(make_config(seed=1))
        b = compare(make_config(seed=2))
        assert a.stats["baseline_tp"].mean != b.stats["baseline_tp"].mean

    def test_baseline_and_augmented_streams_independent(self):
        cfg = make_config(delta_n=0, tau_m=0.0, tpr_m=1.0, fpr_m=1.0)
        base = run_baseline(cfg)
        aug = run_augmented(cfg)
        # pass-through screener over the same n: per-trial TPs come from
        # different streams, so they should not be identical trial by trial
        assert not np.array_equal(base["tp"], aug["tp"])


def single_shot_trial(cfg, trial, stream):
    """Reference sampler: one ``random(m)`` call per variate kind."""
    key = np.array([cfg.seed, (trial << 1) | stream], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    m = cfg.n if stream == simulate._BASELINE_STREAM else cfg.n_total
    good = rng.random(m) < cfg.pi
    if stream == simulate._BASELINE_STREAM:
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


class TestChunkedKernel:
    @pytest.mark.parametrize(
        "items", [1, simulate._CHUNK - 1, simulate._CHUNK, 2 * simulate._CHUNK + 1]
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_single_shot_reference(self, items, workers):
        # the reference always draws the validator pass, which the kernel
        # skips at R_V = 1
        for r_v in (0.8, 1.0):
            cfg = make_config(
                n=items, delta_n=0, trials=3, seed=2**64 - 1,
                tpr_m=0.3, fpr_m=0.6, r_v=r_v,
            )
            base = run_baseline(cfg, workers=workers)
            aug = run_augmented(cfg, workers=workers)
            for t in range(cfg.trials):
                tp, _, _ = single_shot_trial(cfg, t, simulate._BASELINE_STREAM)
                assert base["tp"][t] == tp, r_v
                tp, surv, good_surv = single_shot_trial(cfg, t, simulate._AUGMENTED_STREAM)
                got = (aug["tp"][t], aug["survivors"][t], aug["good_survivors"][t])
                assert got == (tp, surv, good_surv), r_v

    def test_validator_pass_skipped_only_at_full_recall(self, monkeypatch):
        point = simulate._Worker._point

        def guarded(self, rng, offset):
            if rng is self._validator:
                raise AssertionError("validator pass drawn")
            return point(self, rng, offset)

        monkeypatch.setattr(simulate._Worker, "_point", guarded)
        compare(make_config(n=100, delta_n=10, trials=3))
        with pytest.raises(AssertionError, match="validator pass drawn"):
            compare(make_config(n=100, delta_n=10, trials=3, r_v=0.9))

    @pytest.mark.parametrize("n", [2**10, 2**20])
    def test_memory_does_not_grow_with_n(self, n):
        # a worker holds fixed chunk buffers, never a buffer of n items
        cfg = make_config(n=n, delta_n=0, trials=2, r_v=0.9)
        run_augmented(make_config(n=10, trials=2))  # one-time module set-up, untraced
        tracemalloc.start()
        try:
            run_augmented(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_pool_capped_at_trials_and_cpus(self, monkeypatch):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        small = dict(n=100, delta_n=0)
        run_augmented(make_config(trials=5, **small), workers=64)  # capped by CPUs
        run_augmented(make_config(trials=2, **small), workers=64)  # capped by trials
        run_augmented(make_config(trials=5, **small), workers=2)
        run_augmented(make_config(trials=5, **small), workers=1)  # runs inline
        assert sizes == [3, 2, 2]


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


class TestCompare:
    def test_convenient_scenario(self):
        # analytic margins are wide: tau_v=600 far above the 4.6 min floor
        cfg = make_config(n=100_000, delta_n=6000, trials=100, tau_v=600.0)
        outcome = compare(cfg)
        assert outcome.verdict == "convenient"

    def test_fast_validator_not_convenient(self):
        cfg = make_config(tau_v=27.04)
        outcome = compare(cfg)
        assert outcome.verdict == "not-convenient"

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
        outcome = compare(cfg)
        assert outcome.verdict == VERDICT_INCONCLUSIVE

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


class TestSurvivorPrecisionProbe:
    def test_matches_prevalence_consistent_precision(self):
        cfg = make_config(n=100_000, trials=100)
        stat = compare(cfg).survivor_precision
        expected = precision_at_prevalence(0.95, 0.16, 0.38)
        assert expected == pytest.approx(0.784, abs=5e-4)
        assert abs(stat.mean - expected) <= 3 * stat.se

    def test_zero_fpr_gives_perfect_precision(self):
        cfg = make_config(tpr_m=0.9, fpr_m=0.0)
        stat = compare(cfg).survivor_precision
        assert stat.mean == 1.0
        assert stat.se == 0.0

    def test_nothing_survives(self):
        cfg = make_config(tpr_m=0.0, fpr_m=0.0, trials=3)
        assert compare(cfg).survivor_precision is None

    def test_uninformative_screener_precision_equals_prevalence(self):
        cfg = make_config(n=100_000, tpr_m=0.5, fpr_m=0.5, trials=100)
        stat = compare(cfg).survivor_precision
        assert abs(stat.mean - 0.38) <= 3 * stat.se


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
        ]:
            with pytest.raises(MetricsError, match=message):
                make_config(**{field: value})

    def test_config_is_frozen(self):
        cfg = make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pi = 0.5
