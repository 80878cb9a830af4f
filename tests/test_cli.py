"""Command-line surface: exit codes, formats, schema conformance."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from pipegate import simulate as sim
from pipegate.cli import main

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "output_schema.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


class TestInvert:
    def test_vuldeepecker(self, capsys):
        code, doc, _ = run_json(capsys, "invert", "--model", "VulDeePecker")
        assert code == 0
        assert doc["results"]["screener_precision"]["value"] == pytest.approx(0.9371, abs=5e-5)
        assert doc["results"]["screener_recall"]["value"] == pytest.approx(0.95)
        assert doc["results"]["screener_fpr"]["value"] == pytest.approx(0.16)

    def test_linevul_bayes_completed_recall(self, capsys):
        code, doc, _ = run_json(capsys, "invert", "--model", "LineVul")
        assert code == 0
        assert doc["results"]["screener_recall"]["value"] == pytest.approx(0.998)
        assert doc["inputs"]["detector_fpr"]["provenance"] == "bayes-estimated"

    def test_prevalence_consistent_precision(self, capsys):
        code, doc, _ = run_json(capsys, "invert", "--model", "VulDeePecker", "--pi", "0.38")
        assert code == 0
        assert doc["results"]["screener_precision_at_pi"]["value"] == pytest.approx(
            0.784, abs=5e-4
        )

    def test_perfect_detector_recall(self, capsys, tmp_path):
        spec = {
            "models": [
                {"name": "x", "precision": 0.5, "recall": 1.0, "fpr": 0.3, "prevalence": 0.5}
            ]
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(spec))
        code, doc, _ = run_json(capsys, "invert", "--model", str(path))
        assert code == 0
        assert doc["results"]["screener_precision"]["value"] == 1.0

    def test_unknown_model_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "invert", "--model", "nope")
        assert code == 2
        assert "unknown model" in err

    def test_missing_model_file_exit_3(self, capsys, tmp_path):
        # a name ending in .json is a model file even when the file is missing
        path = tmp_path / "nosuch.json"
        code, out, err = run_cli(capsys, "invert", "--model", str(path))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {path}: cannot read (") and err.count("\n") == 1


class TestBounds:
    def test_fixed_model_query(self, capsys):
        code, doc, _ = run_json(
            capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-m", "156"
        )
        assert code == 0
        minutes = doc["results"]["min_validator_time_seconds"]["value"] / 60
        assert minutes == pytest.approx(4.6, abs=0.05)
        assert doc["results"]["min_extra_ratio"]["value"] == pytest.approx(0.0526, abs=5e-4)

    def test_reveal_row(self, capsys):
        code, doc, _ = run_json(
            capsys, "bounds", "--model", "VulDeePecker on Reveal", "--pi", "0.38",
            "--tau-m", "156",
        )
        assert code == 0
        minutes = doc["results"]["min_validator_time_seconds"]["value"] / 60
        assert minutes == pytest.approx(5.07, rel=0.02)

    def test_tau_v_gives_time_budget_and_verdict(self, capsys):
        code, doc, _ = run_json(
            capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38",
            "--tau-v", "600", "--delta-ratio", "0.06",
        )
        assert code == 0
        assert doc["results"]["max_model_time_relaxed_seconds"]["value"] > 156
        assert doc["results"]["verdict"] == "convenient"

    def test_free_screener(self, capsys):
        code, doc, _ = run_json(
            capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38",
            "--tau-m", "0", "--tau-v", "600",
        )
        assert code == 0
        assert doc["results"]["min_validator_time_seconds"]["value"] == 0.0
        assert doc["results"]["verdict"] == "convenient"

    def test_no_headroom_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.99", "--tau-m", "156"
        )
        assert code == 3
        assert "headroom" in err

    def test_lower_bound_latency_warns_optimistic(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "--model", "LineVD", "--pi", "0.38")
        assert code == 0
        assert any("optimistic" in w for w in doc["warnings"])


class TestLimits:
    def test_grid_against_published(self, capsys):
        code, doc, _ = run_json(capsys, "limits", "--pi", "0.38")
        assert code == 0
        table = doc["table"]
        rows = {row[0]: row[1:] for row in table["rows"]}
        assert table["columns"] == ["model", "q25", "median", "q75", "mean"]
        assert rows["LineVul"][0] == pytest.approx(5.6, abs=0.1)
        assert rows["VulDeePecker"][1] == pytest.approx(15.3, abs=0.05)

    def test_pi_at_precision_zeroes_row(self, capsys):
        # pi above every screener precision: all budgets clamp to zero
        code, doc, _ = run_json(capsys, "limits", "--pi", "0.995")
        assert code == 0
        for row in doc["table"]["rows"]:
            assert all(cell == 0.0 for cell in row[1:])

    def test_underflowed_budget_clamps_to_plus_zero(self, capsys, tmp_path):
        # the smallest subnormal tau_V times VulDeePecker's headroom at
        # pi = 0.938 (P_M 0.9371) underflows to -0.0, which must print as 0.0
        doc = {"benchmark": {"q25": 5e-324, "median": 1, "q75": 2, "mean": 3, "prevalence": 0.38}}
        path = tmp_path / "bm.json"
        path.write_text(json.dumps(doc))
        code, parsed, _ = run_json(capsys, "limits", "--pi", "0.938", "--benchmark", str(path))
        assert code == 0
        rows = {row[0]: row[1:] for row in parsed["table"]["rows"]}
        assert math.copysign(1.0, rows["VulDeePecker"][0]) == 1.0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--pi", "0.38", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["model", "q25", "median", "q75", "mean"]
        assert len(rows) == 8

    def test_benchmark_from_file(self, capsys, tmp_path):
        doc = {
            "models": [],
            "benchmark": {"q25": 1, "median": 2, "q75": 3, "mean": 4, "prevalence": 0.38},
        }
        path = tmp_path / "bm.json"
        path.write_text(json.dumps(doc))
        code, parsed, _ = run_json(capsys, "limits", "--benchmark", str(path))
        assert code == 0
        assert parsed["inputs"]["benchmark"]["q25"] == 1

    def test_empty_benchmark_means_builtin(self, capsys, tmp_path, monkeypatch):
        # an empty --benchmark counts as not given, as an empty --catalog does:
        # the benchmark of $PIPEGATE_CATALOG is not read
        doc = {"models": [], "benchmark": {"q25": 1, "median": 2, "q75": 3, "mean": 4,
                                           "prevalence": 0.2}}
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("PIPEGATE_CATALOG", str(path))
        builtin = run_cli(capsys, "limits", "--benchmark", "builtin", "--format", "json")
        assert run_cli(capsys, "limits", "--benchmark", "", "--format", "json") == builtin
        assert json.loads(builtin[1])["inputs"]["benchmark"]["q25"] == 9.17


class TestConsistencyWarnings:
    """A warning names its model and covers only the models a command reads."""

    X_WARNING = ("x: precision 0.9 disagrees with the value implied by "
                 "(recall=0.8, fpr=0.3, prevalence=0.3) by 0.3667 (> 0.02)")

    @pytest.fixture
    def catalog(self, tmp_path):
        doc = {
            "models": [
                # implied precision 0.24 / 0.45 = 0.533, not 0.9
                {"name": "x", "precision": 0.9, "recall": 0.8, "fpr": 0.3, "prevalence": 0.3,
                 "latency_seconds": 2, "latency_kind": "lower_bound"},
                {"name": "y", "precision": 0.87, "recall": 0.84, "fpr": 0.05,
                 "prevalence": 0.29},
            ],
            "benchmark": {"q25": 1, "median": 2, "q75": 3, "mean": 4, "prevalence": 0.38},
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_consistent_model_no_warning(self, capsys, catalog):
        code, doc, _ = run_json(capsys, "invert", "--model", "y", "--catalog", catalog)
        assert (code, doc["warnings"]) == (0, [])

    def test_bounds_warns_after_latency(self, capsys, catalog):
        code, doc, _ = run_json(capsys, "bounds", "--model", "x", "--catalog", catalog,
                                "--pi", "0.2", "--tau-v", "30")
        assert code == 0
        assert doc["warnings"] == [
            "screener latency is a published lower bound; results are optimistic",
            self.X_WARNING,
        ]

    def test_limits_warns_once_per_row(self, capsys, catalog):
        code, doc, _ = run_json(capsys, "limits", "--catalog", catalog, "--benchmark", catalog)
        assert (code, doc["warnings"]) == (0, [self.X_WARNING])

    def test_simulate_warns_for_its_model(self, capsys, catalog):
        code, doc, _ = run_json(capsys, "simulate", "--model", "x", "--catalog", catalog,
                                "--pi", "0.38", "--n", "1000", "--trials", "3", "--tau-v", "30")
        assert (code, doc["warnings"]) == (0, [self.X_WARNING])

    def test_model_file_reads_no_catalog(self, capsys, tmp_path, monkeypatch):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"models": [
            {"name": "z", "precision": 0.87, "recall": 0.84, "fpr": 0.05, "prevalence": 0.29}
        ]}))
        monkeypatch.delenv("PIPEGATE_CATALOG", raising=False)
        unset = run_cli(capsys, "invert", "--model", str(one))
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        monkeypatch.setenv("PIPEGATE_CATALOG", str(broken))
        assert run_cli(capsys, "invert", "--model", str(one)) == unset
        assert unset[0] == 0


class TestSimulate:
    ARGS = (
        "simulate", "--model", "VulDeePecker", "--pi", "0.38", "--n", "20000",
        "--delta-ratio", "0.10", "--tau-v", "600", "--trials", "40", "--seed", "42",
    )

    def test_fixed_seed_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        code2, out2, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_do_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS, "--workers", "1", "--format", "json")
        _, out4, _ = run_cli(capsys, *self.ARGS, "--workers", "4", "--format", "json")
        doc1, doc4 = json.loads(out1), json.loads(out4)
        # the worker count is echoed back; everything computed must match
        assert doc1["inputs"].pop("workers") == 1
        assert doc4["inputs"].pop("workers") == 4
        assert doc1 == doc4

    # sha256 of the canonical-JSON `results` object, pinned from the
    # single-shot sampler.  Item counts (baseline n, augmented n + delta_n)
    # straddle the 8192-variate draw chunk: 1000/1100 sit below it,
    # 16000/16384 end on exactly 2 chunks, 16385/16385 spill 1 item into a
    # third.  Trial counts 5 and 7 do not split evenly over 2 or 3 workers.
    GOLDEN = [
        (
            "simulate --model VulDeePecker --pi 0.38 --n 1000 --delta-ratio 0.1"
            " --tau-v 600 --trials 7 --seed 3",
            "bef6a4385dacc1804a266d96723ca3c4c76fd095b311fa67114e31145f6a6e76",
        ),
        (
            "simulate --tpr-m 0.8 --fpr-m 0.3 --pi 0.2 --n 16000 --delta-ratio 0.024"
            " --tau-v 5 --tau-m 1 --validator-tpr 0.9 --trials 5 --seed 11",
            "ba1a97673a6e4045aa875c48c9469b13564762ce9a6f1cf8252a1dd553b4a0f2",
        ),
        (
            "simulate --model LineVul --tau-m 2 --pi 0.5 --n 16385 --tau-v 30 --trials 5"
            " --seed 7 --precision-mode prevalence-consistent",
            "60ccc5b69cafc1422cc09beeb4c38d9b4aa86adfb3b8314f60dfc4e48d215b13",
        ),
    ]

    @pytest.mark.parametrize("argv,digest", GOLDEN)
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_golden_results_digest(self, capsys, argv, digest, workers):
        code, doc, _ = run_json(capsys, *argv.split(), "--workers", workers)
        assert code == 0
        canonical = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    def test_one_augmented_run_per_simulate(self, capsys, monkeypatch):
        configs = []
        run_augmented = sim.run_augmented

        def counting(cfg, workers=1):
            configs.append(cfg)
            return run_augmented(cfg, workers=workers)

        monkeypatch.setattr(sim, "run_augmented", counting)
        code, doc, _ = run_json(capsys, *self.ARGS, "--workers", "2")
        assert code == 0
        assert len(configs) == 1
        probe = sim.compare(configs[0]).survivor_precision
        precision = doc["results"]["screener_precision"]
        assert precision["empirical_mean"] == probe.mean
        assert precision["empirical_se"] == probe.se

    @pytest.mark.parametrize("seed", range(6))
    def test_identical_small_trials_agree(self, capsys, seed):
        # 2 trials of 20 items can come out identical, with an empirical SE
        # of 0: the model's SE keeps that noise from exiting 1
        code, doc, _ = run_json(
            capsys, "simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
            "--n", "20", "--trials", "2", "--seed", str(seed),
        )
        assert code == 0
        assert doc["results"]["analytic_agreement"] is True

    # at pi + 0.01 the baseline tp is 100 off: about 9 model SEs over 20
    # trials, but within 3 per-trial SDs, so the band must shrink with sqrt(trials)
    @pytest.mark.parametrize("shift", [0.1, 0.01])
    def test_wrong_expectation_still_exits_1(self, capsys, monkeypatch, shift):
        expected_outcome = sim.expected_outcome
        monkeypatch.setattr(
            sim, "expected_outcome",
            lambda cfg: expected_outcome(dataclasses.replace(cfg, pi=cfg.pi + shift)),
        )
        code, doc, _ = run_json(
            capsys, "simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
            "--n", "10000", "--trials", "20",
        )
        assert code == 1
        assert doc["results"]["analytic_agreement"] is False
        assert doc["results"]["baseline_time"]["within_3se"] is True
        assert doc["results"]["baseline_tp"]["within_3se"] is False

    def test_screener_passing_nothing_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--tpr-m", "0", "--fpr-m", "0", "--pi", "0.38",
            "--n", "100", "--tau-v", "1", "--tau-m", "0", "--trials", "3",
        )
        assert code == 3
        assert out == ""
        assert err == "error: screener passed nothing in every trial; precision undefined\n"

    def test_agreement_and_verdict(self, capsys):
        code, doc, _ = run_json(capsys, *self.ARGS)
        assert code == 0
        assert doc["results"]["analytic_agreement"] is True
        assert doc["results"]["empirical_verdict"] == "convenient"
        assert doc["results"]["analytic_verdict"] == "convenient"

    def test_pass_through_screener_survivors(self, capsys):
        code, doc, _ = run_json(
            capsys, "simulate", "--tpr-m", "1", "--fpr-m", "1", "--pi", "0.38",
            "--n", "1000", "--tau-v", "10", "--tau-m", "1", "--trials", "5", "--seed", "1",
        )
        assert code == 0
        surv = doc["results"]["survivors"]
        assert surv["mean"] == 1000
        assert surv["se"] == 0.0

    def test_invalid_config_exit_3(self, capsys):
        base = ("simulate", "--fpr-m", "0", "--pi", "0.38", "--n", "10", "--tau-v", "1",
                "--tau-m", "0")
        for extra, message in (
            (("--tpr-m", "1.5"), "tpr must be in [0, 1], got 1.5"),
            (("--tpr-m", "0.5", "--precision-mode", "whatever"), "argument --precision-mode"),
            (("--tpr-m", "0.5", "--workers", "0"), "workers must be >= 1, got 0"),
            (("--tpr-m", "0.5", "--workers", "-4"), "workers must be >= 1, got -4"),
            (("--tpr-m", "0.5", "--validator-tpr", "1.5"), "r_v must be in [0, 1], got 1.5"),
        ):
            code, out, err = run_cli(capsys, *base, *extra)
            assert code == 3
            assert out == ""
            assert err.startswith(f"error: {message}") and err.count("\n") == 1

    # every one of these is decided by the inputs alone, so no trial may run
    @pytest.mark.parametrize("extra,message", [
        (("--model", "VulDeePecker", "--tau-v", "0"),
         "validator latency must be present and > 0"),
        (("--model", "VulDeePecker", "--tau-v", "600", "--validator-tpr", "0"),
         "validator recall must be > 0"),
        (("--tpr-m", "0", "--fpr-m", "0.5", "--tau-v", "600", "--tau-m", "1"),
         "precision must be > 0, got 0.0"),
        (("--tpr-m", "0", "--fpr-m", "0", "--tau-v", "600", "--tau-m", "1"),
         sim.NOTHING_SURVIVES),
        (("--model", "VulDeePecker", "--tau-v", "1e307", "--tau-m", "1e307"),
         "a pipeline figure is not a finite number; inputs too large"),
    ], ids=["tau-v-0", "validator-tpr-0", "precision-0", "passes-nothing", "overflow"])
    def test_rejected_before_sampling(self, capsys, monkeypatch, extra, message):
        def compare(cfg, workers=1):
            raise AssertionError("sampled a scenario the inputs already reject")

        monkeypatch.setattr(sim, "compare", compare)
        got = run_cli(capsys, "simulate", "--pi", "0.38", "--n", "1000", "--trials", "3", *extra)
        assert got == (3, "", f"error: {message}\n")

    def test_unallocatable_trials_exit_3(self):
        # 10**12 trials of per-trial rows cannot be allocated; a fresh
        # interpreter under an address-space limit keeps that from touching
        # this process or depending on the machine's overcommit policy
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["OPENBLAS_NUM_THREADS"] = "1"
        limit = 2 * 1024**3

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        argv = ("simulate --model VulDeePecker --pi 0.38 --tau-v 600 --n 100"
                " --trials 1000000000000").split()
        done = subprocess.run(
            [sys.executable, "-m", "pipegate.cli", *argv], env=env, capture_output=True,
            text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            "error: trials=1000000000000: per-trial results do not fit in memory\n"
        )

    def test_echoes_precision_mode_used(self, capsys):
        # without --model there is no published P_M: the consistent one is used
        code, doc, _ = run_json(
            capsys, "simulate", "--tpr-m", "0.8", "--fpr-m", "0.3", "--pi", "0.2",
            "--n", "1000", "--trials", "5", "--tau-v", "5", "--tau-m", "1",
        )
        assert code == 0
        assert doc["inputs"]["precision_mode"] == "prevalence-consistent"
        code, doc, _ = run_json(capsys, *self.ARGS)
        assert doc["inputs"]["precision_mode"] == "as-published"

    def test_single_trial_exit_3(self, capsys):
        # one trial has SE 0, so any sampling noise would read as a regression
        code, out, err = run_cli(capsys, *self.ARGS[:-4], "--trials", "1")
        assert (code, out, err) == (3, "", "error: trials must be >= 2, got 1\n")
        code, _, _ = run_cli(capsys, *self.ARGS[:-4], "--trials", "2")
        assert code in (0, 1)

    def test_screener_recall_zero_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--model", "VulDeePecker", "--tpr-m", "0", "--pi", "0.38",
            "--n", "1000", "--tau-v", "600", "--trials", "5",
        )
        assert (code, out, err) == (3, "", "error: r_m must be in (0, 1], got 0.0\n")

    def test_missing_latency_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "LineVul", "--pi", "0.38",
            "--n", "10", "--tau-v", "1",
        )
        assert code == 3
        assert "latency" in err


class TestReproduce:
    def test_known_regressions_only(self, capsys):
        # the published grid is tau_V * (R_M - pi), the bound at P_M = R_M;
        # reproduce compares it with the break-even bound at the row's own
        # P_M.  CodeJIT RGCN has P_M 0.725 against R_M 0.800, so its median,
        # q75 and mean cells miss by 11.3%, 10.0% and 10.1% against the 10%
        # CodeJIT tolerance; everything else must pass
        code, doc, _ = run_json(capsys, "reproduce")
        assert code == 1
        failing = [row for row in doc["table"]["rows"] if row[-1] != "pass"]
        assert doc["results"]["failures"] == len(failing) == 3
        assert sorted(row[1] for row in failing) == [
            "CodeJIT RGCN / mean",
            "CodeJIT RGCN / median",
            "CodeJIT RGCN / q75",
        ]

    def test_check_count(self, capsys):
        _, doc, _ = run_json(capsys, "reproduce")
        # 5 starred FPRs + 4 fixed-model figures + 28 grid cells
        assert doc["results"]["checks"] == 37


class TestCliPlumbing:
    def test_usage_error_exit_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "bounds", "--model", "VulDeePecker")
        assert code == 3
        # a flag the command echoes is range-checked even when no figure reads it
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"models": []}))
        for argv, message in (
            (("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--delta-ratio", "-1"),
             "dn_ratio must be >= 0, got -1.0"),
            (("limits", "--catalog", str(empty), "--pi", "5"), "pi must be in [0, 1], got 5.0"),
        ):
            assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_table_format_uses_minutes_above_two_minutes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-m", "156"
        )
        assert code == 0
        assert "min" in out

    def test_env_var_catalog(self, capsys, tmp_path, monkeypatch):
        doc = {
            "models": [
                {"name": "only", "precision": 0.9, "recall": 0.8, "fpr": 0.1,
                 "prevalence": 0.3}
            ]
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("PIPEGATE_CATALOG", str(path))
        code, parsed, _ = run_json(capsys, "invert", "--model", "only")
        assert code == 0
        code, _, _ = run_cli(capsys, "invert", "--model", "VulDeePecker")
        assert code == 2

    def test_empty_env_var_means_unset(self, capsys, monkeypatch):
        monkeypatch.delenv("PIPEGATE_CATALOG", raising=False)
        unset = run_cli(capsys, "invert", "--model", "VulDeePecker")
        monkeypatch.setenv("PIPEGATE_CATALOG", "")
        assert run_cli(capsys, "invert", "--model", "VulDeePecker") == unset
        assert unset[0] == 0

    def test_bad_catalog_exit_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, _ = run_cli(
            capsys, "invert", "--model", "x", "--catalog", str(path)
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("invert", "--model", "VulDeePecker"),
            ("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-m", "156"),
            ("limits", "--pi", "0.38"),
            ("simulate", "--tpr-m", "0.95", "--fpr-m", "0.16", "--pi", "0.38",
             "--n", "1000", "--tau-v", "10", "--tau-m", "1", "--trials", "5"),
            ("reproduce",),
        ],
    )
    def test_json_output_matches_published_schema(self, capsys, argv):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        _, doc, _ = run_json(capsys, *argv)
        jsonschema.validate(doc, schema)

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "nan"),
            ("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "inf"),
            ("limits", "--pi", "-inf"),
            ("invert", "--model", "VulDeePecker", "--pi", "NaN"),
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "100", "--delta-ratio", "nan"),
            ("simulate", "--tpr-m", "0.5", "--fpr-m", "0.5", "--pi", "0.4", "--n", "100",
             "--tau-v", "1", "--tau-m", "1e999", "--trials", "3"),
            # finite inputs whose expected times overflow to inf
            ("simulate", "--tpr-m", "0.5", "--fpr-m", "0.5", "--pi", "0.4", "--n", "100",
             "--tau-v", "1e307", "--tau-m", "1e307", "--trials", "3"),
            # counts at or past numpy's 2**63 index limit
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "1" + "0" * 400),
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--trials", "1" + "0" * 400),
            # n + delta_n at or past 2**63, or n * delta_ratio not finite
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "1", "--delta-ratio", "1e300"),
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "9223372036854775807", "--delta-ratio", "1"),
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "10", "--delta-ratio", "1e308"),
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "10", "--delta-ratio=-1e308"),
            # too negative for a float: rejected as n <= 0, not multiplied
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
             "--n", "-1" + "0" * 400),
            # every time overflows to inf, so the two tie: once a false boundary
            ("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "1e308",
             "--tau-m", "1e308"),
            # ... and once a false convenient verdict
            ("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "1e308",
             "--tau-m", "1e308", "--delta-ratio", "0.1"),
            ("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-m", "1.7e308"),
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--n", "1000",
             "--trials", "3", "--tau-v", "1e307", "--tau-m", "1e307"),
            # finite expected times, but the squared deviations behind se overflow
            ("simulate", "--model", "VulDeePecker", "--pi", "0.38", "--n", "1000",
             "--trials", "3", "--tau-v", "1e300", "--tau-m", "1"),
        ],
    )
    def test_non_finite_exit_3(self, capsys, argv):
        # every format ends the same way: no table or csv prints inf instead
        ends = {run_cli(capsys, *argv, "--format", fmt) for fmt in ("table", "csv", "json")}
        assert len(ends) == 1
        code, out, err = ends.pop()
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflow_prints_one_error_line(self):
        # pytest captures Python warnings, so only a real process shows what
        # reaches stderr; numpy's overflow must neither print nor raise
        argv = ("simulate --model VulDeePecker --pi 0.38 --n 1000 --trials 3"
                " --tau-v 1e300 --tau-m 1").split()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PYTHONWARNINGS", None)
        for warnings_filter in (None, "error"):
            if warnings_filter:
                env["PYTHONWARNINGS"] = warnings_filter
            done = subprocess.run([sys.executable, "-m", "pipegate.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stdout, done.stderr) == (
                3, "", "error: a result is not a finite number; inputs too large\n"
            )

    # sha256 of the whole `--format json` stdout of the closed-form commands,
    # with the exit code: any change to a figure, key, warning or byte fails
    SNAPSHOT = [
        (("invert", "--model", "VulDeePecker", "--pi", "0.38"), 0,
         "368df6f6da1372bd27de98dabb162dc22568299c95e9390112a7cdf15e452abe"),
        (("invert", "--model", "LineVul"), 0,
         "dfea5bddd659ba54d1947d2193bbc87c51b8c56f715caf07ce919f5b507098d9"),
        (("bounds", "--model", "VulDeePecker", "--pi", "0.38", "--tau-v", "600",
          "--delta-ratio", "0.06"), 0,
         "73a9210f99ed20c9e2ee9ee3854dfb78b6e5777c83cec7fea03751bf063f89fd"),
        # the catalog latency is a published lower bound: carries a warning
        (("bounds", "--model", "IVDetect on ReVeal", "--pi", "0.38", "--tau-v", "27.04"), 0,
         "41155128bf90a7d0983f5104b731b980450ba629a61c39f1157337766ea1a753"),
        (("limits", "--pi", "0.38"), 0,
         "48b5129aa39abc5cda10b3f8f1bf6bc0908488d0d5a17b4a888dd368ff796bff"),
        (("reproduce",), 1,
         "b0018043b0ccc11554f0f106a35e2d824b98de69af8572933dbb567f94fbae21"),
    ]

    @pytest.mark.parametrize("argv,code,digest", SNAPSHOT)
    def test_closed_form_json_snapshot(self, capsys, argv, code, digest):
        got, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_json_roundtrips(self, capsys):
        _, out, _ = run_cli(capsys, "invert", "--model", "LineVD", "--format", "json")
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()
