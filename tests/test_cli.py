"""Command-line surface: exit codes, formats, schema conformance."""

import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from pipegate import catalog as cat
from pipegate import metrics as met
from pipegate import simulate as sim
from pipegate.cli import main

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "output_schema.json"
SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench_workloads():
    """The benchmark's workload generator, loaded from its file; it imports no pipegate."""
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench_workloads()


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


    @pytest.mark.parametrize("count", [0, 2])
    def test_model_file_needs_one_model(self, capsys, tmp_path, count):
        path = tmp_path / "models.json"
        path.write_text(json.dumps({"models": [
            {"name": f"m{i}", "precision": 0.87, "recall": 0.84, "prevalence": 0.29}
            for i in range(count)
        ]}))
        got = run_cli(capsys, "invert", "--model", str(path))
        assert got == (3, "", f"error: {path}: expected exactly one model in a model file, "
                              f"found {count}\n")


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

    def test_no_latency_and_no_tau_v_exit_3(self, capsys):
        # LineVul publishes no latency, so there is nothing to plan against
        got = run_cli(capsys, "bounds", "--model", "LineVul", "--pi", "0.38")
        assert got == (3, "", "error: one of --tau-m / --tau-v is required\n")

    def test_zero_validator_latency_exit_3(self, capsys):
        # a zero tau_V has no budget, whether the row's latency (VulDeePecker's
        # 156 s) asks for a verdict or the row has none (LineVul)
        for model in ("VulDeePecker", "LineVul"):
            got = run_cli(capsys, "bounds", "--model", model, "--pi", "0.38", "--tau-v", "0")
            assert got == (3, "", "error: validator latency must be present and > 0\n"), model

    def test_lower_bound_latency_warns_optimistic(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "--model", "LineVD", "--pi", "0.38")
        assert code == 0
        assert any("optimistic" in w for w in doc["warnings"])

    # VulDeePecker at tau_V = 27.04 s: the relaxed budget is 15.27165714285714 s
    # and the tight one at dn/n = 0.06 is 15.0931 s; tau_M about 1% either side
    # of each gives opposite verdicts, and the printed relaxed budget ties
    @pytest.mark.parametrize("extra,verdict,binding", [
        (("--tau-m", "15.119"), "convenient", None),
        (("--tau-m", "15.424"), "not-convenient", "time"),
        (("--tau-m", "15.27165714285714"), "boundary", "throughput+time"),
        (("--tau-m", "14.942", "--delta-ratio", "0.06"), "convenient", None),
        (("--tau-m", "15.244", "--delta-ratio", "0.06"), "not-convenient", "time"),
    ])
    def test_verdict_at_time_budget(self, capsys, extra, verdict, binding):
        code, doc, _ = run_json(capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38",
                                "--tau-v", "27.04", *extra)
        assert code == 0
        assert (doc["results"]["verdict"], doc["results"].get("binding_constraint")) == (
            verdict, binding)

    def test_zero_delta_ratio(self, capsys):
        # dn/n = 0 is the smallest extra volume, not an error, with or without tau_V
        code, doc, _ = run_json(capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38",
                                "--tau-v", "30", "--delta-ratio", "0")
        assert code == 0
        assert doc["results"]["max_model_time_tight_seconds"]["value"] == 18.443406593406593
        code, _, _ = run_json(capsys, "bounds", "--model", "VulDeePecker", "--pi", "0.38",
                              "--delta-ratio", "0")
        assert code == 0

    @pytest.mark.parametrize("detector", [
        # FPR 0: every patch the screener passes is good
        {"precision": 1.0, "recall": 0.84, "fpr": 0.0, "latency_seconds": 1},
        {"precision": 1.0, "recall": 1.0, "fpr": 0.0, "latency_seconds": 0},
    ], ids=["fpr-0", "perfect"])
    def test_screener_precision_one(self, capsys, tmp_path, detector):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"models": [{"name": "x", "prevalence": 0.29, **detector}]}))
        code, doc, _ = run_json(capsys, "bounds", "--model", str(path), "--pi", "0.38",
                                "--tau-v", "30")
        assert code == 0
        assert doc["results"]["screener_precision"]["value"] == 1.0
        assert doc["results"]["verdict"] == "convenient"


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
        path = tmp_path / "bm.json"
        for q25, median, q75 in ((1, 2, 3), (5, 5, 5)):  # equal quartiles are valid
            path.write_text(json.dumps({"models": [], "benchmark": {
                "q25": q25, "median": median, "q75": q75, "mean": 4, "prevalence": 0.38}}))
            code, parsed, _ = run_json(capsys, "limits", "--benchmark", str(path))
            assert code == 0
            assert parsed["inputs"]["benchmark"]["q25"] == q25

    def test_bad_benchmark_names_file_and_section(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        for field, value, message in (
            ("prevalence", 1.0, "prevalence must be in (0, 1)"),
            ("prevalence", 0.0, "prevalence must be in (0, 1)"),
            ("q25", 0, "quartiles must satisfy 0 < q25 <= median <= q75"),
        ):
            bench = {"q25": 1, "median": 2, "q75": 3, "mean": 4, "prevalence": 0.38, field: value}
            path.write_text(json.dumps({"benchmark": bench}))
            got = run_cli(capsys, "limits", "--benchmark", str(path))
            assert got == (3, "", f"error: {path}: benchmark: {message}\n"), (field, value)

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
        assert code == 0
        assert doc["warnings"] == [
            "screener latency is a published lower bound; results are optimistic",
            self.X_WARNING,
        ]

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

    # sha256 of the canonical-JSON `results` object, pinned so that no change
    # to the kernel moves a seeded bit.  A trial of k variate kinds (labels,
    # the screener's if augmented, the validator's if R_V < 1) draws k words
    # per item.  Item counts (baseline n, augmented n + delta_n) cover each
    # layout: 1000 and 1100 share blocks, and the others are each a block
    # alone, counted a kind at a time in one chunk, at 1 kind (16385, 24577),
    # 2 kinds (12289, 16000, 16385, 24577) and 3 kinds (16384, 16385).  Trial
    # counts 5 and 7 do not split evenly over 2 or 3 workers.
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
        (
            "simulate --tpr-m 0.8 --fpr-m 0.3 --pi 0.2 --n 12289 --delta-ratio 0.3333"
            " --tau-v 5 --tau-m 1 --validator-tpr 0.9 --trials 5 --seed 13",
            "8b2941aeeb4c9ea7e1642327019c6f96c4bc31c2acb2ca190e0445be76598456",
        ),
        (
            "simulate --model VulDeePecker --pi 0.38 --n 24577 --tau-v 600 --trials 5"
            " --seed 17",
            "0dc47b273a1d67f70ec0f9ebb1eb80a180e1c7f63e15afceccd8a0505e8cfe80",
        ),
    ]

    @pytest.mark.parametrize("argv,digest", GOLDEN)
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_golden_results_digest(self, capsys, argv, digest, workers):
        code, doc, _ = run_json(capsys, *argv.split(), "--workers", workers)
        assert code == 0
        canonical = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest

    # the benchmark's stored `sim-small` digests, re-derived in process at 2
    # workers; the workload builds each argv, whose model name holds spaces
    @pytest.mark.parametrize("argv", BENCH.sim_pool("sim-small"),
                             ids=lambda argv: argv[2].replace(" ", "-"))
    def test_benchmark_sim_small_digest(self, capsys, argv):
        digests = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
        op = BENCH.sim_op(argv, 2)
        code, out, _ = run_cli(capsys, *op.argv)
        assert code == op.expect_exit == 0
        results = json.loads(out)["results"]
        assert results["analytic_agreement"] is True
        canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == digests[op.digest_key]

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
        _, _, probe = sim.compare(configs[0])
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
        (("--model", "VulDeePecker", "--tau-v", "30", "--tau-m", "-1"),
         "latencies must be >= 0"),
    ], ids=["tau-v-0", "validator-tpr-0", "precision-0", "passes-nothing", "overflow",
            "tau-m-negative"])
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

    @pytest.mark.parametrize("trials", [4 * 10**17, 2**63 - 1])
    def test_unaddressable_trials_exit_3(self, capsys, trials):
        # more bytes of per-trial rows than numpy can address: it refuses to
        # size the array before allocating anything, so this runs in process
        got = run_cli(capsys, "simulate", "--model", "VulDeePecker", "--pi", "0.38",
                      "--tau-v", "600", "--n", "10", "--trials", str(trials))
        assert got == (3, "", f"error: trials={trials}: per-trial results do not fit in memory\n")

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

    @pytest.mark.parametrize("override", [("--tpr-m", "0.5"), ("--fpr-m", "0.16")])
    def test_rate_override_uses_consistent_precision(self, capsys, override):
        # the published P_M belongs to the row's rates, not to the screener sampled
        code, doc, _ = run_json(
            capsys, "simulate", "--model", "VulDeePecker", *override, "--pi", "0.38",
            "--n", "2000", "--trials", "5", "--tau-v", "600",
            "--precision-mode", "as-published",
        )
        assert code == 0
        assert doc["inputs"]["precision_mode"] == "prevalence-consistent"
        precision = doc["results"]["screener_precision"]
        assert precision["as_published"] == precision["prevalence_consistent"]
        assert precision["as_published"] == pytest.approx(
            met.precision_at_prevalence(doc["inputs"]["tpr_m"], doc["inputs"]["fpr_m"], 0.38)
        )

    # the analytic verdict about 1% either side of the tight budget at dn/n =
    # 0.06: 15.0931 s at the published P_M, 13.065 s at the consistent one.
    # Only the verdict is asserted: the exit follows the sampled agreement
    @pytest.mark.parametrize("extra,verdict", [
        (("--tau-m", "14.942"), "convenient"),
        (("--tau-m", "15.244"), "not-convenient"),
        (("--tau-m", "12.935", "--precision-mode", "prevalence-consistent"), "convenient"),
        (("--tau-m", "13.196", "--precision-mode", "prevalence-consistent"), "not-convenient"),
    ])
    def test_analytic_verdict_at_time_budget(self, capsys, extra, verdict):
        _, doc, _ = run_json(capsys, "simulate", "--model", "VulDeePecker", "--pi", "0.38",
                             "--tau-v", "27.04", "--delta-ratio", "0.06", "--n", "2000",
                             "--trials", "20", *extra)
        assert doc["results"]["analytic_verdict"] == verdict

    def test_rounded_constant_mean_agrees(self, capsys):
        # every trial's baseline time is n * tau_v, but their mean misses it
        # by an ulp; with a model SE of 0 only the relative floor agrees
        code, doc, _ = run_json(
            capsys, "simulate", "--model", "VulDeePecker", "--pi", "0.38", "--n", "333",
            "--trials", "30", "--tau-v", "237.97",
        )
        stat = doc["results"]["baseline_time"]
        assert stat["mean"] != stat["analytic"]
        assert stat["within_3se"] is True
        assert (code, doc["results"]["analytic_agreement"]) == (0, True)

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
        assert (code, out, err) == (3, "", "error: precision must be > 0, got 0.0\n")

    def test_screener_rates_required_exit_3(self, capsys):
        got = run_cli(capsys, "simulate", "--tpr-m", "0.5", "--pi", "0.38", "--tau-v", "1",
                      "--tau-m", "1")
        assert got == (3, "", "error: either --model or both --tpr-m/--fpr-m are required\n")

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

    def test_tolerances_come_from_the_claims_table(self, capsys, monkeypatch):
        def with_tolerance(model, figure, tol):
            monkeypatch.setattr(cat, "PUBLISHED_CLAIMS", tuple(
                (s, m, f, tol if m == model and figure in f else t)
                for s, m, f, t in cat.PUBLISHED_CLAIMS))
            code, doc, _ = run_json(capsys, "reproduce")
            return code, [row[1] for row in doc["table"]["rows"] if row[-1] != "pass"]

        # CodeJIT RGCN's worst cell misses by 11.3%, inside 12%
        assert with_tolerance("CodeJIT RGCN", "median", 0.12) == (0, [])
        # the extra ratio misses by 3.2e-5 in ratio units, beyond 1e-6
        assert with_tolerance("VulDeePecker", "min_extra_ratio", 1e-6) == (
            1, ["VulDeePecker min extra ratio"])

    def test_time_limits_are_the_limits_grid(self, capsys):
        # reproduce and limits compute the grid apart; at the builtin pi they must agree exactly
        _, reproduced, _ = run_json(capsys, "reproduce")
        _, limits, _ = run_json(capsys, "limits")
        computed = {row[1]: row[3] for row in reproduced["table"]["rows"]
                    if row[0] == "time_limits"}
        stats = limits["table"]["columns"][1:]
        grid = {f"{row[0]} / {stat}": cell
                for row in limits["table"]["rows"] for stat, cell in zip(stats, row[1:])}
        claimed = sum(len(figures) for section, _, figures, _ in cat.PUBLISHED_CLAIMS
                      if section == "time_limits")
        assert computed == grid
        assert len(grid) == claimed == 28


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
            # bounds names a pi out of range as invert and limits do, not as missing headroom
            (("bounds", "--model", "VulDeePecker", "--pi", "1.5", "--tau-v", "30"),
             "pi must be in [0, 1], got 1.5"),
            (("bounds", "--model", "VulDeePecker", "--pi", "1.0", "--tau-v", "30"),
             "pi must be < 1, got 1.0"),
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

    # sha256 of the whole `--format table` and `--format csv` stdout of the
    # same argvs, and of one seeded simulate run
    TEXT_SNAPSHOT = [
        (SNAPSHOT[0][0], 0, "0c4d0ec2adc8c107c853ddcbba270a8e6e1dae07377d9cccabda9378c1b35103",
         "9ea5ab11594bf8ced4f5c7b930093073792ef64f9c0b5e1adbc088392b1124ab"),
        (SNAPSHOT[1][0], 0, "2d9b8699ebee21a38c4f9e45858903764d1b6bad7620ee12d808697ca7d414e2",
         "a35033dea6e114325eaab024997a75eb435dd1721312ecae4c946561e7ebae78"),
        (SNAPSHOT[2][0], 0, "46d48566df0e6532d1d55502745f961fdb13a44ce40a5a620ab4e0b03e5e8a28",
         "5a3fbda386758b8b842c453c0cb61fd42e2eb4e469231d50351eb53b14c66ef0"),
        (SNAPSHOT[3][0], 0, "b9196d60810b0e630695606fd87c0f965a98f21d832ae7cf03d6534c183dd2c2",
         "c5cdfe660dd07c27e2723cef5ca2d03945f41e05173b5dc515f2885847b6057e"),
        (SNAPSHOT[4][0], 0, "718cf480e37e270a2dd76e41344edd6a13b08d1e654d5cb5f6017f8d6d8540e1",
         "01492bdcedd09717c9794d2bcf29435983dc84df898691c388b820cda76846ab"),
        (SNAPSHOT[5][0], 1, "4a3115ff9f3999900e459bfc9dd1e172f943bacaf1bb5ac5a14659cd6241b4bc",
         "ed91d02e4ef0a2eb5c2874e16b62bb8ebac6aa748f388db06bc863034877f341"),
        ((*TestSimulate.GOLDEN[0][0].split(), "--workers", "1"), 0,
         "b73f98ca5b33fd959aaf7340aec65da819bf95945763640151f37ccd23ae01f3",
         "ad4d03529c5f8b302b8a512318b37ce8e98e20855df98a58c00014b51685aa7c"),
    ]

    @pytest.mark.parametrize("argv,code,table_digest,csv_digest", TEXT_SNAPSHOT,
                             ids=["invert-vdp", "invert-linevul", "bounds-vdp", "bounds-ivdetect",
                                  "limits", "reproduce", "simulate-golden-0"])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_text_snapshot(self, capsys, argv, code, table_digest, csv_digest, fmt):
        got, out, _ = run_cli(capsys, *argv, "--format", fmt)
        digest = table_digest if fmt == "table" else csv_digest
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_json_roundtrips(self, capsys):
        _, out, _ = run_cli(capsys, "invert", "--model", "LineVD", "--format", "json")
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()
