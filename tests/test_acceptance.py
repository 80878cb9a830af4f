"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.

Criterion 3 checks the published time-limit grid as it was computed: every
cell is tau_V * (R_M - pi), the relaxed screener-time bound evaluated at
P_M = R_M, and all 28 cells land within 2.1% of it.  pipegate prints the
bound at each row's own P_M, tau_V * (R_M/P_M) * (P_M - pi), which is the
break-even budget; the two differ in the sign of P_M - R_M.  CodeJIT RGCN
has P_M 0.725 against R_M 0.800, so its printed row sits about 10% below
the published one (median, q75 and mean at 11.3%, 10.0% and 10.1%), and
the published cells overrun the baseline time.  Criterion 3 asserts that
gap through ``bounds.evaluate``; ``pipegate reproduce`` reports it as its 3
failing cells.  Rounding of the published P, R and FPR cannot close it.
"""

import json
import time

import numpy as np
import pytest

from pipegate import bounds as bnd
from pipegate import catalog as cat
from pipegate import metrics as met
from pipegate import simulate as sim
from pipegate.cli import main
from reference import counts_from_rates, swap_labels

PI_PLANNING = 0.38
SEED = 42


def report(number: int, description: str, ok: bool) -> None:
    print(f"\nACCEPTANCE criterion {number} ({description}): {'PASS' if ok else 'FAIL'}")


def timed(limit_seconds: float):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.elapsed < limit_seconds, (
                    f"runtime {self.elapsed:.2f}s exceeds {limit_seconds}s budget"
                )
            return False

    return _Timer()


def test_criterion_1_bayes_fpr_reproduction():
    expected = {
        "LineVul": 0.002,
        "LineVD": 0.09,
        "IVDetect on ReVeal": 0.08,
        "VulDeePecker on ReVeal": 0.11,
        "CodeJIT RGCN": 0.20,
    }
    with timed(1.0):
        catalog = cat.builtin_catalog()
        errors = {}
        for name, published in expected.items():
            rec = catalog.lookup(name)
            computed = met.bayes_fpr(rec.precision, rec.recall, rec.eval_prevalence)
            errors[name] = abs(computed - published)
        ok = all(err <= 0.005 for err in errors.values())
    report(1, "starred FPRs within 0.005", ok)
    assert ok, errors


def test_criterion_2_fixed_model_reproduction():
    with timed(1.0):
        catalog = cat.builtin_catalog()
        results = {}
        for name, published_min, tol_ratio_pp in (
            ("VulDeePecker", 4.56, 0.0005),
            ("VulDeePecker on ReVeal", 5.07, 0.01),
        ):
            rec = catalog.lookup(name)
            p_m, r_m, _ = met.invert_detector(rec.precision, rec.recall, rec.fpr)
            floor = bnd.min_validator_time(156.0, r_m, p_m, PI_PLANNING)
            results[f"{name} minutes"] = (floor / 60, published_min)
            results[f"{name} ratio"] = (bnd.min_extra_ratio(r_m), tol_ratio_pp)

        vdp_min, _ = results["VulDeePecker minutes"]
        rev_min, _ = results["VulDeePecker on ReVeal minutes"]
        checks = [
            abs(vdp_min - 4.56) / 4.56 <= 0.03,
            abs(results["VulDeePecker ratio"][0] - 0.0526) <= 0.0005,
            abs(rev_min - 5.07) / 5.07 <= 0.03,
            abs(results["VulDeePecker on ReVeal ratio"][0] - 0.121) <= 0.01,
        ]
        ok = all(checks)
    report(2, "fixed-screener planning figures", ok)
    assert ok, results


def _verdict_at(p_m: float, r_m: float, tau_v: float, tau_m: float) -> tuple[str, str | None]:
    """Convenience check of screener (P_M, R_M) at latency tau_m, minimum extra volume."""
    return bnd.evaluate(PI_PLANNING, 1.0, 1.0, r_m, p_m, tau_m, tau_v, bnd.min_extra_ratio(r_m))


def test_criterion_3_time_limit_grid():
    with timed(1.0):
        catalog = cat.builtin_catalog()
        benchmark = cat.builtin_benchmark()
        out_of_tolerance = []
        off_boundary = []
        for record in catalog.models:
            p_m, r_m, _ = met.invert_detector(record.precision, record.recall, record.fpr)
            for stat, tau_v in benchmark.as_columns().items():
                # the published cells are the relaxed bound at P_M = R_M
                as_published, _ = bnd.max_model_time(tau_v, r_m, r_m, PI_PLANNING)
                published = cat.PUBLISHED_TIME_LIMITS[record.name][stat]
                rel = abs(as_published - published) / published
                if rel > 0.05:
                    out_of_tolerance.append(
                        (record.name, stat, published, as_published, rel)
                    )
                # the bound at the row's own P_M is the break-even budget
                printed, _ = bnd.max_model_time(tau_v, r_m, p_m, PI_PLANNING)
                verdict, _ = _verdict_at(p_m, r_m, tau_v, printed)
                if verdict != bnd.VERDICT_BOUNDARY:
                    off_boundary.append((record.name, stat, printed, verdict))

        # the gap: CodeJIT RGCN has P_M < R_M, so its published cells are
        # above the break-even budget and overrun the baseline time
        rgcn = catalog.lookup("CodeJIT RGCN")
        rgcn_p_m, rgcn_r_m, _ = met.invert_detector(rgcn.precision, rgcn.recall, rgcn.fpr)
        gap_not_shown = []
        for stat, tau_v in benchmark.as_columns().items():
            published = cat.PUBLISHED_TIME_LIMITS["CodeJIT RGCN"][stat]
            verdict, binding = _verdict_at(rgcn_p_m, rgcn_r_m, tau_v, published)
            if (verdict, binding) != (bnd.VERDICT_NOT_CONVENIENT, "time"):
                gap_not_shown.append((stat, published, verdict, binding))
        ok = not (out_of_tolerance or off_boundary or gap_not_shown)
    report(3, "28-cell grid within 5% at P_M = R_M; printed bound is break-even", ok)
    assert ok, (out_of_tolerance, off_boundary, gap_not_shown)


def test_criterion_4_boundary_identity_property():
    rng = np.random.default_rng(123)
    with timed(5.0):
        worst_tp = worst_time = 0.0
        negative = []
        for _ in range(1000):
            pi = rng.uniform(0.02, 0.95)
            r_m = rng.uniform(0.05, 1.0)
            p_m = rng.uniform(pi + 0.005, 1.0)
            r_v = rng.uniform(0.05, 1.0)
            tau_v = rng.uniform(0.01, 5000.0)
            n = rng.uniform(1.0, 1e7)
            dn = bnd.min_extra_ratio(r_m)
            _, tau_m = bnd.max_model_time(tau_v, r_m, p_m, pi, dn)
            if tau_m < 0:  # P_M > pi leaves a positive budget at the minimum extra volume
                negative.append((pi, r_m, p_m, tau_m))
                continue
            fig = bnd.expected_figures(pi, n, n * (1.0 + dn), r_v, r_m, (r_m / p_m) * pi,
                                       tau_m, tau_v)
            worst_tp = max(
                worst_tp, abs(fig["augmented_tp"] - fig["baseline_tp"]) / fig["baseline_tp"]
            )
            worst_time = max(
                worst_time,
                abs(fig["augmented_time"] - fig["baseline_time"]) / fig["baseline_time"],
            )
        ok = not negative and worst_tp <= 1e-9 and worst_time <= 1e-9
    report(4, "boundary identity over 1000 configs", ok)
    assert ok, (negative[:5], worst_tp, worst_time)


def test_criterion_5_oracle_equivalence():
    n, trials, tau_v = 100_000, 100, 27.04
    with timed(60.0):
        catalog = cat.builtin_catalog()
        mismatches = []
        verdict_checks = 0
        for record in catalog.models:
            _, r_m, f_m = met.invert_detector(record.precision, record.recall, record.fpr)
            tau_m = record.latency if record.latency is not None else 0.0
            # dn strictly above the throughput boundary so the TP margin is
            # resolvable and the verdict comparison is meaningful
            dn_ratio = bnd.min_extra_ratio(r_m) + 0.05
            dn = int(round(n * dn_ratio))
            cfg = sim.SimConfig(
                pi=PI_PLANNING,
                n=n,
                delta_n=dn,
                tpr_m=r_m,
                fpr_m=f_m,
                tau_m=tau_m,
                tau_v=tau_v,
                trials=trials,
                seed=SEED,
            )
            stats, empirical, _ = sim.compare(cfg)
            m = cfg.n_total
            rate = PI_PLANNING * r_m + (1 - PI_PLANNING) * f_m
            expected = {
                "baseline_tp": PI_PLANNING * n,
                "augmented_tp": r_m * PI_PLANNING * m,
                "baseline_time": n * tau_v,
                "augmented_time": tau_m * m + tau_v * rate * m,
                "survivors": rate * m,
            }
            # the CLI's expectations must be the same as this hand-written reference
            model = {k: s.mean for k, s in sim.expected_outcome(cfg).items()}
            assert model == pytest.approx(expected, rel=1e-12)
            for key, value in expected.items():
                stat = stats[key]
                delta = abs(stat.mean - value)
                if not (delta <= 3 * stat.se or delta == 0.0):
                    mismatches.append((record.name, key, stat.mean, value, stat.se))

            # analytic verdict via the prevalence-consistent closed forms
            p_cons = met.precision_at_prevalence(r_m, f_m, PI_PLANNING)
            analytic, _ = bnd.evaluate(PI_PLANNING, float(n), 1.0, r_m, p_cons, tau_m,
                                       tau_v, dn / n)
            # its margins are the reference figures: (R_M/P_cons)*pi is the pass rate
            tp_margin = abs(expected["augmented_tp"] - expected["baseline_tp"])
            tp_band = 3 * np.hypot(stats["augmented_tp"].se, stats["baseline_tp"].se)
            time_margin = abs(expected["augmented_time"] - expected["baseline_time"])
            time_band = 3 * np.hypot(stats["augmented_time"].se, stats["baseline_time"].se)
            if tp_margin > tp_band and time_margin > time_band:
                verdict_checks += 1
                if analytic != empirical:
                    mismatches.append(
                        (record.name, "verdict", empirical, analytic, None)
                    )
        ok = not mismatches and verdict_checks > 0
    report(5, f"Monte Carlo vs closed forms, {verdict_checks} resolvable verdicts", ok)
    assert ok, mismatches


def test_criterion_6_inversion_bruteforce_equivalence():
    rng = np.random.default_rng(321)
    with timed(5.0):
        worst = 0.0
        for _ in range(10_000):
            pi = rng.uniform(0.01, 0.99)
            r = rng.uniform(0.01, 0.99)
            far = rng.uniform(0.01, 0.99)
            implied_p = met.precision_at_prevalence(r, far, pi)
            formula = met.invert_detector_precision(implied_p, r, far)
            oracle = swap_labels(counts_from_rates(r, far, pi, 1000.0)).precision
            worst = max(worst, abs(formula - oracle))
        ok = worst <= 1e-12
    report(6, f"10,000 inversion triples, worst gap {worst:.2e}", ok)
    assert ok, worst


def test_criterion_7_cli_simulation_determinism(capsys):
    argv = [
        "simulate", "--model", "VulDeePecker", "--pi", "0.38", "--n", "50000",
        "--delta-ratio", "0.06", "--tau-v", "600", "--trials", "50",
        "--seed", str(SEED), "--format", "json",
    ]
    with timed(30.0):
        outputs = []
        for workers in ("1", "1", "6"):
            code = main(argv + ["--workers", workers])
            out = capsys.readouterr().out
            assert code == 0
            # worker count is echoed in inputs; drop it before comparison
            doc = json.loads(out)
            doc["inputs"].pop("workers")
            outputs.append(json.dumps(doc, sort_keys=True))
        ok = outputs[0] == outputs[1] == outputs[2]
    report(7, "seeded CLI simulation byte-identical across runs and workers", ok)
    assert ok


def test_criterion_8_note_external_claims_not_reproduced():
    # wall-clock viability of real detectors is a property of external
    # systems; it is covered here only as the closed-form grid (criterion 3)
    report(8, "external wall-clock claims covered by criterion 3 only", True)
