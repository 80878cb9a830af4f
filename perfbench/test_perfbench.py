"""Tests of the benchmark itself: its workload generator and its checker.

    python3 -m pytest perfbench -q      (or: python3 -m unittest discover perfbench)
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import CheckError, check, results_digest  # noqa: E402
from run import DIGESTS, END_TO_END, PER_LAYER, tail  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import MODELS, WORKLOADS, Op, ops, sim_op, sim_pool  # noqa: E402


def take(workload: str, seed: int, root: Path, count: int = 300) -> list[Op]:
    return list(itertools.islice(ops(workload, seed, root, "work"), count))


def run_in_process(op: Op) -> tuple[int, str, str]:
    from pipegate import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_ops_and_catalog_bytes(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for workload in WORKLOADS:
                self.assertEqual(take(workload, 7, Path(a)), take(workload, 7, Path(b)))
            files = sorted(p.name for p in Path(a, "work").iterdir())
            self.assertTrue(files)
            for name in files:
                self.assertEqual(Path(a, "work", name).read_bytes(), Path(b, "work", name).read_bytes())
            self.assertNotEqual(take("plan", 7, Path(a)), take("plan", 8, Path(a)))

    def test_plan_mix(self):
        with tempfile.TemporaryDirectory() as root:
            plan = take("plan", 3, Path(root), 3000)
        commands = Counter(op.command for op in plan)
        self.assertEqual(set(commands), {"invert", "bounds", "limits", "reproduce"})
        self.assertEqual({op.format for op in plan}, {"table", "csv", "json", "xml"})
        self.assertTrue(set(MODELS) <= {op.argv[2] for op in plan if op.command == "invert"})
        invalid = sum(op.expect_exit >= 2 for op in plan) / len(plan)
        catalog = sum(bool(op.env) or "--catalog" in op.argv for op in plan) / len(plan)
        self.assertAlmostEqual(invalid, 0.1, delta=0.02)
        self.assertAlmostEqual(catalog, 1 / 3, delta=0.05)

    def test_every_sim_argv_has_a_stored_digest(self):
        digests = json.loads(DIGESTS.read_text())
        keys = {sim_op(argv, 1).digest_key for w in ("sim", "sim-small") for argv in sim_pool(w)}
        self.assertEqual(keys, set(digests))


class CheckerTests(unittest.TestCase):
    def ok(self, op: Op, digests=None) -> tuple[int, str, str]:
        code, out, err = run_in_process(op)
        check(op, code, out, err, digests or {})
        return code, out, err

    def test_real_outputs_pass(self):
        for fmt in ("json", "csv", "table"):
            self.ok(Op(("reproduce", "--format", fmt), expect_exit=1))
            self.ok(Op(("limits", "--format", fmt)))
            self.ok(Op(("bounds", "--model", "LineVD", "--pi", "0.3", "--tau-v", "60", "--format", fmt)))
        self.ok(Op(("invert", "--model", "nope"), expect_exit=2))

    def test_non_finite_json_fails(self):
        op = Op(("invert", "--model", "LineVul", "--format", "json"))
        code, out, err = self.ok(op)
        doc = json.loads(out)
        doc["results"]["screener_fpr"]["value"] = float("nan")
        with self.assertRaisesRegex(CheckError, "non-finite"):
            check(op, code, json.dumps(doc) + "\n", err, {})
        with self.assertRaisesRegex(CheckError, "non-finite"):
            check(Op(("limits", "--format", "csv")), 0, "model,q25\nLineVul,nan\n", "", {})

    def test_wrong_exit_code_fails(self):
        op = Op(("reproduce", "--format", "json"), expect_exit=1)
        code, out, err = self.ok(op)
        with self.assertRaisesRegex(CheckError, "exit code 0"):
            check(op, 0, out, err, {})
        with self.assertRaisesRegex(CheckError, "exit code 3"):
            check(Op(("invert", "--model", "x"), expect_exit=2), 3, "", "error: x\n", {})

    def test_error_must_be_one_line(self):
        op = Op(("invert", "--model", "x"), expect_exit=2)
        with self.assertRaisesRegex(CheckError, "one 'error:' line"):
            check(op, 2, "", "Traceback (most recent call last):\nKeyError\n", {})

    def test_reproduce_must_fail_exactly_the_three_cells(self):
        op = Op(("reproduce", "--format", "json"), expect_exit=1)
        code, out, err = self.ok(op)
        doc = json.loads(out)
        doc["table"]["rows"][0][-1] = "FAIL"
        with self.assertRaisesRegex(CheckError, "reproduce failures"):
            check(op, code, json.dumps(doc) + "\n", err, {})

    def test_simulate_digest_mismatch_fails(self):
        op = sim_op(("simulate", "--model", "LineVD", "--pi", "0.3", "--n", "200",
                     "--trials", "20", "--tau-v", "60", "--seed", "5"), 1)
        code, out, err = run_in_process(op)
        digest = results_digest(json.loads(out)["results"])
        check(op, code, out, err, {op.digest_key: digest})
        with self.assertRaisesRegex(CheckError, "digest"):
            check(op, code, out, err, {op.digest_key: "0" * 64})
        doc = json.loads(out)
        doc["results"]["analytic_agreement"] = False
        with self.assertRaisesRegex(CheckError, "analytic_agreement"):
            check(op, code, json.dumps(doc) + "\n", err, {op.digest_key: digest})


class DeclarationTests(unittest.TestCase):
    def test_benchmark_json_declares_what_run_reports(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in doc["workloads"]), WORKLOADS)


class StatisticsTests(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(tail([float(i) for i in range(100)]), (89.0, 90.0))
        self.assertEqual(tail([float(i) for i in range(20)]), (9.0, 50.0))

    def test_self_time_subtracts_children(self):
        spans = [Span("cli.main", 0.0, 10.0, -1, 0), Span("catalog.x", 1.0, 3.0, 0, 0),
                 Span("metrics.y", 4.0, 5.0, 0, 0), Span("metrics.z", 4.25, 4.75, 2, 0)]
        self.assertEqual(self_times(spans), [7.0, 2.0, 0.5, 0.5])


if __name__ == "__main__":
    unittest.main()
