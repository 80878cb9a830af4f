#!/usr/bin/env python3
"""pipegate benchmark: drive the CLI as a user does and time it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {plan,sim,sim-small,all} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` times whole ``python -m pipegate.cli`` subprocesses, one at a
time (a closed loop with a single client), and reports the end-to-end
metrics.  ``--trace 1`` reports the per-layer metrics: import time from
``-X importtime``, and spans around the calls into each module, taken by
running ``pipegate.cli.main(argv)`` in process over the same ops, traced
and untraced.  Every invocation's output is checked; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the exit code is 1 if any check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckError, check
from tracing import Tracer, self_times
from workloads import SIM_SIZES, WORKLOADS, nproc, ops, sim_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = "perfbench/.work"
DIGESTS = HERE / "digests.json"
PIPEGATE = (sys.executable, "-m", "pipegate.cli")

SETUP_REPEATS = 5  # fresh interpreters for setup_s, before and again after the timed loop
IMPORT_REPEATS = 7  # per import-layer figure in the traced run
MIN_SAMPLES = 11  # so that wall_tail_s has 10 samples beyond it
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_p50_s": "s",
    "wall_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.interpreter_ms": "ms",
    "import.numpy_ms": "ms",
    "import.pipegate_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.render_ms": "ms",
    "cli.self_ms": "ms",
    "catalog.builtin.calls": "count",
    "catalog.builtin_ms": "ms",
    "catalog.load.calls": "count",
    "catalog.load_ms": "ms",
    "metrics.calls": "count",
    "metrics.busy_ms": "ms",
    "bounds.calls": "count",
    "bounds.busy_ms": "ms",
    "simulate.run_baseline.calls": "count",
    "simulate.run_augmented.calls": "count",
    "simulate.useful_run_ratio": "ratio",
    "simulate.run_baseline_ms": "ms",
    "simulate.run_augmented_ms": "ms",
    "simulate.probe_ms": "ms",
    "simulate.variates_per_op": "count",
    "simulate.bytes_per_op": "bytes",
    "simulate.cpu_util": "ratio",
    "simulate.scaling_eff": "ratio",
    "trace.overhead_ratio": "ratio",
}


def child_env(extra=()) -> dict:
    env = dict(os.environ)
    env.pop("PIPEGATE_CATALOG", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(argv, env) -> tuple[int, str, str, float, float]:
    """Run one child to its exit: (exit code, stdout, stderr, wall s, CPU s).

    CPU is the child's user+sys time, read as the change in this process's
    RUSAGE_CHILDREN around it; children run one at a time.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True, encoding="utf-8")
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S} s"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return proc.returncode, out, err, wall, cpu


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value: float, unit: str, samples: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "samples": samples, "note": note}


# --- machine facts -------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cache_bytes() -> dict[int, int]:
    """Size of the largest data/unified cache at each level, from sysfs."""
    sizes: dict[int, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(f"{index}/type") == "Instruction":
            continue
        level, size = _read(f"{index}/level"), _read(f"{index}/size")
        if level.isdigit() and size[:-1].isdigit():
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            sizes[int(level)] = max(sizes.get(int(level), 0), int(size[:-1]) * scale)
    return sizes


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat; zeros if unreadable."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:]
    ticks = [int(f) for f in fields if f.isdigit()]
    return (ticks[7], sum(ticks[:8])) if len(ticks) >= 8 else (0, 0)


def machine_facts(workload: str) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")), platform.machine())
    caches = _cache_bytes()
    facts = {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "l2_bytes": caches.get(2, 0),
        "llc_bytes": caches[max(caches)] if caches else 0,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }
    if workload in SIM_SIZES:
        # Computed, not measured: one trial of run_augmented holds three
        # float64 variate arrays and three boolean masks of n*(1+0.06) items.
        n = int(SIM_SIZES[workload][1])
        facts["per_trial_bytes_computed"] = 27 * (n + round(n * 0.06))
        if facts["l2_bytes"]:
            facts["per_trial_bytes_over_l2"] = facts["per_trial_bytes_computed"] / facts["l2_bytes"]
    return facts


# --- end-to-end run --------------------------------------------------------------

def check_import() -> None:
    """Warm-up child: pipegate must import from this checkout's src/."""
    probe = "import pipegate.cli; print(pipegate.cli.__file__)"
    code, out, err, _, _ = spawn([sys.executable, "-c", probe], child_env())
    if code != 0 or Path(out.strip()).resolve() != SRC / "pipegate" / "cli.py":
        sys.exit(f"perfbench: pipegate.cli did not import from {SRC}: {err.strip()[-300:]}")


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing pipegate.cli."""
    return [spawn([sys.executable, "-c", "import pipegate.cli"], child_env())[3]
            for _ in range(SETUP_REPEATS)]


def end_to_end(workload: str, stream, seconds: float, digests: dict, problems: list) -> tuple[dict, int]:
    check_import()
    # Half the set-up samples before and half after the timed loop, so
    # that they see the same machine as the ops do.
    setup = measure_setup()
    walls, cpus = [], []
    first = next(stream)
    op = first
    start = time.perf_counter()
    while True:
        code, out, err, wall, cpu = spawn([*PIPEGATE, *op.argv], child_env(op.env))
        walls.append(wall)
        cpus.append(cpu)
        try:
            check(op, code, out, err, digests)
        except CheckError as exc:
            problems.append(f"{list(op.argv)}: {exc}")
        if time.perf_counter() - start >= seconds and len(walls) >= MIN_SAMPLES:
            break
        op = next(stream)
    elapsed = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup += measure_setup()
    attempted = len(walls)

    if workload in SIM_SIZES:
        # Seeded-output contract, outside the timed loop: the same argv at
        # one worker must give the stored results, as every timed run did.
        single = sim_op(first.argv[: first.argv.index("--workers")], 1)
        code, out, err, _, _ = spawn([*PIPEGATE, *single.argv], child_env())
        attempted += 1
        try:
            check(single, code, out, err, digests)
        except CheckError as exc:
            problems.append(f"{list(single.argv)} (workers=1 contract): {exc}")

    tail_value, tail_pct = tail(walls)
    n = len(walls)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup), "median"),
        "wall_p50_s": metric(statistics.median(walls), "s", n, "median"),
        "wall_tail_s": metric(tail_value, "s", n, f"p{tail_pct:.1f}"),
        "ops_per_s": metric(n / elapsed, "1/s", n, f"over {elapsed:.2f} s"),
        "cpu_per_op_s": metric(sum(cpus) / n, "s", n, "child user+sys, mean"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB", n, "largest child max-RSS"),
        "fail_ratio": metric(len(problems) / attempted, "ratio", attempted,
                             "reported as failed/attempted"),
    }
    return metrics, attempted


# --- traced run ------------------------------------------------------------------

def import_layer() -> dict:
    """Interpreter start-up and the -X importtime split of `import pipegate.cli`."""
    interpreter = [spawn([sys.executable, "-c", "pass"], child_env())[3]
                   for _ in range(IMPORT_REPEATS)]
    numpy_ms, pipegate_ms = [], []
    for _ in range(IMPORT_REPEATS):
        code, _, err, _, _ = spawn(
            [sys.executable, "-X", "importtime", "-c", "import pipegate.cli"], child_env())
        numpy_us = package_us = 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|", 2)
            if not cumulative.strip().isdigit():
                continue  # the header line
            name = name[1:]  # nesting is shown by two spaces per level
            if name.strip() == "numpy":
                numpy_us = int(cumulative)
            if name == name.lstrip() and name.split(".")[0] == "pipegate":
                package_us += int(cumulative)
        if code != 0 or not numpy_us or not package_us:
            sys.exit(f"perfbench: -X importtime gave no numpy/pipegate figures: {err[-300:]}")
        numpy_ms.append(numpy_us / 1e3)
        pipegate_ms.append((package_us - numpy_us) / 1e3)
    n = IMPORT_REPEATS
    return {
        "import.interpreter_ms": metric(statistics.median(interpreter) * 1e3, "ms", n,
                                        "median wall of `python -c pass`"),
        "import.numpy_ms": metric(statistics.median(numpy_ms), "ms", n, "median, -X importtime"),
        "import.pipegate_ms": metric(statistics.median(pipegate_ms), "ms", n,
                                     "median, -X importtime, pipegate minus numpy"),
    }


def _call_main(op, main) -> tuple[int, str, str]:
    """In-process `main(argv)`; an escaping exception becomes exit -1 and a traceback."""
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(op.env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(op.argv))
            except Exception:
                traceback.print_exc()
                code = -1
    finally:
        for key, _ in op.env:
            del os.environ[key]
    return code, out.getvalue(), err.getvalue()


def traced(stream, seconds: float, digests: dict, problems: list, spans_path: Path) -> tuple[dict, int]:
    sys.path.insert(0, str(SRC))
    from pipegate import bounds, catalog, cli, metrics, simulate

    if Path(cli.__file__).resolve() != SRC / "pipegate" / "cli.py":
        sys.exit(f"perfbench: pipegate.cli did not import from {SRC}")
    modules = (catalog, metrics, bounds, simulate)
    tracer = Tracer()
    attempted = 0
    wall = {False: 0.0, True: 0.0}

    def run(op, with_trace: bool) -> None:
        nonlocal attempted
        saved = tracer.install(cli, modules) if with_trace else []
        main = tracer.wrap("cli.main", cli.main) if with_trace else cli.main
        try:
            start = time.perf_counter()
            code, out, err = _call_main(op, main)
            wall[with_trace] += time.perf_counter() - start
        finally:
            tracer.uninstall(saved)
        attempted += 1
        try:
            check(op, code, out, err, digests)
        except CheckError as exc:
            problems.append(f"{list(op.argv)} (in process, traced={with_trace}): {exc}")

    run(next(stream), False)  # warm-up: lazy imports and first-call costs
    wall[False] = 0.0
    sim_ops = n_ops = 0
    start = time.perf_counter()
    while n_ops == 0 or time.perf_counter() - start < seconds:
        op = next(stream)
        tracer.op = n_ops
        for with_trace in ((False, True) if n_ops % 2 == 0 else (True, False)):
            run(op, with_trace)
        n_ops += 1
        sim_ops += op.command == "simulate"
    tracer.write(spans_path)

    spans = tracer.spans
    selfs = self_times(spans)

    def per_op(names, values=None, ops=n_ops, scale=1e3) -> float:
        pairs = zip(spans, values if values is not None else [s.seconds for s in spans])
        return sum(v for s, v in pairs if s.name in names or s.layer in names) * scale / max(ops, 1)

    def calls(names, ops=n_ops) -> float:
        return per_op(names, [1.0] * len(spans), ops, scale=1)

    aug = [c for c in tracer.sim_calls if c.name == "simulate.run_augmented"]
    distinct = len({(c.op, c.config) for c in aug})
    variates = sum(c.config.trials * (2 * c.config.n if c.name == "simulate.run_baseline"
                                      else 3 * c.config.n_total) for c in tracer.sim_calls)
    workers = nproc()
    scaling = 0.0
    if aug:
        # Best of two, alternating, so that neither worker count runs cold.
        config = aug[0].config
        times = {1: [], workers: []}
        for w in (1, workers, workers, 1):
            t0 = time.perf_counter()
            simulate.run_augmented(config, workers=w)
            times[w].append(time.perf_counter() - t0)
        scaling = min(times[1]) / (workers * min(times[workers]))

    s, so = n_ops, sim_ops
    result = {
        "cli.parse_ms": metric(per_op({"cli.build_parser", "cli.parse_args"}), "ms", s, "per op"),
        "cli.render_ms": metric(per_op({"cli.render"}), "ms", s, "per op"),
        "cli.self_ms": metric(per_op({"cli.main"}, selfs), "ms", s, "self, per op"),
        "catalog.builtin.calls": metric(calls({"catalog.builtin_catalog"}), "count", s, "per op"),
        "catalog.builtin_ms": metric(
            per_op({"catalog.builtin_catalog", "catalog.builtin_benchmark"}, selfs), "ms", s,
            "self, per op"),
        "catalog.load.calls": metric(calls({"catalog.load_catalog"}), "count", s, "per op"),
        "catalog.load_ms": metric(per_op({"catalog.load_catalog"}, selfs), "ms", s, "self, per op"),
        "metrics.calls": metric(calls({"metrics"}), "count", s, "per op"),
        "metrics.busy_ms": metric(per_op({"metrics"}, selfs), "ms", s, "self, per op"),
        "bounds.calls": metric(calls({"bounds"}), "count", s, "per op"),
        "bounds.busy_ms": metric(per_op({"bounds"}, selfs), "ms", s, "self, per op"),
        "simulate.run_baseline.calls": metric(
            calls({"simulate.run_baseline"}, so), "count", so, "per simulate op"),
        "simulate.run_augmented.calls": metric(
            calls({"simulate.run_augmented"}, so), "count", so, "per simulate op"),
        "simulate.useful_run_ratio": metric(
            distinct / len(aug) if aug else 0.0, "ratio", len(aug),
            "distinct configs / run_augmented calls, per op"),
        "simulate.run_baseline_ms": metric(
            per_op({"simulate.run_baseline"}, ops=so), "ms", so, "per simulate op"),
        "simulate.run_augmented_ms": metric(
            per_op({"simulate.run_augmented"}, ops=so), "ms", so, "per simulate op"),
        "simulate.probe_ms": metric(
            per_op({"simulate.survivor_precision_probe"}, ops=so), "ms", so,
            "per simulate op, with its run_augmented"),
        "simulate.variates_per_op": metric(
            variates / max(so, 1), "count", so, "computed from the configs run"),
        "simulate.bytes_per_op": metric(
            8 * variates / max(so, 1), "bytes", so, "computed: float64 variates drawn"),
        "simulate.cpu_util": metric(
            sum(c.cpu for c in aug) / sum(c.wall * c.workers for c in aug) if aug else 0.0,
            "ratio", len(aug), "process CPU / (wall x workers) in run_augmented"),
        "simulate.scaling_eff": metric(
            scaling, "ratio", 1 if aug else 0, f"t(workers=1) / ({workers} x t(workers={workers}))"),
        "trace.overhead_ratio": metric(wall[True] / wall[False], "ratio", s,
                                       "traced / untraced in-process wall"),
    }
    return result, attempted


# --- entry point -------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    workdir = f"{WORK}/{workload}-seed{seed}"
    problems: list[str] = []
    steal0, total0 = cpu_ticks()
    try:
        stream = ops(workload, seed, ROOT, workdir)
        if trace:
            (ROOT / WORK).mkdir(parents=True, exist_ok=True)
            spans_path = ROOT / WORK / f"spans-{workload}.jsonl"
            metrics = import_layer()
            layer_metrics, attempted = traced(stream, seconds, digests, problems, spans_path)
            metrics.update(layer_metrics)
        else:
            metrics, attempted = end_to_end(workload, stream, seconds, digests, problems)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    machine = machine_facts(workload)
    # Share of CPU time the hypervisor gave to other guests during the run;
    # on a shared VM it moves every timing from run to run.
    machine["steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine, "metrics": metrics,
        "attempted": attempted, "problems": problems,
    }
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    out = ROOT / WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print(f"{'metric':32} {'value':>14} {'unit':6} {'samples':>7}  note")
    for name, m in result["metrics"].items():
        print(f"{name:32} {m['value']:>14.6g} {m['unit']:6} {m['samples']:>7}  {m['note']}")
    for problem in result["problems"][:10]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pipegate" / "cli.py").is_file():
        sys.exit(f"perfbench: no pipegate source under {SRC}; run from a repository checkout")
    os.chdir(ROOT)
    os.environ.pop("PIPEGATE_CATALOG", None)

    declared = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        prefix = f"{workload}." if args.workload == "all" else ""
        line["correct"] = line["correct"] and not result["problems"]
        line["attempted"] += result["attempted"]
        line["failed"] += len(result["problems"])
        for name, unit in declared.items():
            value = result["metrics"][name]["value"]
            line["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
