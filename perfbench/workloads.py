"""Seeded workload generators for the pipegate benchmark.

A workload is an endless, seed-determined stream of ``Op``: one CLI argv,
the extra environment it runs with, and what a correct run must show.
pipegate only ever sees these argvs, env vars and the catalog files that
``write_catalogs`` generates; nothing here imports pipegate.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

WORKLOADS = ("plan", "sim", "sim-small")
FORMATS = ("table", "csv", "json")

# The seven builtin detector rows, as a catalog file spells them:
# (name, precision, recall, fpr or None, latency or None, latency_kind, prevalence).
# Generated catalogs jitter these, so they stay valid and keep the names.
MODEL_ROWS = (
    ("VulDeePecker", 0.87, 0.84, 0.05, 156.0, "reported", 0.29),
    ("VulDeePecker on ReVeal", 0.11, 0.14, None, 156.0, "reported", 0.09),
    ("IVDetect on ReVeal", 0.39, 0.52, None, 1.5, "lower_bound", 0.09),
    ("LineVul", 0.97, 0.86, None, None, None, 0.06),
    ("LineVD", 0.27, 0.53, None, 1.0, "lower_bound", 0.06),
    ("CodeJIT FastRGCN", 0.77, 0.71, 0.22, 0.75, "lower_bound", 0.5),
    ("CodeJIT RGCN", 0.78, 0.70, None, 1.42, "lower_bound", 0.5),
)
MODELS = tuple(row[0] for row in MODEL_ROWS)
BENCHMARK_TIMES = {"q25": 9.17, "median": 27.04, "q75": 74.5, "mean": 337.83, "prevalence": 0.38}

# Every model's screener precision is >= 0.72 (CodeJIT FastRGCN), also after
# a 2% jitter, so `bounds` always has headroom for pi below this.
MAX_VALID_PI = 0.6

# Simulation sizes: `sim` is the README / CLI-default size, `sim-small`
# makes per-trial fixed cost dominate.
SIM_SIZES = {
    "sim": ("--n", "100000", "--trials", "100"),
    "sim-small": ("--n", "500", "--trials", "5000"),
}
SIM_POOL_SEED = 20250409


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the outcome a correct program gives it."""

    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    expect_exit: int = 0
    digest_key: str | None = None  # key of the stored `simulate` results digest

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def format(self) -> str:  # every generated op passes --format
        return self.argv[self.argv.index("--format") + 1]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * (1.0 + rng.uniform(-0.02, 0.02)), 5)


def catalog_doc(rng: random.Random) -> dict:
    """A valid catalog: the seven rows and the benchmark, each number jittered by <= 2%."""
    models = []
    for name, p, r, fpr, latency, kind, prevalence in MODEL_ROWS:
        row = {
            "name": name,
            "source": "generated",
            "precision": _jitter(rng, p),
            "recall": _jitter(rng, r),
            "prevalence": _jitter(rng, prevalence),
        }
        if fpr is not None:
            row["fpr"] = _jitter(rng, fpr)
        if latency is not None:
            row["latency_seconds"] = _jitter(rng, latency)
            row["latency_kind"] = kind
        models.append(row)
    bench = {k: _jitter(rng, v) for k, v in BENCHMARK_TIMES.items()}
    return {"models": models, "benchmark": bench}


@dataclass(frozen=True)
class Catalogs:
    valid: tuple[str, ...]  # paths relative to the checkout root
    broken: str  # not JSON
    no_benchmark: str  # valid models, no `benchmark` section


def write_catalogs(seed: int, root: Path, workdir: str) -> Catalogs:
    """Write the catalog files one plan run uses; same seed, same bytes."""
    rng = random.Random(seed)
    (root / workdir).mkdir(parents=True, exist_ok=True)

    def put(name: str, text: str) -> str:
        rel = f"{workdir}/{name}"
        (root / rel).write_text(text, encoding="utf-8")
        return rel

    valid = tuple(
        put(f"catalog-{i}.json", json.dumps(catalog_doc(rng), indent=1)) for i in range(3)
    )
    no_bench = catalog_doc(rng)
    del no_bench["benchmark"]
    return Catalogs(
        valid=valid,
        broken=put("broken.json", '{"models": [{"name": "x", "precision": 0.5,'),
        no_benchmark=put("no-benchmark.json", json.dumps(no_bench)),
    )


def _pi(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, MAX_VALID_PI):.4f}"


def _invalid_op(rng: random.Random, cats: Catalogs, fmt: tuple[str, ...]) -> Op:
    model = rng.choice(MODELS)
    kind = rng.randrange(6)
    if kind == 0:
        return Op(("invert", "--model", f"no-such-model-{rng.randrange(1000)}", *fmt), expect_exit=2)
    if kind == 1:
        return Op(("invert", "--model", model, "--pi", f"{rng.uniform(1.01, 3):.3f}", *fmt), expect_exit=3)
    if kind == 2:
        pi = f"{rng.uniform(0.8, 0.95):.3f}"
        name = rng.choice(("CodeJIT RGCN", "CodeJIT FastRGCN"))
        return Op(("bounds", "--model", name, "--pi", pi, "--tau-v", "30", *fmt), expect_exit=3)
    if kind == 3:
        return Op(("invert", "--model", model, "--catalog", cats.broken, *fmt), expect_exit=3)
    if kind == 4:
        return Op(("limits", "--benchmark", cats.no_benchmark, *fmt), expect_exit=3)
    return Op(("invert", "--model", model, "--format", "xml"), expect_exit=3)


def _plan_op(rng: random.Random, cats: Catalogs) -> Op:
    fmt = ("--format", rng.choice(FORMATS))
    r = rng.random()
    if r < 0.1:
        return _invalid_op(rng, cats, fmt)
    if r < 0.2:
        # Exit 1: the three CodeJIT RGCN cells of the published grid miss.
        return Op(("reproduce", *fmt), expect_exit=1)
    model = rng.choice(MODELS)
    if r < 0.45:
        argv = ["invert", "--model", model]
        if rng.random() < 0.5:
            argv += ["--pi", _pi(rng)]
    elif r < 0.75:
        argv = ["bounds", "--model", model, "--pi", _pi(rng)]
        if rng.random() < 0.8:
            argv += ["--tau-v", f"{rng.uniform(5, 700):.2f}"]
            if rng.random() < 0.5:
                argv += ["--delta-ratio", f"{rng.uniform(0.0, 0.2):.4f}"]
        if rng.random() < 0.5 or "--tau-v" not in argv:
            argv += ["--tau-m", f"{rng.uniform(0.1, 5):.3f}"]
    else:
        argv = ["limits"]
        if rng.random() < 0.5:
            argv += ["--pi", _pi(rng)]
        if rng.random() < 0.3:
            argv += ["--benchmark", rng.choice(cats.valid)]
    env: tuple[tuple[str, str], ...] = ()
    if rng.random() < 0.42:  # with r >= 0.2 above, about a third of all ops
        path = rng.choice(cats.valid)
        if rng.random() < 0.5:
            argv += ["--catalog", path]
        else:
            env = (("PIPEGATE_CATALOG", path),)
    return Op((*argv, *fmt), env=env)


def sim_pool(workload: str) -> list[tuple[str, ...]]:
    """The fixed `simulate` argvs of a sim workload, two per model.

    Fixed, not drawn from the run seed, so that each one's results digest
    can be stored; the run seed picks their order.
    """
    rng = random.Random(SIM_POOL_SEED)
    pool = []
    for model in MODELS:
        for _ in range(2):
            argv = ["simulate", "--model", model, "--pi", f"{rng.uniform(0.1, 0.6):.3f}",
                    *SIM_SIZES[workload], "--delta-ratio", "0.06",
                    "--tau-v", f"{rng.uniform(5, 700):.1f}", "--seed", str(rng.randrange(2**32))]
            if model == "LineVul":  # no published latency
                argv += ["--tau-m", "1.0"]
            pool.append(tuple(argv))
    return pool


def sim_op(argv: tuple[str, ...], workers: int) -> Op:
    return Op((*argv, "--workers", str(workers), "--format", "json"), digest_key=" ".join(argv))


def ops(workload: str, seed: int, root: Path, workdir: str) -> Iterator[Op]:
    """The endless op stream of one workload run."""
    rng = random.Random(seed)
    if workload == "plan":
        cats = write_catalogs(seed, root, workdir)
        return (_plan_op(rng, cats) for _ in itertools.count())
    pool = sim_pool(workload)
    rng.shuffle(pool)
    workers = nproc()
    return (sim_op(argv, workers) for argv in itertools.cycle(pool))
