"""Package surface: what a bare import loads and what each module exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_import(statement: str, blas_threads: str | None = None) -> list[str]:
    """stdout lines of ``statement`` run in a fresh interpreter on this tree's src.

    ``OPENBLAS_NUM_THREADS`` is unset in that interpreter unless ``blas_threads`` is given.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run(
        [sys.executable, "-c", statement], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_bare_import_loads_no_submodule_and_no_numpy():
    # a fresh interpreter: this process has long since imported everything
    loaded = (
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
        "or m.startswith('pipegate.')))"
    )
    origin, modules = _fresh_import(f"import sys, pipegate; print(pipegate.__file__); {loaded}")
    assert Path(origin).resolve().parent == SRC / "pipegate"
    assert modules == "[]"
    # the closed-form model and the catalog stay numpy-free: only simulate needs it
    (modules,) = _fresh_import(
        f"import sys, pipegate.bounds, pipegate.metrics, pipegate.catalog; {loaded}"
    )
    assert modules == "['pipegate.bounds', 'pipegate.catalog', 'pipegate.metrics']"


def test_cli_import_loads_numpy_but_no_thread_pool_and_leaves_environ_alone():
    # numpy still loads eagerly: the benchmark's traced run (perfbench/run.py
    # import_layer) requires it until ROADMAP item 2(b) lands; item 6 flips this
    probe = (
        "import os, sys, pipegate.cli; print('numpy' in sys.modules, "
        "'concurrent.futures' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert _fresh_import(probe) == ["True False False"]


def test_threaded_simulate_loads_no_thread_pool_module():
    # worker threads are plain threading.Thread, a module numpy has already loaded
    probe = (
        "import sys; from pipegate import simulate; simulate._usable_cpus = lambda: 2; "
        "simulate.compare(simulate.SimConfig(pi=0.38, n=9000, delta_n=0, tpr_m=0.9, "
        "fpr_m=0.1, tau_m=1.0, tau_v=10.0, trials=2), workers=2); "
        "print('concurrent.futures' in sys.modules)"
    )
    assert _fresh_import(probe) == ["False"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.parametrize("blas_threads, threads", [(None, 1), ("2", 2)])
def test_process_holds_one_thread_unless_the_user_sets_openblas_threads(blas_threads, threads):
    # OpenBLAS starts no more threads than CPUs, so a user's 2 needs two of them
    if blas_threads and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU")
    probe = (
        "import os, pipegate.cli; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
    )
    assert _fresh_import(probe, blas_threads) == [f"{blas_threads} {threads}"]


# each module's public surface, pinned so that adding or dropping a name is a visible change
PUBLIC = {
    "metrics": ["MetricsError", "EPS_CONSISTENCY", "bayes_fpr", "consistency_gap",
                "pass_rate", "precision_at_prevalence", "invert_detector"],
    "bounds": ["VERDICT_CONVENIENT", "VERDICT_NOT_CONVENIENT", "VERDICT_BOUNDARY",
               "min_extra_ratio", "max_model_time", "min_validator_time", "expected_figures",
               "evaluate"],
    "catalog": ["CatalogError", "FPR_REPORTED", "FPR_BAYES", "LATENCY_REPORTED",
                "LATENCY_LOWER_BOUND", "LATENCY_UNKNOWN", "ModelRecord", "BenchmarkTimes",
                "Catalog", "builtin_catalog", "builtin_benchmark", "load_catalog",
                "PUBLISHED_CLAIMS"],
    "simulate": ["SimConfig", "Stat", "run_baseline", "run_augmented", "compare",
                 "expected_outcome", "VERDICT_INCONCLUSIVE", "NOTHING_SURVIVES"],
    "cli": ["main"],
}


@pytest.mark.parametrize("name", list(PUBLIC))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pipegate.{name}")
    assert module.__all__ == PUBLIC[name]
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
