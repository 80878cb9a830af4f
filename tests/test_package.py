"""Package surface: what a bare import loads and what each module exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_bare_import_loads_no_submodule_and_no_numpy():
    # a fresh interpreter: this process has long since imported everything
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, pipegate; print(pipegate.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
        "or m.startswith('pipegate.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    origin, loaded = done.stdout.splitlines()
    assert Path(origin).resolve().parent == SRC / "pipegate"
    assert loaded == "[]"


# each module's public surface, pinned so that adding or dropping a name is a visible change
PUBLIC = {
    "metrics": ["MetricsError", "ClassifierSpec", "EPS_CONSISTENCY", "bayes_fpr",
                "invert_detector_precision", "pass_rate", "precision_at_prevalence",
                "invert_detector"],
    "bounds": ["PipelineConfig", "ModelTimeBudget", "BoundsReport", "VERDICT_CONVENIENT",
               "VERDICT_NOT_CONVENIENT", "VERDICT_BOUNDARY", "min_extra_ratio",
               "max_model_time", "min_validator_time", "evaluate"],
    "catalog": ["CatalogError", "UnknownModelError", "FPR_REPORTED", "FPR_BAYES",
                "LATENCY_REPORTED", "LATENCY_LOWER_BOUND", "LATENCY_UNKNOWN", "ModelRecord",
                "BenchmarkTimes", "Catalog", "builtin_catalog", "builtin_benchmark",
                "load_catalog", "PUBLISHED_TIME_LIMITS", "PUBLISHED_PLANNING"],
    "simulate": ["SimConfig", "Stat", "SimOutcome", "run_baseline", "run_augmented", "compare",
                 "expected_outcome", "VERDICT_INCONCLUSIVE", "NOTHING_SURVIVES"],
    "cli": ["main", "OutputRecord"],
}


@pytest.mark.parametrize("name", list(PUBLIC))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pipegate.{name}")
    assert module.__all__ == PUBLIC[name]
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
