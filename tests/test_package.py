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


@pytest.mark.parametrize("name", ["metrics", "bounds", "catalog", "simulate", "cli"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"pipegate.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
