"""Any argv ends cleanly: exit 0-3, strict JSON or one ``error:`` line.

At exit 0 or 1 neither a table nor csv prints a NaN or an infinity.  A
``simulate`` argv that exits 3 after sampling names what only a sample can
reveal; every other invalid input is rejected before the first trial.

Draws argvs over all five subcommands, the three formats and generated
catalog files, with flag values that are valid, zero, negative, huge
(+-1e300, +-1e308), subnormal (1e-320) or not numbers at all.  ``simulate``
always gets ``--n`` <= 50 and ``--trials`` <= 3, apart from counts that are
rejected before anything is allocated (n >= 2**63, n <= 0, or an extra
volume of +-1e300 or +-1e308 times n), so no draw can allocate a large array.
"""

import contextlib
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipegate import simulate as sim
from pipegate.cli import main

BENCHMARK = {"q25": 9.17, "median": 27.04, "q75": 74.5, "mean": 337.83, "prevalence": 0.38}
GEN = {"name": "Gen", "precision": 0.9, "recall": 0.8, "prevalence": 0.3,
       "latency_seconds": 2.0}

# argv names a catalog file as "@<kind>"; "@missing" names no file at all
CATALOGS = {
    "valid": {"models": [GEN], "benchmark": BENCHMARK},
    "no-benchmark": {"models": [GEN]},
    "perfect-precision": {"models": [dict(GEN, precision=1.0),
                                     dict(GEN, name="Gen 2", precision=1.0, fpr=0.1)]},
    "zero-recall": {"models": [dict(GEN, recall=0.0, fpr=0.1)], "benchmark": BENCHMARK},
    "fpr-one": {"models": [dict(GEN, fpr=1.0)], "benchmark": BENCHMARK},
    "huge-latency": {"models": [dict(GEN, latency_seconds=1e300)],
                     "benchmark": dict(BENCHMARK, q75=1e300, mean=1e300)},
    "subnormal-benchmark": {"models": [GEN],
                            "benchmark": dict(BENCHMARK, q25=1e-320, median=1e-320)},
    "non-finite": {"models": [dict(GEN, latency_seconds=float("nan"))],
                   "benchmark": dict(BENCHMARK, mean=float("inf"))},
}

# subcommand -> flag -> (good values, odd values); None leaves the flag out.
# Each argv gives odd values to at most two flags, so most reach deep code.
ODD = [None, "0", "-1", "1e300", "-1e300", "1e308", "-1e308", "1e-320", "abc", ""]
# files that are not JSON documents at all, by their raw bytes
UNPARSEABLE = {"broken": b"{", "binary": b"\xff\xfe", "deeply-nested": b"[" * 100_000}
CATALOG = ([None, "@valid"], [f"@{kind}" for kind in [*CATALOGS, *UNPARSEABLE, "missing"]])
MODEL = (["VulDeePecker", "CodeJIT RGCN", "IVDetect on ReVeal", "@valid"],
         [None, "LineVul", "Gen", "Gen 2", "nope", "@perfect-precision", "@binary",
          "@deeply-nested", "@missing"])
PI = (["0.38", "0.06", "0.9"], ODD)
TAU_V = (["600", "27.04", "1.5"], ODD)
TAU_M = ([None, "156", "1.5", "0.1"], ODD)
RATIO = ([None, "0.06", "0.5", "1"], ODD)
SUBCOMMANDS = {
    "invert": {"model": MODEL, "pi": ([None, "0.38"], ODD), "catalog": CATALOG},
    "bounds": {"model": MODEL, "pi": PI, "tau-v": TAU_V, "tau-m": TAU_M,
               "delta-ratio": RATIO, "catalog": CATALOG},
    "limits": {"pi": ([None, "0.38", "0.06"], ODD), "benchmark": (["builtin", "@valid"],
               CATALOG[1]), "catalog": CATALOG},
    "simulate": {
        "model": MODEL, "tpr-m": ([None, "0.95", "0.5"], ODD), "fpr-m": ([None, "0.16"], ODD),
        "pi": PI, "tau-v": TAU_V, "tau-m": TAU_M, "delta-ratio": RATIO,
        "validator-tpr": ([None, "1", "0.9"], ODD),
        "seed": ([None, "7"], ["-1", str(2**64), "abc"]),
        "workers": ([None, "2"], ["0", "-3", "abc"]),
        "precision-mode": ([None, "prevalence-consistent"], ["bogus"]),
        "catalog": CATALOG,
        # never left out: the defaults are far above the size cap
        "n": (["1", "20", "50"], ["0", "-5", str(2**63), "1" + "0" * 400, "-1" + "0" * 400,
                                  "abc"]),
        "trials": (["2", "3"], ["1", "-1", str(2**63), "abc"]),
    },
    "reproduce": {},
}


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = SUBCOMMANDS[cmd]
    odd = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2)) if flags else set()
    argv = [cmd]
    for name, (good, bad) in flags.items():
        value = draw(st.sampled_from(bad if name in odd else good))
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv + [f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}"]


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalogs")
    paths = {"missing": root / "missing.json"}
    for kind, content in UNPARSEABLE.items():
        paths[kind] = root / f"{kind}.json"
        paths[kind].write_bytes(content)
    for kind, doc in CATALOGS.items():
        paths[kind] = root / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("kind,message", [
    ("fpr-one", "Gen: far_mvd must be < 1, got 1.0"),
    ("zero-recall", "Gen: detector recall must be > 0 when FPR > 0"),
    ("perfect-precision", "Gen 2: inconsistent detector spec: perfect precision with nonzero FPR"),
], ids=["fpr-one", "zero-recall", "perfect-precision"])
@pytest.mark.parametrize("argv", [
    ["invert", "--model={}"],
    ["bounds", "--model={}", "--pi=0.38", "--tau-v=27.04"],
    ["limits"],
], ids=["invert", "bounds", "limits"])
def test_inversion_error_names_the_row(catalog_files, capsys, kind, message, argv):
    # a row that loads but gives no screener fails every command that inverts it
    name = message.split(":")[0]
    argv = [a.format(name) for a in argv] + [f"--catalog={catalog_files[kind]}"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


# the only exit-3 messages that may follow sampling
AFTER_SAMPLING = (f"error: {sim.NOTHING_SURVIVES}\n",
                  "error: a result is not a finite number; inputs too large\n")

# a NaN or infinity printed as a table or csv cell
NON_FINITE = re.compile(r"(?<![\w.])-?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)


def _not_strict_json(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@settings(max_examples=400)
@given(argv=argvs())
@example(argv=["simulate", "--model=VulDeePecker", "--pi=0.38", "--tau-v=600", "--n=1",
               "--delta-ratio=1e300", "--trials=2", "--format=json"])
@example(argv=["simulate", "--model=VulDeePecker", "--pi=0.38", "--tau-v=600", "--n=10",
               "--delta-ratio=-1e308", "--trials=2", "--format=json"])
# finite times whose squared deviations overflow the standard error to inf
@example(argv=["simulate", "--model=VulDeePecker", "--pi=0.38", "--tau-v=1e300", "--n=50",
               "--trials=3", "--format=csv"])
def test_any_argv_ends_cleanly(catalog_files, argv):
    argv = [re.sub(r"@([a-z-]+)", lambda m: str(catalog_files[m[1]]), a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sim, "compare", wraps=sim.compare) as compare, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert not compare.called or err in AFTER_SAMPLING, err
    elif argv[-1] == "--format=json":
        json.loads(out, parse_constant=_not_strict_json)
    else:
        assert not NON_FINITE.search(out), out
