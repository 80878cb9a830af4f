"""Built-in dataset and spec-file ingestion.

Ships the published performance rows of seven ML vulnerability detectors,
the Vul4J test-time quartiles, and the APR4Vul good-patch prevalence, plus a
strict JSON loader for user-supplied catalogs.  Detector rows whose authors
did not report a false-positive rate carry one reconstructed via Bayes' rule
from their precision, recall and dataset prevalence; such rows are tagged
``bayes-estimated`` so downstream output can surface the provenance.

Most detector papers report query latency only from a pre-vectorized input,
so their latencies are stored as lower bounds and results derived from them
must be labeled optimistic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from pipegate.metrics import MetricsError, _check_unit, bayes_fpr

__all__ = [
    "CatalogError",
    "FPR_REPORTED",
    "FPR_BAYES",
    "LATENCY_REPORTED",
    "LATENCY_LOWER_BOUND",
    "LATENCY_UNKNOWN",
    "ModelRecord",
    "BenchmarkTimes",
    "Catalog",
    "builtin_catalog",
    "builtin_benchmark",
    "load_catalog",
    "PUBLISHED_CLAIMS",
]

FPR_REPORTED = "reported"
FPR_BAYES = "bayes-estimated"

LATENCY_REPORTED = "reported-with-preprocessing"
LATENCY_LOWER_BOUND = "lower-bound"
LATENCY_UNKNOWN = "unknown"


class CatalogError(Exception):
    """An unusable catalog: unreadable or malformed file, bad value or duplicate name."""


@dataclass(frozen=True)
class ModelRecord:
    """One detector row: its published figures and where each derived one came from.

    ``latency`` is None when the row has none.  Construction checks ranges
    only; :func:`pipegate.metrics.consistency_gap` measures how far the
    figures disagree with each other.
    """

    name: str
    source: str
    precision: float
    recall: float
    fpr: float
    latency: float | None
    eval_prevalence: float
    fpr_provenance: str
    latency_provenance: str

    def __post_init__(self) -> None:
        _check_unit("precision", self.precision, lo_open=True)
        _check_unit("recall", self.recall)
        _check_unit("fpr", self.fpr)
        if self.latency is not None and self.latency < 0:
            raise MetricsError(f"latency must be >= 0, got {self.latency}")
        _check_unit("eval_prevalence", self.eval_prevalence, lo_open=True, hi_open=True)


@dataclass(frozen=True)
class BenchmarkTimes:
    """Per-patch validator times (seconds) and the generator prevalence."""

    q25: float
    median: float
    q75: float
    mean: float
    prevalence: float

    def __post_init__(self) -> None:
        if not (0 < self.q25 <= self.median <= self.q75):
            raise CatalogError("quartiles must satisfy 0 < q25 <= median <= q75")
        if self.mean <= 0:
            raise CatalogError("mean must be > 0")
        if not (0 < self.prevalence < 1):
            raise CatalogError("prevalence must be in (0, 1)")

    def as_columns(self) -> dict[str, float]:
        return {"q25": self.q25, "median": self.median, "q75": self.q75, "mean": self.mean}


@dataclass(frozen=True)
class Catalog:
    models: tuple[ModelRecord, ...]
    benchmark: BenchmarkTimes | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rec in self.models:
            key = _canonical(rec.name)
            if key in seen:
                raise CatalogError(f"duplicate model name: {rec.name!r}")
            seen.add(key)

    def lookup(self, name: str) -> ModelRecord | None:
        """Case-insensitive lookup by model name; None when absent."""
        key = _canonical(name)
        for rec in self.models:
            if _canonical(rec.name) == key:
                return rec
        return None


def _canonical(name: str) -> str:
    return " ".join(name.casefold().split())


def builtin_catalog() -> Catalog:
    """The seven published detector rows, verbatim.

    Starred (bayes-estimated) FPRs are stored at their published rounding so
    that planning output matches the published analysis exactly.
    """
    rows = [  # in ModelRecord's field order
        ("VulDeePecker", "Li et al. 2018", 0.87, 0.84, 0.05, 156.0, 0.29,
         FPR_REPORTED, LATENCY_REPORTED),
        ("VulDeePecker on ReVeal", "Chakraborty et al. 2021", 0.11, 0.14, 0.11, 156.0, 0.09,
         FPR_BAYES, LATENCY_REPORTED),
        ("IVDetect on ReVeal", "Chakraborty et al. 2021", 0.39, 0.52, 0.08, 1.5, 0.09,
         FPR_BAYES, LATENCY_LOWER_BOUND),
        ("LineVul", "Fu and Tantithamthavorn 2022", 0.97, 0.86, 0.002, None, 0.06,
         FPR_BAYES, LATENCY_UNKNOWN),
        ("LineVD", "Hin et al. 2022", 0.27, 0.53, 0.09, 1.0, 0.06,
         FPR_BAYES, LATENCY_LOWER_BOUND),
        ("CodeJIT FastRGCN", "Nguyen et al. 2024", 0.77, 0.71, 0.22, 0.75, 0.5,
         FPR_REPORTED, LATENCY_LOWER_BOUND),
        ("CodeJIT RGCN", "Nguyen et al. 2024", 0.78, 0.70, 0.20, 1.42, 0.5,
         FPR_BAYES, LATENCY_LOWER_BOUND),
    ]
    return Catalog(models=tuple(ModelRecord(*row) for row in rows), benchmark=builtin_benchmark())


def builtin_benchmark() -> BenchmarkTimes:
    """Vul4J full-test-suite time quartiles and the APR4Vul prevalence 30/78."""
    return BenchmarkTimes(q25=9.17, median=27.04, q75=74.5, mean=337.83, prevalence=0.38)


# The published figures that the reproduce command re-derives, in its output
# order: (section, model, {figure: published value}, tolerance).  Planning
# figures are the fixed-screener break-even analyses at the benchmark
# prevalence; time limits are seconds per benchmark column.  The tolerance is
# absolute, in ratio units, for min_extra_ratio and relative for the rest.
PUBLISHED_CLAIMS: tuple[tuple[str, str, dict[str, float], float], ...] = (
    # 3%: no source of error is recorded; both rows land within 1.4%
    ("fixed_model", "VulDeePecker", {"min_validator_minutes": 4.56}, 0.03),
    ("fixed_model", "VulDeePecker", {"min_extra_ratio": 0.0526}, 0.0005),  # 0.05 pp
    ("fixed_model", "VulDeePecker on ReVeal", {"min_validator_minutes": 5.07}, 0.03),
    # 1 pp: the published figure is unexplained
    ("fixed_model", "VulDeePecker on ReVeal", {"min_extra_ratio": 0.121}, 0.01),
    # 5%: the published cells are the bound at P_M = R_M, computed here at
    # each row's own P_M, so a row misses in the sign of P_M - R_M
    ("time_limits", "VulDeePecker",
     {"q25": 5.23, "median": 15.6, "q75": 42.5, "mean": 193.0}, 0.05),
    ("time_limits", "VulDeePecker on ReVeal",
     {"q25": 4.70, "median": 14.0, "q75": 38.2, "mean": 173.0}, 0.05),
    ("time_limits", "IVDetect on ReVeal",
     {"q25": 4.95, "median": 14.8, "q75": 40.2, "mean": 182.0}, 0.05),
    ("time_limits", "LineVul", {"q25": 5.67, "median": 16.9, "q75": 46.1, "mean": 209.0}, 0.05),
    ("time_limits", "LineVD", {"q25": 4.85, "median": 14.5, "q75": 39.4, "mean": 179.0}, 0.05),
    # 10%: R_M is furthest above P_M in the CodeJIT rows; RGCN still misses
    # its median, q75 and mean cells (README, "Known reproduction gap")
    ("time_limits", "CodeJIT FastRGCN",
     {"q25": 3.67, "median": 11.0, "q75": 29.8, "mean": 135.0}, 0.10),
    ("time_limits", "CodeJIT RGCN",
     {"q25": 3.87, "median": 11.6, "q75": 31.5, "mean": 143.0}, 0.10),
)


_MODEL_FIELDS = {
    "name", "source", "precision", "recall", "fpr",
    "latency_seconds", "latency_kind", "prevalence",
}
_BENCHMARK_FIELDS = ("q25", "median", "q75", "mean", "prevalence")
_LATENCY_KINDS = {"reported": LATENCY_REPORTED, "lower_bound": LATENCY_LOWER_BOUND}


def _require_number(obj: dict, field: str, context: str) -> float:
    value = obj.get(field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CatalogError(f"{context}: field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)  # JSON NaN and Infinity parse, and 1e400 reads as inf
    except OverflowError:  # an integer literal beyond the double range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise CatalogError(f"{context}: field {field!r} must be a finite number, got {number}")
    return number


def _parse_model(obj: dict, index: int) -> ModelRecord:
    context = f"models[{index}]"
    if not isinstance(obj, dict):
        raise CatalogError(f"{context}: expected an object")
    unknown = set(obj) - _MODEL_FIELDS
    if unknown:
        raise CatalogError(f"{context}: unknown field(s) {sorted(unknown)}")
    name = obj.get("name")
    if not isinstance(name, str) or not name.strip():
        raise CatalogError(f"{context}: field 'name' must be a non-empty string")
    for required in ("precision", "recall", "prevalence"):
        if required not in obj:
            raise CatalogError(f"{context} ({name}): missing field {required!r}")
    precision = _require_number(obj, "precision", context)
    recall = _require_number(obj, "recall", context)
    prevalence = _require_number(obj, "prevalence", context)

    fpr = None
    fpr_provenance = FPR_BAYES
    if "fpr" in obj:
        fpr = _require_number(obj, "fpr", context)
        fpr_provenance = FPR_REPORTED

    latency = None
    latency_provenance = LATENCY_UNKNOWN
    if "latency_seconds" in obj:
        latency = _require_number(obj, "latency_seconds", context)
        kind = obj.get("latency_kind", "reported")
        if kind not in _LATENCY_KINDS:
            raise CatalogError(
                f"{context} ({name}): latency_kind must be 'reported' or 'lower_bound'"
            )
        latency_provenance = _LATENCY_KINDS[kind]
    elif "latency_kind" in obj:
        raise CatalogError(f"{context} ({name}): latency_kind without latency_seconds")

    try:
        if fpr is None:
            fpr = bayes_fpr(precision, recall, prevalence)
        return ModelRecord(
            name=name, source=str(obj.get("source", "")), precision=precision, recall=recall,
            fpr=fpr, latency=latency, eval_prevalence=prevalence,
            fpr_provenance=fpr_provenance, latency_provenance=latency_provenance,
        )
    except MetricsError as exc:
        raise CatalogError(f"{context} ({name}): {exc}") from exc


def _parse_benchmark(obj: dict) -> BenchmarkTimes:
    if not isinstance(obj, dict):
        raise CatalogError("benchmark: expected an object")
    unknown = set(obj).difference(_BENCHMARK_FIELDS)
    if unknown:
        raise CatalogError(f"benchmark: unknown field(s) {sorted(unknown)}")
    missing = set(_BENCHMARK_FIELDS).difference(obj)
    if missing:
        raise CatalogError(f"benchmark: missing field(s) {sorted(missing)}")
    values = {f: _require_number(obj, f, "benchmark") for f in _BENCHMARK_FIELDS}
    try:
        return BenchmarkTimes(**values)
    except CatalogError as exc:
        raise CatalogError(f"benchmark: {exc}") from exc


def load_catalog(path: str | Path) -> Catalog:
    """Parse a JSON spec file into a validated catalog.

    Unknown fields are rejected (strict mode) to catch typos; models missing
    an FPR get a Bayes-completed one tagged ``bayes-estimated``.  Every error
    names the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: cannot read (not UTF-8: {exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CatalogError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CatalogError(f"{path}: top level must be an object")
    unknown = set(doc) - {"models", "benchmark"}
    if unknown:
        raise CatalogError(f"{path}: unknown top-level field(s) {sorted(unknown)}")
    models_raw = doc.get("models", [])
    if not isinstance(models_raw, list):
        raise CatalogError(f"{path}: 'models' must be a list")
    try:
        models = tuple(_parse_model(m, i) for i, m in enumerate(models_raw))
        benchmark = _parse_benchmark(doc["benchmark"]) if "benchmark" in doc else None
        return Catalog(models=models, benchmark=benchmark)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from exc
