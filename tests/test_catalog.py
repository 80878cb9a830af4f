"""Built-in dataset contents and JSON spec-file ingestion."""

import json
import re

import pytest

from pipegate.catalog import (
    FPR_BAYES,
    FPR_REPORTED,
    LATENCY_LOWER_BOUND,
    LATENCY_REPORTED,
    LATENCY_UNKNOWN,
    BenchmarkTimes,
    Catalog,
    CatalogError,
    builtin_benchmark,
    builtin_catalog,
    load_catalog,
)
from pipegate.metrics import bayes_fpr


class TestBuiltin:
    def test_seven_models(self):
        assert len(builtin_catalog().models) == 7

    def test_row_values(self):
        catalog = builtin_catalog()
        linevul = catalog.lookup("LineVul")
        assert linevul.precision == 0.97
        assert linevul.recall == 0.86
        assert linevul.latency is None
        assert linevul.latency_provenance == LATENCY_UNKNOWN
        vdp = catalog.lookup("VulDeePecker")
        assert vdp.latency == 156.0
        assert vdp.latency_provenance == LATENCY_REPORTED
        assert vdp.fpr_provenance == FPR_REPORTED
        fast = catalog.lookup("CodeJIT FastRGCN")
        assert fast.fpr == 0.22
        assert fast.fpr_provenance == FPR_REPORTED
        assert fast.latency_provenance == LATENCY_LOWER_BOUND

    def test_lookup_case_insensitive(self):
        catalog = builtin_catalog()
        assert catalog.lookup("VulDeePecker on Reveal").fpr == 0.11
        assert catalog.lookup("NoSuchModel") is None

    def test_benchmark(self):
        bm = builtin_benchmark()
        assert bm.q25 == 9.17
        assert bm.median == 27.04
        assert bm.q75 == 74.5
        assert bm.mean == 337.83
        assert bm.prevalence == 0.38

    def test_starred_fprs_roundtrip_via_bayes(self):
        # every bayes-estimated builtin FPR reproduces from its own row
        # within the published rounding
        catalog = builtin_catalog()
        starred = [r for r in catalog.models if r.fpr_provenance == FPR_BAYES]
        assert len(starred) == 5
        for rec in starred:
            implied = bayes_fpr(rec.precision, rec.recall, rec.eval_prevalence)
            assert abs(implied - rec.fpr) <= 0.005, rec.name


VALID_DOC = {
    "models": [
        {
            "name": "LineVul",
            "source": "test",
            "precision": 0.97,
            "recall": 0.86,
            "prevalence": 0.06,
        }
    ],
    "benchmark": {"q25": 9.17, "median": 27.04, "q75": 74.5, "mean": 337.83, "prevalence": 0.38},
}
GEN = {"name": "Gen", "precision": 0.9, "recall": 0.8, "prevalence": 0.3}


def write_doc(tmp_path, doc, name="catalog.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def serialize_catalog(catalog: Catalog) -> dict:
    """Dump a catalog back to the spec-file schema; round-trips via load."""
    models = []
    for rec in catalog.models:
        obj: dict = {
            "name": rec.name,
            "source": rec.source,
            "precision": rec.precision,
            "recall": rec.recall,
            "prevalence": rec.eval_prevalence,
        }
        if rec.fpr_provenance == FPR_REPORTED:
            obj["fpr"] = rec.fpr
        if rec.latency is not None:
            obj["latency_seconds"] = rec.latency
            obj["latency_kind"] = (
                "lower_bound" if rec.latency_provenance == LATENCY_LOWER_BOUND else "reported"
            )
        models.append(obj)
    doc: dict = {"models": models}
    if catalog.benchmark is not None:
        bm = catalog.benchmark
        doc["benchmark"] = {
            "q25": bm.q25, "median": bm.median, "q75": bm.q75,
            "mean": bm.mean, "prevalence": bm.prevalence,
        }
    return doc


class TestLoadCatalog:
    def test_bayes_completion_of_missing_fpr(self, tmp_path):
        catalog = load_catalog(write_doc(tmp_path, VALID_DOC))
        rec = catalog.lookup("LineVul")
        assert rec.fpr_provenance == FPR_BAYES
        assert rec.fpr == pytest.approx(0.0016977, abs=1e-6)
        assert catalog.benchmark.prevalence == 0.38

    def test_out_of_range_value_names_field(self, tmp_path):
        doc = {"models": [dict(VALID_DOC["models"][0], precision=1.3)]}
        message = r"models\[0\] \(LineVul\): precision must be in \[0, 1\], got 1.3"
        with pytest.raises(CatalogError, match=message):
            load_catalog(write_doc(tmp_path, doc))

    def test_empty_model_list(self, tmp_path):
        catalog = load_catalog(write_doc(tmp_path, {"models": []}))
        assert catalog.models == ()
        assert catalog.benchmark is None

    def test_unknown_field_rejected(self, tmp_path):
        doc = {"models": [dict(VALID_DOC["models"][0], presicion=0.9)]}
        with pytest.raises(CatalogError, match=r"models\[0\]: unknown field\(s\) \['presicion'\]"):
            load_catalog(write_doc(tmp_path, doc))

    def test_missing_required_field(self, tmp_path):
        model = dict(VALID_DOC["models"][0])
        del model["recall"]
        message = r"models\[0\] \(LineVul\): missing field 'recall'"
        with pytest.raises(CatalogError, match=message):
            load_catalog(write_doc(tmp_path, {"models": [model]}))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"models": [\n  {"name": }\n]}')
        with pytest.raises(CatalogError, match="bad.json: invalid JSON at line 2"):
            load_catalog(path)

    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe", r"cannot read \(not UTF-8: invalid start byte at byte 0\)"),
        (b"[" * 100_000, "invalid JSON: nested too deeply"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unparseable_file_names_path(self, tmp_path, content, message):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: {message}$"):
            load_catalog(path)

    @pytest.mark.parametrize("doc,message", [
        ([], "top level must be an object"),
        ({"modles": []}, "unknown top-level field(s) ['modles']"),
        ({"models": {}}, "'models' must be a list"),
        ({"models": [[]]}, "models[0]: expected an object"),
        ({"models": [dict(VALID_DOC["models"][0], name=" ")]},
         "models[0]: field 'name' must be a non-empty string"),
        ({"models": [dict(VALID_DOC["models"][0], precision="0.9")]},
         "models[0]: field 'precision' must be a number, got '0.9'"),
        ({"models": [dict(VALID_DOC["models"][0], recall=True)]},
         "models[0]: field 'recall' must be a number, got True"),
        ({"models": [VALID_DOC["models"][0]] * 2}, "duplicate model name: 'LineVul'"),
        ({"benchmark": []}, "benchmark: expected an object"),
        ({"benchmark": dict(VALID_DOC["benchmark"], median2=1)},
         "benchmark: unknown field(s) ['median2']"),
        ({"benchmark": {k: v for k, v in VALID_DOC["benchmark"].items() if k != "mean"}},
         "benchmark: missing field(s) ['mean']"),
        ({"benchmark": dict(VALID_DOC["benchmark"], prevalence=1.0)},
         "benchmark: prevalence must be in (0, 1)"),
        # a row's range checks, in the order ModelRecord runs them
        ({"models": [dict(GEN, latency_seconds=-1)]},
         "models[0] (Gen): latency must be >= 0, got -1.0"),
        ({"models": [dict(GEN, fpr=1.5)]}, "models[0] (Gen): fpr must be in [0, 1], got 1.5"),
        ({"models": [dict(GEN, fpr=0.1, prevalence=0)]},
         "models[0] (Gen): eval_prevalence must be > 0, got 0.0"),
        ({"models": [dict(GEN, fpr=0.1, prevalence=1)]},
         "models[0] (Gen): eval_prevalence must be < 1, got 1.0"),
        # without an FPR, bayes_fpr checks the prevalence first
        ({"models": [dict(GEN, prevalence=0)]}, "models[0] (Gen): pi must be > 0, got 0.0"),
    ], ids=["not-object", "unknown-top", "models-not-list", "model-not-object", "blank-name",
            "string-number", "bool-number", "duplicate", "benchmark-not-object",
            "benchmark-unknown", "benchmark-missing", "benchmark-prevalence",
            "latency-negative", "fpr-above-one", "prevalence-zero", "prevalence-one",
            "prevalence-zero-no-fpr"])
    def test_malformed_document_names_file(self, tmp_path, doc, message):
        # a command may read two catalog files; each error says which one
        path = write_doc(tmp_path, doc)
        with pytest.raises(CatalogError) as info:
            load_catalog(path)
        assert str(info.value) == f"{path}: {message}"

    def test_duplicate_names(self, tmp_path):
        doc = {"models": [VALID_DOC["models"][0], VALID_DOC["models"][0]]}
        with pytest.raises(CatalogError, match="duplicate model name: 'LineVul'"):
            load_catalog(write_doc(tmp_path, doc))

    def test_latency_kinds(self, tmp_path):
        model = dict(VALID_DOC["models"][0], latency_seconds=1.5, latency_kind="lower_bound")
        catalog = load_catalog(write_doc(tmp_path, {"models": [model]}))
        assert catalog.models[0].latency_provenance == LATENCY_LOWER_BOUND
        model["latency_kind"] = "guess"
        with pytest.raises(CatalogError, match="latency_kind must be 'reported' or 'lower_bound'"):
            load_catalog(write_doc(tmp_path, {"models": [model]}))

    def test_latency_kind_without_latency(self, tmp_path):
        model = dict(VALID_DOC["models"][0], latency_kind="reported")
        with pytest.raises(CatalogError, match="latency_kind without latency_seconds"):
            load_catalog(write_doc(tmp_path, {"models": [model]}))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "long-int"])
    @pytest.mark.parametrize("section,field", [("models[0]", "latency_seconds"),
                                               ("benchmark", "mean")])
    def test_non_finite_number_names_field(self, tmp_path, section, field, literal):
        # json.loads reads NaN and Infinity, and 1e400 as inf; a long integer
        # literal overflows the double it would become
        doc = {"models": [dict(VALID_DOC["models"][0], latency_seconds=2.0)],
               "benchmark": dict(VALID_DOC["benchmark"])}
        target = doc["models"][0] if section == "models[0]" else doc["benchmark"]
        target[field] = "@"
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        got = "-inf" if literal.startswith("-") else "nan" if literal == "NaN" else "inf"
        message = rf"{re.escape(section)}: field '{field}' must be a finite number, got {got}$"
        with pytest.raises(CatalogError, match=message):
            load_catalog(path)

    def test_roundtrip(self, tmp_path):
        first = load_catalog(write_doc(tmp_path, VALID_DOC))
        reparsed = load_catalog(write_doc(tmp_path, serialize_catalog(first), name="again.json"))
        assert reparsed == first

    def test_roundtrip_with_reported_fields(self, tmp_path):
        model = dict(
            VALID_DOC["models"][0],
            fpr=0.002,
            latency_seconds=2.0,
            latency_kind="reported",
        )
        doc = {"models": [model], "benchmark": VALID_DOC["benchmark"]}
        first = load_catalog(write_doc(tmp_path, doc))
        assert first.models[0].fpr_provenance == FPR_REPORTED
        reparsed = load_catalog(write_doc(tmp_path, serialize_catalog(first), name="again.json"))
        assert reparsed == first


class TestBenchmarkTimes:
    def test_quartile_ordering_enforced(self):
        with pytest.raises(CatalogError, match="quartiles must satisfy 0 < q25 <= median <= q75"):
            BenchmarkTimes(q25=10, median=5, q75=20, mean=10, prevalence=0.5)

    def test_positive_mean(self):
        with pytest.raises(CatalogError, match="mean must be > 0"):
            BenchmarkTimes(q25=1, median=2, q75=3, mean=0, prevalence=0.5)
