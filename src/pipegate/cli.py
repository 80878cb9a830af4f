"""Command-line front end.

Subcommands: ``invert`` (detector-to-screener metric conversion), ``bounds``
(fixed-screener / fixed-pipeline planning queries), ``limits`` (screener-time
budget grid over a benchmark), ``simulate`` (Monte Carlo cross-check) and
``reproduce`` (regenerate every published figure with a tolerance gate).

Every command accepts ``--format {table,csv,json}``.  JSON carries full
double precision and always reports times in seconds; the text table rounds
to 3 significant figures and switches to minutes above 120 s.  Exit codes:
0 success, 1 reproduction or verdict regression, 2 unknown model name, 3
invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from pipegate import bounds as bnd
from pipegate import catalog as cat
from pipegate import metrics as met
from pipegate import simulate as sim

__all__ = ["main"]

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_UNKNOWN = 2
EXIT_INVALID = 3

CATALOG_ENV_VAR = "PIPEGATE_CATALOG"

# Which screener precision ``simulate`` feeds its analytic verdict.
PRECISION_AS_PUBLISHED = "as-published"
PRECISION_CONSISTENT = "prevalence-consistent"

OPTIMISTIC_LATENCY = "screener latency is a published lower bound; results are optimistic"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _record(command: str, **parts) -> dict:
    """One command's result, shaped as ``docs/output_schema.json`` describes."""
    return {"command": command, "inputs": {}, "results": {}, "table": None, "warnings": [], **parts}


def _tagged(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


# --- rendering ---------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return f"{value:.3g}"


def _fmt_seconds(value: float) -> str:
    if value > 120:
        return f"{value / 60:.3g} min"
    return f"{value:.3g} s"


def _fmt_result(key: str, value) -> str:
    if isinstance(value, dict) and "value" in value:
        tag = value.get("provenance")
        body = _fmt_result(key, value["value"])
        return f"{body} ({tag})" if tag else body
    if isinstance(value, float) and key.endswith("_seconds"):
        return _fmt_seconds(value)
    return _fmt(value)


def _flatten(d: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def render_csv(record: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if record["table"] is not None:
        writer.writerow(record["table"]["columns"])
        for row in record["table"]["rows"]:
            writer.writerow(row)
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(record["results"]):
            writer.writerow([key, value])
    return buf.getvalue()


def render_table(record: dict) -> str:
    lines = [f"command: {record['command']}"]
    if record["inputs"]:
        lines.append("inputs:")
        for key, value in _flatten(record["inputs"]):
            lines.append(f"  {key} = {value}")
    if record["results"]:
        lines.append("results:")
        for key, value in record["results"].items():
            if isinstance(value, dict) and "value" not in value:
                lines.append(f"  {key}:")
                for k2, v2 in value.items():
                    lines.append(f"    {k2} = {_fmt_result(k2, v2)}")
            else:
                lines.append(f"  {key} = {_fmt_result(key, value)}")
    if record["table"] is not None:
        cols = record["table"]["columns"]
        str_rows = [[_fmt(c) for c in row] for row in record["table"]["rows"]]
        widths = [
            max(len(str(cols[i])), *(len(r[i]) for r in str_rows)) if str_rows else len(str(cols[i]))
            for i in range(len(cols))
        ]
        header = "  ".join(str(c).ljust(w) for c, w in zip(cols, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in str_rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for msg in record["warnings"]:
        lines.append(f"warning: {msg}")
    return "\n".join(lines) + "\n"


def render(record: dict, fmt: str) -> str:
    try:  # serialized for every format, so that no format prints a NaN or inf
        body = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:  # finite inputs can still overflow a result to inf
        raise CliError(EXIT_INVALID, "a result is not a finite number; inputs too large") from None
    if fmt == "json":
        return body + "\n"
    if fmt == "csv":
        return render_csv(record)
    return render_table(record)


# --- shared resolution --------------------------------------------------------

def _resolve_catalog(path_flag: str | None) -> cat.Catalog:
    path = path_flag or os.environ.get(CATALOG_ENV_VAR)
    if not path:
        return cat.builtin_catalog()
    return cat.load_catalog(path)


def _resolve_model(args: argparse.Namespace) -> cat.ModelRecord:
    """The one model ``--model`` names.

    A name ending in ``.json`` is always a one-model file, even a missing one;
    any other name is a catalog row.
    """
    name = args.model
    if name.endswith(".json"):
        file_cat = cat.load_catalog(name)
        if len(file_cat.models) != 1:
            raise CliError(
                EXIT_INVALID,
                f"{name}: expected exactly one model in a model file, "
                f"found {len(file_cat.models)}",
            )
        return file_cat.models[0]
    catalog = _resolve_catalog(args.catalog)
    record = catalog.lookup(name)
    if record is None:
        known = ", ".join(r.name for r in catalog.models)
        raise CliError(EXIT_UNKNOWN, f"unknown model {name!r}; known: {known}")
    return record


def _consistency_warnings(records) -> list[str]:
    """One line per model whose published rates disagree beyond rounding."""
    lines = []
    for r in records:
        gap = met.consistency_gap(r.precision, r.recall, r.fpr, r.eval_prevalence)
        if gap is not None and gap > met.EPS_CONSISTENCY:
            lines.append(f"{r.name}: precision {r.precision} disagrees with the value implied "
                         f"by (recall={r.recall}, fpr={r.fpr}, prevalence="
                         f"{r.eval_prevalence}) by {gap:.4f} (> {met.EPS_CONSISTENCY})")
    return lines


def _invert(record: cat.ModelRecord) -> tuple[float, float, float]:
    """The row's screener ``(P_M, R_M, F_M)``; an error names the row."""
    try:
        return met.invert_detector(record.precision, record.recall, record.fpr)
    except met.MetricsError as exc:
        raise met.MetricsError(f"{record.name}: {exc}") from exc


def _screener(record: cat.ModelRecord, tau_m: float | None, tpr_m: float | None = None,
              fpr_m: float | None = None) -> tuple[tuple, list[str]]:
    """The screener a ``--model`` row gives: ``((R_M, F_M, P_M, tau_M), warnings)``.

    A rate passed in overrides the row's.  P_M is the published precision
    while both rates are the row's, and None otherwise.  tau_M defaults to
    the row's latency (None when it has none), which warns as optimistic
    when it is a published lower bound.
    """
    p_m, r_m, f_m = _invert(record)
    lines = []
    if tau_m is None:
        tau_m = record.latency
        if record.latency_provenance == cat.LATENCY_LOWER_BOUND:
            lines.append(OPTIMISTIC_LATENCY)
    p_m = p_m if tpr_m is None and fpr_m is None else None
    r_m = r_m if tpr_m is None else tpr_m
    f_m = f_m if fpr_m is None else fpr_m
    return (r_m, f_m, p_m, tau_m), lines + _consistency_warnings([record])


def _detector_inputs(record: cat.ModelRecord) -> dict:
    return {
        "model": record.name,
        "source": record.source,
        "detector_precision": _tagged(record.precision, cat.FPR_REPORTED),
        "detector_recall": _tagged(record.recall, cat.FPR_REPORTED),
        "detector_fpr": _tagged(record.fpr, record.fpr_provenance),
        "detector_latency_seconds": _tagged(record.latency, record.latency_provenance),
        "eval_prevalence": _tagged(record.eval_prevalence, cat.FPR_REPORTED),
    }


# --- subcommands ---------------------------------------------------------------

def cmd_invert(args: argparse.Namespace) -> tuple[dict, int]:
    record = _resolve_model(args)
    p_m, r_m, f_m = _invert(record)
    inputs = _detector_inputs(record)
    results = {
        "screener_precision": _tagged(p_m, "derived"),
        "screener_recall": _tagged(r_m, "derived"),
        "screener_fpr": _tagged(f_m, "derived"),
    }
    if args.pi is not None:
        results["screener_precision_at_pi"] = _tagged(
            met.precision_at_prevalence(r_m, f_m, args.pi), "derived"
        )
        inputs["pi"] = args.pi
    return _record("invert", inputs=inputs, results=results,
                   warnings=_consistency_warnings([record])), EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    record = _resolve_model(args)
    (r_m, _, p_m, tau_m), warnings = _screener(record, args.tau_m)
    pi = args.pi
    tau_v = args.tau_v
    if tau_m is None and tau_v is None:
        raise CliError(EXIT_INVALID, "one of --tau-m / --tau-v is required")

    out = _record("bounds", inputs=_detector_inputs(record), warnings=warnings)
    out["inputs"].update({"pi": pi, "tau_m_seconds": tau_m, "tau_v_seconds": tau_v,
                          "delta_ratio": args.delta_ratio})
    out["results"]["screener_precision"] = _tagged(p_m, "derived")
    out["results"]["screener_recall"] = _tagged(r_m, "derived")
    min_ratio = bnd.min_extra_ratio(r_m)
    out["results"]["min_extra_ratio"] = _tagged(min_ratio, "derived")

    met._check_unit("pi", pi, lo_open=True, hi_open=True)  # pi >= 1 is out of range, not headroom
    if p_m <= pi:
        raise CliError(
            EXIT_INVALID,
            f"no precision headroom: screener precision {p_m:.4g} <= pi {pi}",
        )
    if tau_m is not None:
        floor = bnd.min_validator_time(tau_m, r_m, p_m, pi)
        out["results"]["min_validator_time_seconds"] = _tagged(floor, "derived")
    if tau_v is not None:
        relaxed, tight = bnd.max_model_time(tau_v, r_m, p_m, pi, args.delta_ratio)
        if tau_v == 0:  # no budget, whether or not the row's latency asks for a verdict
            raise met.MetricsError("validator latency must be present and > 0")
        out["results"]["max_model_time_relaxed_seconds"] = _tagged(relaxed, "derived")
        if tight is not None:
            out["results"]["max_model_time_tight_seconds"] = _tagged(tight, "derived")
    elif args.delta_ratio is not None and args.delta_ratio < 0:  # echoed, though nothing reads it
        raise met.MetricsError(f"dn_ratio must be >= 0, got {args.delta_ratio}")
    if tau_m is not None and tau_v is not None:
        dn = args.delta_ratio if args.delta_ratio is not None else min_ratio
        verdict, binding = bnd.evaluate(pi, 100.0, 1.0, r_m, p_m, tau_m, tau_v, dn)
        out["results"]["verdict"] = verdict
        if binding:
            out["results"]["binding_constraint"] = binding
    return out, EXIT_OK


def cmd_limits(args: argparse.Namespace) -> tuple[dict, int]:
    catalog = _resolve_catalog(args.catalog)
    source = args.benchmark or "builtin"  # empty counts as not given, as --catalog ""
    if source == "builtin":
        benchmark = cat.builtin_benchmark()
    else:
        bench_cat = cat.load_catalog(source)
        if bench_cat.benchmark is None:
            raise CliError(EXIT_INVALID, f"{source}: no 'benchmark' section")
        benchmark = bench_cat.benchmark
    pi = args.pi if args.pi is not None else benchmark.prevalence

    columns = ["model", "q25", "median", "q75", "mean"]
    rows = []
    for record in catalog.models:
        p_m, r_m, _ = _invert(record)
        # 0.0 first: an underflowed -0.0 prints as 0.0
        rows.append([record.name, *(max(0.0, bnd.max_model_time(tau_v, r_m, p_m, pi)[0])
                                    for tau_v in benchmark.as_columns().values())])
    met._check_unit("pi", pi, lo_open=True, hi_open=True)  # also when no model computed a row
    return _record(
        "limits",
        inputs={
            "pi": pi,
            "benchmark": {"source": source, **benchmark.as_columns()},
        },
        table={"columns": columns, "rows": rows},
        warnings=_consistency_warnings(catalog.models),
    ), EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, int]:
    """Check the whole scenario, then sample it and compare with the model.

    Nothing samples before every check has run.  The analytic verdict uses
    the published P_M under ``as-published`` when :func:`_screener` gives
    one, and the precision at the generator's pi otherwise; ``inputs``
    echoes that mode.
    """
    out = _record("simulate")
    if args.model is not None:
        record = _resolve_model(args)
        (tpr_m, fpr_m, p_pub, tau_m), out["warnings"] = _screener(
            record, args.tau_m, args.tpr_m, args.fpr_m)
        out["inputs"].update(_detector_inputs(record))
    else:
        if args.tpr_m is None or args.fpr_m is None:
            raise CliError(EXIT_INVALID, "either --model or both --tpr-m/--fpr-m are required")
        tpr_m, fpr_m, p_pub, tau_m = args.tpr_m, args.fpr_m, None, args.tau_m
    if tau_m is None:
        raise CliError(EXIT_INVALID, "screener latency unknown: pass --tau-m")
    if args.workers < 1:
        raise CliError(EXIT_INVALID, f"workers must be >= 1, got {args.workers}")
    for name in ("n", "trials"):  # numpy cannot size or index an array that long
        if getattr(args, name) >= 2**63:
            raise CliError(EXIT_INVALID, f"{name} must be below 2**63")
    extra = args.n * args.delta_ratio if args.n > 0 else 0.0  # SimConfig rejects n <= 0
    if not math.isfinite(extra):
        raise CliError(EXIT_INVALID, "n * delta_ratio is not a finite number")
    delta_n = round(extra)
    if args.n + delta_n >= 2**63:
        raise CliError(EXIT_INVALID, "n + delta_n must be below 2**63")
    cfg = sim.SimConfig(
        pi=args.pi,
        n=args.n,
        delta_n=delta_n,
        tpr_m=tpr_m,
        fpr_m=fpr_m,
        tau_m=tau_m,
        tau_v=args.tau_v,
        r_v=args.validator_tpr,
        trials=args.trials,
        seed=args.seed,
    )
    model = sim.expected_outcome(cfg)
    if model["survivors"].mean == 0:  # a screener that passes nothing
        raise CliError(EXIT_INVALID, sim.NOTHING_SURVIVES)
    precision_mode = args.precision_mode if p_pub is not None else PRECISION_CONSISTENT
    p_cons = met.precision_at_prevalence(cfg.tpr_m, cfg.fpr_m, cfg.pi)
    p_m = p_pub if precision_mode == PRECISION_AS_PUBLISHED else p_cons
    analytic_verdict, _ = bnd.evaluate(cfg.pi, float(cfg.n), cfg.r_v, cfg.tpr_m, p_m, cfg.tau_m,
                                       cfg.tau_v, cfg.delta_n / cfg.n)
    out["inputs"].update({
        "pi": args.pi, "n": args.n, "delta_n": delta_n,
        "tpr_m": tpr_m, "fpr_m": fpr_m,
        "tau_m_seconds": tau_m, "tau_v_seconds": args.tau_v,
        "validator_tpr": args.validator_tpr,
        "trials": args.trials, "seed": args.seed, "workers": args.workers,
        "precision_mode": precision_mode,
    })

    stats, empirical_verdict, probe = sim.compare(cfg, workers=args.workers)
    if probe is None:  # the screener can pass items, but no trial's did
        raise CliError(EXIT_INVALID, sim.NOTHING_SURVIVES)
    out["results"] = {"trials": cfg.trials, "empirical_verdict": empirical_verdict}
    agree_all = True
    for key, expected in model.items():
        stat = stats[key]
        # the model's SE keeps identical small trials (empirical SE 0), and the
        # relative floor a constant row's mean off by an ulp, from reading as a regression
        error = abs(stat.mean - expected.mean)
        agrees = (error <= 3.0 * max(stat.se, expected.se)
                  or error <= bnd._REL_TOL * abs(expected.mean))
        agree_all = agree_all and agrees
        out["results"][key] = {
            "mean": stat.mean,
            "se": stat.se,
            "analytic": expected.mean,
            "within_3se": agrees,
        }
    out["results"]["analytic_agreement"] = agree_all
    out["results"]["screener_precision"] = {
        "as_published": p_m,
        "prevalence_consistent": p_cons,
        "empirical_mean": probe.mean,
        "empirical_se": probe.se,
    }
    out["results"]["analytic_verdict"] = analytic_verdict
    return out, EXIT_OK if agree_all else EXIT_REGRESSION


def _reproduce_rows() -> list[list]:
    """All published-vs-computed checks: one row per figure.

    Row layout: [section, item, published, computed, rel_error, tolerance, status].
    Starred FPRs are checked against Bayes' rule to an absolute 0.005.  Every
    other figure, its tolerance and the reason for it sit in
    :data:`pipegate.catalog.PUBLISHED_CLAIMS`.  The grid compares the
    break-even bound at each row's own P_M with published cells that equal
    the same bound at P_M = R_M, so CodeJIT RGCN (P_M 0.725, R_M 0.800)
    fails its median, q75 and mean cells.
    """
    catalog = cat.builtin_catalog()
    benchmark = cat.builtin_benchmark()
    rows: list[list] = []

    for record in catalog.models:
        if record.fpr_provenance != cat.FPR_BAYES:
            continue
        computed = met.bayes_fpr(record.precision, record.recall, record.eval_prevalence)
        rows.append(_check_row("bayes_fpr", record.name, record.fpr, computed,
                               abs(computed - record.fpr), 0.005))

    pi = benchmark.prevalence
    for section, name, figures, tol in cat.PUBLISHED_CLAIMS:
        record = catalog.lookup(name)
        p_m, r_m, _ = _invert(record)
        for figure, want in figures.items():
            if figure == "min_validator_minutes":
                item, scale = f"{name} min validator (min)", want
                computed = bnd.min_validator_time(record.latency, r_m, p_m, pi) / 60.0
            elif figure == "min_extra_ratio":  # absolute, in ratio units
                item, scale = f"{name} min extra ratio", 1.0
                computed = bnd.min_extra_ratio(r_m)
            else:  # a benchmark column's relaxed screener-time budget
                item, scale = f"{name} / {figure}", want
                computed = bnd.max_model_time(benchmark.as_columns()[figure], r_m, p_m, pi)[0]
            rows.append(_check_row(section, item, want, computed, abs(computed - want) / scale, tol))
    return rows


def _check_row(section: str, item: str, published, computed, err: float, tol: float) -> list:
    return [section, item, published, computed, err, tol, "pass" if err <= tol else "FAIL"]


def cmd_reproduce(args: argparse.Namespace) -> tuple[dict, int]:
    rows = _reproduce_rows()
    failures = sum(1 for r in rows if r[-1] != "pass")
    out = _record(
        "reproduce",
        results={"checks": len(rows), "failures": failures},
        table={
            "columns": ["section", "item", "published", "computed", "error", "tolerance", "status"],
            "rows": rows,
        },
    )
    return out, EXIT_OK if failures == 0 else EXIT_REGRESSION


# --- argument parsing ----------------------------------------------------------

def _finite(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors to exit code 3
        raise CliError(EXIT_INVALID, message)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["table", "csv", "json"], default="table")


def _add_catalog(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--catalog",
        help=f"path to a catalog JSON file (default: ${CATALOG_ENV_VAR} or builtin)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pipegate", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("invert", help="detector metrics -> screener metrics")
    p.add_argument("--model", required=True, help="catalog model name or a one-model JSON file")
    p.add_argument("--pi", type=_finite, help="also report precision at this prevalence")
    _add_catalog(p)
    _add_format(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("bounds", help="planning bounds for one screener")
    p.add_argument("--model", required=True)
    p.add_argument("--pi", type=_finite, required=True, help="generator prevalence of good patches")
    p.add_argument("--tau-v", type=_finite, help="validator seconds per patch")
    p.add_argument("--tau-m", type=_finite, help="screener seconds per patch (default: catalog latency)")
    p.add_argument("--delta-ratio", type=_finite, help="extra-patch ratio dn/n for the tight bound")
    _add_catalog(p)
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("limits", help="max screener time per model x benchmark statistic")
    p.add_argument("--pi", type=_finite, help="default: benchmark prevalence")
    p.add_argument("--benchmark", default="builtin", help="'builtin' or a catalog JSON file")
    _add_catalog(p)
    _add_format(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check of the closed forms")
    p.add_argument("--model", help="take screener rates from this catalog model")
    p.add_argument("--tpr-m", type=_finite, help="screener recall R_M (overrides --model)")
    p.add_argument("--fpr-m", type=_finite, help="screener FPR (overrides --model)")
    p.add_argument("--pi", type=_finite, required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--delta-ratio", type=_finite, default=0.0)
    p.add_argument("--tau-v", type=_finite, required=True)
    p.add_argument("--tau-m", type=_finite)
    p.add_argument("--validator-tpr", type=_finite, default=1.0, help="validator recall R_V")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--precision-mode",
        choices=[PRECISION_AS_PUBLISHED, PRECISION_CONSISTENT],
        default=PRECISION_AS_PUBLISHED,
    )
    _add_catalog(p)
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="regenerate all published figures with tolerances")
    _add_format(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        record, code = args.func(args)
        sys.stdout.write(render(record, args.format))
        return code
    except (CliError, met.MetricsError, cat.CatalogError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "code", EXIT_INVALID)  # domain and catalog errors are invalid input


if __name__ == "__main__":
    sys.exit(main())
