"""Correctness checks for one pipegate CLI invocation.

Every argv must end in the exit code its op expects, with either strict
JSON / well-formed csv or table on stdout, or exactly one ``error:`` line on
stderr.  Command-specific checks pin what tier-1 pins: `reproduce` runs 37
checks and fails exactly the three CodeJIT RGCN cells, and `simulate`
agrees with its closed forms and reproduces its stored results digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

from workloads import MODEL_ROWS, Op

REPRODUCE_CHECKS = 37
REPRODUCE_FAILING = ("CodeJIT RGCN / median", "CodeJIT RGCN / q75", "CodeJIT RGCN / mean")

_NON_FINITE = re.compile(r"(?<![\w.])-?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)


class CheckError(Exception):
    """An invocation's output breaks the contract."""


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON number {name}")


def strict_json(text: str):
    """RFC 8259 JSON: `NaN` and `Infinity` are errors, not numbers."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def results_digest(results: dict) -> str:
    """sha256 of a `simulate` results object in canonical JSON."""
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _check_reproduce(rows: list[tuple[str, str]]) -> None:
    """rows: (text naming the item, status) for every reproduce check."""
    if len(rows) != REPRODUCE_CHECKS:
        raise CheckError(f"reproduce reported {len(rows)} checks, expected {REPRODUCE_CHECKS}")
    failing = sorted(text for text, status in rows if status != "pass")
    matched = sorted(
        item for item in REPRODUCE_FAILING for text in failing if item in text
    )
    if len(failing) != len(REPRODUCE_FAILING) or matched != sorted(REPRODUCE_FAILING):
        raise CheckError(f"reproduce failures {failing}, expected {list(REPRODUCE_FAILING)}")


def _check_json(op: Op, doc, digests: dict) -> None:
    if not isinstance(doc, dict) or doc.get("command") != op.command:
        raise CheckError(f"JSON record is not a {op.command!r} record")
    results, table = doc.get("results"), doc.get("table")
    if op.command == "reproduce":
        _check_reproduce([(row[1], row[-1]) for row in table["rows"]])
        if results != {"checks": REPRODUCE_CHECKS, "failures": len(REPRODUCE_FAILING)}:
            raise CheckError(f"reproduce results {results}")
    elif op.command == "limits":  # every catalog, generated or builtin, has the 7 models
        rows = table["rows"]
        if len(rows) != len(MODEL_ROWS) or not all(
            isinstance(c, float) and c >= 0 for row in rows for c in row[1:]
        ):
            raise CheckError(f"limits table has {len(rows)} rows or a bad cell")
    elif op.command == "simulate":
        if results.get("analytic_agreement") is not True:
            raise CheckError("simulate: analytic_agreement is not true")
        want = digests.get(op.digest_key)
        got = results_digest(results)
        if got != want:
            raise CheckError(f"simulate results digest {got[:12]} != stored {str(want)[:12]}")
    elif not results:
        raise CheckError(f"{op.command}: empty results")


def _check_text(op: Op, out: str) -> None:
    match = _NON_FINITE.search(out)
    if match:
        raise CheckError(f"non-finite number {match.group(0)!r} in {op.format} output")
    lines = out.splitlines()
    if op.format == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or len(set(map(len, rows))) != 1:
            raise CheckError("csv output is empty or ragged")
        if op.command == "reproduce":
            _check_reproduce([(row[1], row[-1]) for row in rows[1:]])
        return
    if not lines or lines[0] != f"command: {op.command}":
        raise CheckError("table output does not start with its command line")
    if op.command == "reproduce":
        start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
        _check_reproduce([(line, line.split()[-1]) for line in lines[start:]])
        for key, value in (("checks", REPRODUCE_CHECKS), ("failures", len(REPRODUCE_FAILING))):
            if f"  {key} = {value}" not in lines:
                raise CheckError(f"table output lacks '{key} = {value}'")


def check(op: Op, code: int, out: str, err: str, digests: dict) -> None:
    """Raise CheckError unless (exit code, stdout, stderr) is right for op."""
    if code != op.expect_exit:
        raise CheckError(f"exit code {code}, expected {op.expect_exit}: {err.strip()[:200]}")
    if op.expect_exit >= 2:
        if out:
            raise CheckError("stdout is not empty on an error exit")
        if not err.startswith("error: ") or err.count("\n") != 1 or not err.endswith("\n"):
            raise CheckError(f"stderr is not one 'error:' line: {err[:200]!r}")
        return
    if err:
        raise CheckError(f"unexpected stderr: {err[:200]!r}")
    try:
        if op.format == "json":
            _check_json(op, strict_json(out), digests)
        else:
            _check_text(op, out)
    except (KeyError, IndexError, TypeError, StopIteration) as exc:
        raise CheckError(f"{op.format} output lacks an expected part: {exc!r}") from None
