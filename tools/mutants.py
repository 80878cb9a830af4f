"""Mutation run: flip one operator at a time and see whether the tests notice.

Usage::

    python tools/mutants.py src/pipegate/bounds.py src/pipegate/cli.py

Each mutant flips one operator in one of the named modules: ``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/`` or ``and``/``or``.  The
module is rewritten with :func:`ast.unparse`, so an unmutated rewrite of each
module is run first and must pass.  Every run is ``python -m pytest -x -q
tests`` in a copy of the tree, never in the tree itself, one run at a time:
two suites at once can fail a timing-sensitive test and so fake a kill.  A
mutant is *killed* when a test fails (the first failing test is named),
*timeout* when the run outlives ``TIMEOUT`` seconds, and *survived* when
every test passes.  The script prints each mutant's outcome, then the
survivors, and exits 1 if any survived.  Standard library only; it is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or",
}
TIMEOUT = 300.0  # seconds per test run; the suite takes about 20 s
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work")


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every flippable operator: (node, index into ``ops``) or (node, None)."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in FLIPS:
            sites.append((node, None))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def _mutants(module: Path) -> list[tuple[str, str]]:
    """(label, mutated source) for each site of ``module``, a path under ROOT."""
    source = module.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    out = []
    for node, index in _sites(tree):
        old = node.ops[index] if index is not None else node.op
        new = FLIPS[type(old)]()
        if index is not None:
            node.ops[index] = new
        else:
            node.op = new
        label = (f"{module.relative_to(ROOT)}:{node.lineno}  {SYMBOLS[type(old)]} -> "
                 f"{SYMBOLS[type(new)]}  | {lines[node.lineno - 1].strip()}")
        out.append((label, ast.unparse(tree)))
        if index is not None:
            node.ops[index] = old
        else:
            node.op = old
    return out


def _run_tests(tree: Path) -> str:
    """``survived``, ``timeout``, or ``killed`` with the first failing test's id."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,  # so a timeout also ends any process the tests started
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    return f"killed by {failed[0]}" if failed else "killed"


def _run(module: Path, source: str, tree: Path) -> str:
    """Test ``tree`` with ``module``'s copy replaced by ``source``, then restore it."""
    target = tree / module.relative_to(ROOT)
    original = target.read_text()
    target.write_text(source)
    try:
        return _run_tests(tree)
    finally:
        target.write_text(original)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files under the repo")
    args = parser.parse_args(argv)
    modules = [m.resolve() for m in args.modules]
    work = [(m, label, src) for m in modules for label, src in _mutants(m)]
    print(f"{len(work)} mutants in {len(modules)} module(s)", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for m in modules:  # the rewrite alone must fail nothing
            status = _run(m, ast.unparse(ast.parse(m.read_text())), tree)
            if status != "survived":
                print(f"unmutated rewrite of {m.relative_to(ROOT)}: {status}; stopping")
                return 2
        kinds = []
        for m, label, src in work:
            status = _run(m, src, tree)
            print(f"{label}\n    {status}", flush=True)
            kinds.append(status.split()[0])

    survivors = [label for (_, label, _), kind in zip(work, kinds) if kind == "survived"]
    print(f"\n{len(work)} mutants: {kinds.count('killed')} killed, "
          f"{kinds.count('timeout')} timed out, {len(survivors)} survived")
    for label in survivors:
        print(f"  {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
