#!/usr/bin/env python3
"""Regenerate perfbench/digests.json, the stored `simulate` results digests.

Runs every argv of the `sim` and `sim-small` pools at one worker and at
nproc workers, requires exit 0, ``analytic_agreement: true`` and
byte-identical results from both, and writes each results digest.  Run it
from the root of a checkout only when the seeded-output contract is meant
to change (a new sampler identity):

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import sys

from checks import results_digest, strict_json
from run import DIGESTS, PIPEGATE, child_env, spawn
from workloads import SIM_SIZES, nproc, sim_op, sim_pool


def main() -> int:
    digests = {}
    for workload in SIM_SIZES:
        for argv in sim_pool(workload):
            seen = set()
            for workers in sorted({1, nproc()}):
                op = sim_op(argv, workers)
                code, out, err, wall, _ = spawn([*PIPEGATE, *op.argv], child_env())
                results = strict_json(out)["results"] if code == 0 else {}
                if code != 0 or results.get("analytic_agreement") is not True:
                    print(f"{op.argv}: exit {code}, results {results} {err}", file=sys.stderr)
                    return 1
                seen.add(results_digest(results))
                print(f"{workload} workers={workers} {wall:.2f} s {' '.join(argv)}")
            if len(seen) != 1:
                print(f"{argv}: results differ between worker counts", file=sys.stderr)
                return 1
            digests[op.digest_key] = seen.pop()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
