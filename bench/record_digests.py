#!/usr/bin/env python3
"""Record the stdout sha256 of every default-seed invocation in digests.json.

    python3 bench/record_digests.py

The benchmark compares every invocation whose argv has a recorded digest
against it, so output bytes stay pinned beyond ``tests/golden/``.  Re-record
only in a change whose purpose is to alter output bytes, and say so there.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    digests = {}
    workdir = run.WORK / "record-digests"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # tables_warm replays the argv of tables_cold, so it adds no digests.
        for name in ("tables_cold", "selfcheck", "orders_hecke"):
            workload = workloads.build(name, workloads.DEFAULT_SEED)
            runner = run.Runner(workload, workdir, deadline=time.monotonic() + 600)
            runner.digests, runner.require_digest = {}, False
            result = runner.run_pass(cache_root=workdir / name)
            if result is None or runner.failed:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            for inv, sha in zip(workload.invocations, result["shas"]):
                digests[" ".join(inv.argv)] = sha
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
