"""Record the result digests that run.py checks on the default seed.

    python3 perfbench/record_digests.py

Runs one pass of every workload on the default seed and writes
``perfbench/digests.json``.  Run it only at a commit whose outputs are
known to be right: later runs treat any other digest as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    cli_main, _ = run.load_program()
    runner = run.Runner(cli_main)
    recorded = {}
    for name, wl in WORKLOADS.items():
        work = run.OUT_DIR / "work" / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        per_instance = [{} for _ in range(wl.instances)]
        for op in run.make_instances(runner, wl, run.DEFAULT_SEED, work):
            res = runner.run(op)
            if not res.ok:
                print(f"{name} {op.kind} instance {op.instance}: {res.problems}",
                      file=sys.stderr)
                return 1
            per_instance[op.instance][op.kind] = res.digest
        recorded[name] = per_instance
        shutil.rmtree(work)
        print(f"{name}: {sum(len(d) for d in per_instance)} digests")
    run.DIGESTS.write_text(
        json.dumps({"seed": run.DEFAULT_SEED, "workloads": recorded}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
