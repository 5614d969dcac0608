"""Record the reference outputs the benchmark checks against, in golden.json.

Run from the root of a checkout whose outputs are known good:

    python3 perfbench/make_golden.py

Records the sha256 of the panel A-F grid CSV, SVG and contour JSON (these
do not depend on the seed) and the ledger of every expected-mode job of the
default seed. Regenerating is a deliberate change of the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import GOLDEN_PATH, import_program, run_job  # noqa: E402
from workloads import DEFAULT_SEED, build, file_sha256, reference_key  # noqa: E402


def main() -> int:
    cli = import_program(os.getcwd())
    workdir = os.path.join(".perfbench_run", "golden")
    shutil.rmtree(workdir, ignore_errors=True)
    golden = {"default_seed": DEFAULT_SEED, "panels": {}, "ledgers": {}}
    try:
        for workload in ("phase-diagram", "expected-deep", "expected-wide"):
            for job in build(workload, DEFAULT_SEED, os.path.join(workdir, workload)):
                if not ("panel" in job.spec or job.command == "simulate"):
                    continue
                _, rc, _ = run_job(cli, job)
                if rc != 0:
                    raise SystemExit(f"{workload}/{job.name} exited {rc!r}")
                if job.command == "simulate":
                    with open(job.outputs["ledger"]) as fh:
                        golden["ledgers"][reference_key(job.spec)] = json.load(fh)
                else:
                    panel = golden["panels"].setdefault(job.spec["panel"], {})
                    for role, path in job.outputs.items():
                        panel[role] = file_sha256(path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(golden['panels'])} panels, "
          f"{len(golden['ledgers'])} ledgers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
