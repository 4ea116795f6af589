"""Record the reference values the benchmark checks, at DEFAULT_SEED.

    python3 qbench/record.py

Runs each workload once in this process, under the same thread cap as
run.py, and rewrites references.json. Record only from a commit whose
outputs are known good; the benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, ROOT, THREAD_CAP_VARS

for var in THREAD_CAP_VARS:
    os.environ[var] = str(BLAS_THREADS)
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, REFERENCES, WORKLOADS, run_pass  # noqa: E402


def main() -> int:
    references = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".qbench-") as tmp:
            result = run_pass(workload, DEFAULT_SEED, Path(tmp), references=None)
        for step in result["steps"]:
            if step["problems"]:
                print(f"{workload}/{step['label']}: {step['problems']}", file=sys.stderr)
                return 1
        references[workload] = {s["label"]: s["metrics"] for s in result["steps"]}
        print(f"{workload}: {result['wall_s']:.2f}s {references[workload]}")
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
