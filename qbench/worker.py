"""Run one workload pass in a fresh interpreter and print it as JSON.

run.py starts one of these per pass, so every pass pays the cold caches a
``qfluid run`` process pays, and peak memory is that of the pass alone.
With --trace the qfluid layers are wrapped for this pass only.

    python3 qbench/worker.py --workload routes --seed 0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, load_references, run_pass  # noqa: E402


def host_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import qfluid  # noqa: F401  (import cost belongs to setup_s, not to the pass)

    references = load_references()
    layer_trace = None
    if args.trace:
        from layers import LayerTrace
        layer_trace = LayerTrace()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".qbench-") as tmp:
        try:
            result = run_pass(args.workload, args.seed, Path(tmp), references)
        finally:
            if layer_trace is not None:
                layer_trace.tracer.uninstall()
    if layer_trace is not None:
        result["layers"] = layer_trace.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["host"] = host_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
