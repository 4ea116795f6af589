"""qfluid benchmark: one workload, measured for a fixed time, checked.

    python3 qbench/run.py --workload routes --seed 0 --seconds 30 --trace 0

Set-up time is the median import time of the package in several fresh
interpreters. Then passes of the workload run back to back, each in a fresh
worker process (qbench/worker.py), until --seconds have passed. With
--trace 0 the last line reports the end-to-end metrics; with --trace 1
untraced and traced passes alternate and it reports the per-layer metrics
of the traced passes. Every pass checks its outputs (workloads.py). The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See qbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PASS_TIMEOUT_S = 120
# numpy/scipy read these at import; one BLAS/OpenMP thread keeps the
# dense eigensolver from oversubscribing a small machine and runs steadier
THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_CAP_VARS:
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# timed inside the child: timing the whole child from here would add the
# interpreter's start-up and the coarse polling of a wait with a timeout
SETUP_SCRIPT = ("import time; t = time.perf_counter(); import qfluid.cli; "
                "print(time.perf_counter() - t)")


def measure_setup(env: dict) -> list[float]:
    """Import time of the package in a fresh interpreter, repeated."""
    return [
        float(subprocess.run([sys.executable, "-c", SETUP_SCRIPT], env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def run_worker(env: dict, workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=PASS_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qfluid benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "qfluid" / "__init__.py").is_file():
        print(f"error: no qfluid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    setup = measure_setup(env)

    untraced, traced = [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < args.seconds or not untraced
           or (args.trace and not traced)):
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        result = run_worker(env, args.workload, args.seed, want_trace)
        (traced if want_trace else untraced).append(result)
    passes = untraced + traced

    steps = [s for p in passes for s in p["steps"]]
    failed = [s for s in steps if s["problems"]]
    for s in failed:
        print(f"FAIL {s['label']}: {'; '.join(s['problems'])}")
    host = passes[0]["host"]
    print("host " + json.dumps(host, sort_keys=True))
    for kind, group in (("untraced", untraced), ("traced", traced)):
        for p in group:
            split = ", ".join(f"{s['label']} {s['seconds']:.3f}s" for s in p["steps"])
            print(f"{kind} pass {p['wall_s']:.3f}s rss {p['peak_rss_mb']:.1f}MB ({split})")
    print("setup " + ", ".join(f"{t:.3f}s" for t in setup))

    wall = statistics.median(p["wall_s"] for p in untraced)
    if args.trace:
        # the layers of one whole pass, the median one, so that its self
        # times add up to its wall time
        median_wall = statistics.median_low(p["wall_s"] for p in traced)
        chosen = next(p for p in traced if p["wall_s"] == median_wall)
        metrics = {name: metric(m["value"], m["unit"]) for name, m in chosen["layers"].items()}
        for label in ("madelung-compare", "conditional-pair", "measurement"):
            seconds = [s["seconds"] for p in untraced for s in p["steps"] if s["label"] == label]
            metrics[f"scenario.{label}_s"] = metric(statistics.median(seconds) if seconds else 0.0, "s")
        metrics["trace.wall_s"] = metric(median_wall, "s")
        metrics["trace.overhead_frac"] = metric(median_wall / wall - 1.0, "frac")
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
            "pass_frac": metric(1.0 - len(failed) / len(steps), "frac"),
        }
    print(json.dumps({"correct": not failed, "attempted": len(steps), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
