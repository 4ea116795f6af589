"""Benchmark workloads: scenario configs, reference values and one pass.

A pass runs every step of a workload through the package's public front
door (``qfluid.experiments.run`` / ``sweep``) and checks each result: all
manifest criteria must pass, and the key metrics must match the values in
``references.json`` (recorded at DEFAULT_SEED) within the tolerance stated
next to each metric. Steps whose inputs depend on the seed are compared
with the references only at DEFAULT_SEED; on other seeds the criteria are
the check.

Sizes are the acceptance configs, shrunk where a full-size pass would not
repeat several times within one benchmark run (see README.md).
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Step:
    """One scenario run (or one sweep) inside a workload pass.

    tolerances maps a key metric to (absolute, relative) slack: a value v
    passes against reference r when |v - r| <= absolute + relative * |r|.
    """

    label: str
    config: object                 # seed -> config dict
    seeded: bool                   # does the seed change the inputs?
    tolerances: dict = field(default_factory=dict)
    sweep: tuple | None = None     # (parameter, values) for a sweep step


# Tolerances admit rounding-level changes. Statistical metrics (histogram
# L1, coarse-grained H) move only when a rounding change pushes a particle
# across a bin edge, about 1/N per particle; the slack covers tens of them.
# Metrics that already sit at rounding level (rho_l2_vs_oracle,
# identity_max_error) may grow by orders of magnitude and stay rounding.
WORKLOADS = {
    "equivariance-1d": [
        Step("equivariance", lambda seed: {
            "scenario": "equivariance", "n_trajectories": 100000, "steps": 100,
            "bins": 64, "checkpoints": 10, "seed": 42 + seed,
        }, seeded=True, tolerances={"l1_max": (5e-4, 0.0)}),
    ],
    "relaxation-2d": [
        Step("relaxation", lambda seed: {
            "scenario": "relaxation", "n_trajectories": 5000, "steps": 300,
            "checkpoints": 10, "seed": 102 + seed, "phase_seed": 2,
        }, seeded=True, tolerances={"h_final": (2e-3, 0.0),
                                    "decay_fraction": (2e-3, 0.0)}),
    ],
    "routes": [
        Step("madelung-compare", lambda seed: {
            "scenario": "madelung-compare", "t_end": 0.1,
        }, seeded=False, tolerances={"rho_l2_vs_oracle": (1e-11, 0.0)}),
        Step("measurement", lambda seed: {
            "scenario": "measurement",
        }, seeded=False, tolerances={"lobe_deviation_closed": (0.0, 1e-6),
                                     "lobe_deviation_brute": (0.0, 1e-6)}),
        Step("conditional-pair", lambda seed: {
            "scenario": "conditional-pair", "n_samples": 1000, "steps": 200,
            "seed": 9 + seed,
        }, seeded=True, tolerances={"identity_max_error": (1e-12, 0.0)}),
        Step("oracle-evolve", lambda seed: {
            "scenario": "oracle-evolve",
        }, seeded=False),
        Step("twofluid-verify", lambda seed: {
            "scenario": "twofluid-verify",
        }, seeded=False, tolerances={"fitted_order": (0.0, 1e-6)},
            sweep=("delta_t", [1e-4, 5e-5, 2.5e-5])),
    ],
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _execute(step: Step, seed: int, outdir: Path):
    """Run one step; return (key metrics, names of failed criteria)."""
    from qfluid import experiments

    cfg = experiments.ExperimentConfig.from_dict(step.config(seed))
    if step.sweep is None:
        manifest = experiments.run(cfg, outdir)
        manifests, metrics = [manifest], dict(manifest.metrics)
    else:
        parameter, values = step.sweep
        result = experiments.sweep(cfg, parameter, values, outdir)
        manifests, metrics = result.manifests, {"fitted_order": result.fitted_order}
    failed = [f"{m.scenario}:{c.name}" for m in manifests for c in m.criteria
              if not c.passed]
    return metrics, failed


def run_pass(workload: str, seed: int, outdir: Path, references: dict | None) -> dict:
    """Run every step of a workload once and check it.

    Never raises for a failing step: an exception, a failed criterion or a
    reference mismatch is recorded as that step's problem and the pass goes
    on. references=None skips the reference comparison (recording mode).
    """
    steps = []
    started = time.perf_counter()
    for i, step in enumerate(WORKLOADS[workload]):
        t0 = time.perf_counter()
        problems, metrics = [], {}
        try:
            metrics, failed = _execute(step, seed, outdir / f"{i}-{step.label}")
            problems += [f"criterion {name} failed" for name in failed]
        except Exception as exc:  # a broken step must not stop the others
            traceback.print_exc()
            problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if references is not None and (seed == DEFAULT_SEED or not step.seeded):
            expected = references[workload][step.label]
            for name, (abs_tol, rel_tol) in step.tolerances.items():
                value, ref = metrics.get(name), expected[name]
                if value is None or not abs(value - ref) <= abs_tol + rel_tol * abs(ref):
                    problems.append(f"{name}={value!r} differs from reference {ref!r}")
        steps.append({
            "label": step.label,
            "seconds": elapsed,
            "metrics": {k: metrics[k] for k in step.tolerances if k in metrics},
            "problems": problems,
        })
    return {"wall_s": time.perf_counter() - started, "steps": steps}
