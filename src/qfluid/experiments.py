"""Batch scenarios: declarative configs in, CSV artifacts and manifests out.

Each scenario takes an ExperimentConfig (one flat JSON document), runs the
relevant modules, writes its data files and returns a RunManifest whose
criteria list carries one pass/fail verdict per acceptance check in scope.
Everything is deterministic: the config plus the code version fixes every
output byte (the manifest's wall_time_s field is the one exception).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, QFluidError
from .grids import GridSpec, ScalarField, WaveField, gradient
from .fieldio import write_field_csv, write_vector_csv
from .oracle import (
    Potential,
    PropagatorState,
    coherent_state,
    energy_expectation,
    gaussian_packet,
    harmonic_ground_state,
    periodic_gaussian_density,
    plane_wave,
    split_step_evolve,
    stationary_states,
    tensor_eigenstate,
)
from .madelung import (
    decompose,
    madelung_step,
    quantum_potential,
    residuals_from_snapshots,
)
from .twofluid import TwoFluidConfig, averaged_acceleration, osmotic_force_reference, reaction_force
from .ensemble import (
    NodeEvents,
    OracleTimeline,
    TrajectoryEnsemble,
    WaveTimeline,
    bootstrap_coarse_H,
    coarse_grained_H,
    equivariance_distance,
    propagate_ensemble,
    sample_equilibrium,
)
from .conditional import (
    ConfigWaveField,
    ParticlePair,
    conditional_guiding_velocities,
    configuration_velocity,
    propagate_pair,
)
from .measurement import (
    joint_grid,
    lobe_masses,
    marginal_mean,
    pointer_marginal,
    pointer_measurement_brute,
    pointer_measurement_evolve,
)

__all__ = ["ExperimentConfig", "RunManifest", "Criterion", "run", "sweep", "report",
           "SCENARIOS", "OUTPUT_ROOT_ENV"]

OUTPUT_ROOT_ENV = "QFLUID_OUTPUT_ROOT"


# config keys whose value is a JSON object of named sub-settings
_OBJECT_KEYS = ("constants", "grid", "tolerances")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run; flat key namespace."""

    scenario: str
    params: dict
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        try:
            scenario = doc.pop("scenario")
        except KeyError:
            raise ConfigError("config is missing the 'scenario' key") from None
        output_dir = doc.pop("output_dir", None)
        if scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        for key in _OBJECT_KEYS:
            if key in doc and not isinstance(doc[key], dict):
                raise ConfigError(
                    f"config key {key!r} must be a JSON object, got {doc[key]!r}"
                )
        return cls(scenario=scenario, params=doc, output_dir=output_dir)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(doc)

    def get(self, key, default):
        return self.params.get(key, default)

    def constants(self) -> tuple[float, float]:
        c = self.get("constants", {})
        return float(c.get("hbar", 1.0)), float(c.get("m", 1.0))

    def diffusion_constant(self) -> float:
        """D from the config, defaulting to hbar / 2m."""
        c = self.get("constants", {})
        if "D" in c and c["D"] is not None:
            return float(c["D"])
        hbar, m = self.constants()
        return hbar / (2.0 * m)

    def to_dict(self) -> dict:
        doc = {"scenario": self.scenario}
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        doc.update(self.params)
        return doc


@dataclass(frozen=True)
class Criterion:
    name: str
    value: float
    threshold: float
    comparator: str = "<="

    @property
    def passed(self) -> bool:
        if self.comparator == "<=":
            return bool(self.value <= self.threshold)
        if self.comparator == ">=":
            return bool(self.value >= self.threshold)
        raise ConfigError(f"unknown comparator {self.comparator!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "comparator": self.comparator,
            "pass": self.passed,
        }


@dataclass
class RunManifest:
    """Config echo, metrics, per-criterion verdicts, outputs, wall time."""

    scenario: str
    config: dict
    metrics: dict
    criteria: list[Criterion]
    outputs: list[str]
    capping_events: int = 0
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "metrics": self.metrics,
            "criteria": [c.to_dict() for c in self.criteria],
            "outputs": self.outputs,
            "capping_events": self.capping_events,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
        }

    def write(self, outdir: Path) -> Path:
        return _write_json(outdir / "run_manifest.json", self.to_dict())


def _as_integer(key: str, value) -> int:
    """A config value that must be an integer. int() would truncate 2.7 to
    2 and read true as 1, so a bool, a non-integral number or a non-number
    is a ConfigError; an integral float such as 640.0 is accepted."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")


def _integer(cfg: ExperimentConfig, key: str, default: int,
             minimum: int | None = None) -> int:
    """An integer config value; a count (minimum 1) of zero or less would
    run a degenerate scenario or fail deep inside it."""
    value = _as_integer(key, cfg.get(key, default))
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {key!r} must be at least {minimum}, got {value}")
    return value


def _non_finite(doc, path: str = "") -> list[str]:
    """Paths (a.b[2].c) of the non-finite floats in a JSON-ready document."""
    if isinstance(doc, float):
        return [] if math.isfinite(doc) else [path]
    if isinstance(doc, dict):
        return [bad for key, value in doc.items()
                for bad in _non_finite(value, f"{path}.{key}" if path else str(key))]
    if isinstance(doc, (list, tuple)):
        return [bad for i, value in enumerate(doc)
                for bad in _non_finite(value, f"{path}[{i}]")]
    return []


def _write_json(path: Path, doc: dict) -> Path:
    """Write a manifest as strict JSON: a non-finite value raises a
    QFluidError that names its key instead of writing a NaN token."""
    bad = _non_finite(doc)
    if bad:
        raise QFluidError(f"{path.name}: non-finite value at {', '.join(bad)}")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _grid_from_config(cfg: ExperimentConfig, default_extent, default_points) -> GridSpec:
    g = cfg.get("grid", {})
    extent = g.get("extent", default_extent)
    points = g.get("points", default_points)
    if "origin" in g:
        return GridSpec.regular(extent, points, g["origin"])
    return GridSpec.centered(extent, points)


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _write_table(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
            for v in row
        ))
    path.write_text("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# scenarios


def _scenario_oracle_evolve(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    kind = cfg.get("kind", "harmonic-coherent")
    grid = _grid_from_config(cfg, 24.0, 512)
    dt = float(cfg.get("dt", 1e-3))
    if "t_end" in cfg.params:
        steps = round(float(cfg.params["t_end"]) / dt)
    else:
        steps = _integer(cfg, "steps", 6283, minimum=1)
    omega = float(cfg.get("constants", {}).get("omega", 1.0))

    if kind == "harmonic-ground":
        psi0 = harmonic_ground_state(grid, omega, hbar, m)
        potential = Potential.harmonic(grid, omega, m)
        reference = lambda t: psi0
    elif kind == "harmonic-coherent":
        a = float(cfg.get("displacement", 2.0))
        psi0 = coherent_state(grid, omega, a, 0.0, hbar, m)
        potential = Potential.harmonic(grid, omega, m)
        reference = lambda t: coherent_state(grid, omega, a, t, hbar, m)
    elif kind == "free-gaussian":
        s0 = float(cfg.get("width", 1.0))
        psi0 = gaussian_packet(grid, s0, hbar=hbar)
        potential = Potential.free(grid)
        reference = None
    elif kind == "plane-wave":
        psi0 = plane_wave(grid, _integer(cfg, "mode", 3))
        potential = Potential.free(grid)
        reference = None
    else:
        raise ConfigError(f"unknown oracle-evolve kind {kind!r}")

    state = PropagatorState(psi0, 0.0, dt, hbar, m)
    e0 = energy_expectation(state, potential)
    final = split_step_evolve(state, potential, steps)
    e1 = energy_expectation(final, potential)

    metrics = {
        "norm_drift": abs(final.psi.norm() - 1.0),
        "energy_drift_rel": abs(e1 - e0) / max(abs(e0), 1e-30),
    }
    if reference is not None:
        ref = reference(final.t)
        metrics["terminal_error"] = float(
            np.sqrt(np.sum(np.abs(final.psi.values - ref.values) ** 2)
                    * grid.cell_volume)
        )
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("unitarity_drift", metrics["norm_drift"],
                  float(tol.get("norm_drift", 1e-9))),
        Criterion("energy_drift_rel", metrics["energy_drift_rel"],
                  float(tol.get("energy_drift_rel", 1e-6))),
    ]
    outputs = [str(write_field_csv(final.psi, outdir / "psi_final.csv"))]
    return metrics, criteria, outputs, 0


def _scenario_madelung_compare(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    grid = _grid_from_config(cfg, 24.0, 256)
    s0 = float(cfg.get("width", 1.0))
    momentum = float(cfg.get("momentum", 2.0))
    dt_snap = float(cfg.get("dt", 1e-3))
    n_windows = _integer(cfg, "snapshot_windows", 5, minimum=1)
    potential = Potential.free(grid)

    # residuals from consecutive oracle snapshots at several times
    psi0 = gaussian_packet(grid, s0, momentum=momentum, hbar=hbar)
    state = PropagatorState(psi0, 0.0, dt_snap, hbar, m)
    rows = []
    worst_cont = worst_mom = 0.0
    for _ in range(n_windows):
        prev = state
        mid = split_step_evolve(prev, potential, 1)
        nxt = split_step_evolve(mid, potential, 1)
        res = residuals_from_snapshots(
            prev.psi, mid.psi, nxt.psi, potential, dt_snap, hbar, m,
        )
        rows.append([mid.t, res.continuity, res.momentum])
        worst_cont = max(worst_cont, res.continuity)
        worst_mom = max(worst_mom, res.momentum)
        state = split_step_evolve(nxt, potential, 18)

    # direct integration of the hydrodynamic system vs the oracle
    dt_step = float(cfg.get("madelung_dt", 1e-4))
    t_end = float(cfg.get("t_end", 0.5))
    psi_plain = gaussian_packet(grid, s0, hbar=hbar)
    state = decompose(psi_plain, hbar, m)
    n_steps = round(t_end / dt_step)
    renorm_max = 0.0
    for _ in range(n_steps):
        state = madelung_step(state, potential, dt_step)
        renorm_max = max(renorm_max, state.last_renorm)
    oracle_final = split_step_evolve(
        PropagatorState(psi_plain, 0.0, dt_step, hbar, m), potential, n_steps
    )
    rho_err = float(
        np.sqrt(np.sum((state.rho.values - oracle_final.psi.density().values) ** 2)
                * grid.cell_volume)
    )

    metrics = {
        "residual_continuity": worst_cont,
        "residual_momentum": worst_mom,
        "rho_l2_vs_oracle": rho_err,
        "max_renormalization": renorm_max,
    }
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("residual_continuity", worst_cont, float(tol.get("residual", 1e-3))),
        Criterion("residual_momentum", worst_mom, float(tol.get("residual", 1e-3))),
        Criterion("rho_l2_vs_oracle", rho_err, float(tol.get("rho_l2", 1e-3))),
    ]
    outputs = [
        str(_write_table(outdir / "residuals.csv",
                         ["t", "r_continuity", "r_momentum"], rows)),
        str(write_field_csv(state.rho, outdir / "rho_final.csv")),
        str(write_field_csv(quantum_potential(state.rho, hbar, m),
                            outdir / "quantum_potential.csv")),
    ]
    outputs += [str(p) for p in write_vector_csv(state.v, outdir / "velocity.csv")]
    return metrics, criteria, outputs, 0


def _scenario_twofluid_verify(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    D = cfg.diffusion_constant()
    grid = _grid_from_config(cfg, 12.0, 512)
    s = float(cfg.get("width", 1.0))
    delta_t = float(cfg.get("delta_t", 1e-4))
    n_micro = _integer(cfg, "n_micro", 16, minimum=1)
    substeps = _integer(cfg, "micro_substeps", 1, minimum=1)

    # periodized so the density is genuinely smooth across the seam and
    # never reaches the regularization floor anywhere on the grid
    rho = periodic_gaussian_density(grid, s)
    two = TwoFluidConfig.make(delta_t=delta_t, N_micro=n_micro, D=D,
                              micro_substeps=substeps)
    acc = averaged_acceleration(rho, two)
    grad_q = gradient(quantum_potential(rho, hbar, m))
    grad_q_over_m = grad_q.components[0] / m
    rel_err = _rel_l2(acc.components[0], grad_q_over_m)

    force = reaction_force(acc, rho, rho)
    reaction_err = _rel_l2(force.approx.components[0], -grad_q_over_m)

    # fit basis: -grad(lap(sqrt(rho))/sqrt(rho)), i.e. the unit-D reference over 2
    basis = osmotic_force_reference(rho, 1.0).components[0] / 2.0
    c_fit = float(np.dot(acc.components[0], basis) / np.dot(basis, basis))
    coeff_dev = abs(c_fit - 2 * D * D) / (2 * D * D)

    metrics = {
        "rel_err_vs_gradQ": rel_err,
        "reaction_vs_minus_gradQ": reaction_err,
        "fit_coefficient": c_fit,
        "fit_coefficient_rel_dev": coeff_dev,
        "reaction_exact_approx_gap": force.max_rel_gap,
    }
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("rel_err_vs_gradQ", rel_err, float(tol.get("rel_err", 1e-3))),
        Criterion("fit_coefficient_rel_dev", coeff_dev,
                  float(tol.get("coeff_dev", 5e-3))),
    ]
    outputs = [
        str(_write_table(outdir / "convergence.csv",
                         ["delta_t", "N_micro", "D", "rel_err_vs_gradQ"],
                         [[delta_t, n_micro, D, rel_err]])),
        str(write_field_csv(quantum_potential(rho, hbar, m),
                            outdir / "quantum_potential.csv")),
    ]
    outputs += [str(p) for p in write_vector_csv(acc, outdir / "averaged_acceleration.csv")]
    return metrics, criteria, outputs, 0


def _check_checkpoints(checkpoints: int, steps: int):
    """Each checkpoint closes a chunk of steps // checkpoints steps, so a
    chunk of zero steps would report a metric for no evolution at all."""
    if not 1 <= checkpoints <= steps:
        raise ConfigError(
            f"checkpoints must be between 1 and steps ({steps}), got {checkpoints}"
        )


def _scenario_equivariance(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    omega = float(cfg.get("constants", {}).get("omega", 1.0))
    grid = _grid_from_config(cfg, 24.0, 512)
    n_traj = _integer(cfg, "n_trajectories", 100000, minimum=1)
    steps = _integer(cfg, "steps", 640, minimum=1)
    bins = _integer(cfg, "bins", 64, minimum=1)
    checkpoints = _integer(cfg, "checkpoints", 10)
    _check_checkpoints(checkpoints, steps)
    seed = _integer(cfg, "seed", 42)

    potential = Potential.harmonic(grid, omega, m)
    pairs = stationary_states(potential, 2, hbar, m)
    psi0 = WaveField(
        grid, (pairs[0][1].values + pairs[1][1].values) / np.sqrt(2)
    ).normalized()
    period = 2 * np.pi / omega
    dt = period / steps
    timeline = WaveTimeline.from_oracle(psi0, potential, dt, steps, hbar, m)
    ens = sample_equilibrium(psi0.density(), n_traj, seed, hbar, m)

    # propagate checkpoint to checkpoint; keeping the full history of 1e5
    # trajectories would cost half a gigabyte for nothing
    rows = []
    l1_max = 0.0
    capped_total = 0
    ever_degraded = False
    current = ens
    chunk = steps // checkpoints
    for c in range(1, checkpoints + 1):
        result = propagate_ensemble(current, timeline, dt, chunk,
                                    record_history=False,
                                    t_start=(c - 1) * chunk * dt)
        current = result.ensemble
        capped_total += result.capped_trajectories
        ever_degraded = ever_degraded or result.degraded
        t = c * chunk * dt
        l1 = equivariance_distance(current, timeline.at(t), bins)
        h_coarse = coarse_grained_H(current, timeline.at(t),
                                    max(4, grid.points[0] // bins))
        rows.append([t, l1, h_coarse])
        l1_max = max(l1_max, l1)

    metrics = {
        "l1_max": l1_max,
        "capped_fraction": capped_total / n_traj,
        "degraded": float(ever_degraded),
    }
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("l1_max", l1_max, float(tol.get("l1", 0.03))),
        Criterion("degraded", metrics["degraded"], 0.0),
    ]
    # trajectories are mutually independent, so replaying a small sample
    # with history reproduces the corresponding members bit for bit
    n_sample = min(100, n_traj)
    sample_ens = TrajectoryEnsemble(grid=grid, positions=ens.positions[:n_sample],
                                    seed=seed, hbar=hbar, m=m)
    sample = propagate_ensemble(sample_ens, timeline, dt, steps).ensemble.history
    traj_rows = []
    for tid in range(n_sample):
        for j in range(0, sample.shape[0], max(1, steps // 32)):
            traj_rows.append([tid, j * dt, sample[j, tid]])
    outputs = [
        str(_write_table(outdir / "equivariance.csv", ["t", "L1", "H_coarse"], rows)),
        str(_write_table(outdir / "trajectories.csv", ["traj_id", "t", "x"], traj_rows)),
    ]
    return metrics, criteria, outputs, capped_total


def _scenario_relaxation(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    omega_x = float(cfg.get("constants", {}).get("omega", 1.0))
    omega_y = float(cfg.get("omega_y", omega_x * 0.5 * (1 + np.sqrt(5.0))))
    grid = _grid_from_config(cfg, (20.0, 20.0), (128, 128))
    n_traj = _integer(cfg, "n_trajectories", 20000, minimum=1)
    steps = _integer(cfg, "steps", 1200, minimum=1)
    cell = _integer(cfg, "cell_size", 8)
    checkpoints = _integer(cfg, "checkpoints", 10)
    _check_checkpoints(checkpoints, steps)
    phase_seed = _integer(cfg, "phase_seed", 2)
    seed = _integer(cfg, "seed", 102)
    start_half_width = float(cfg.get("start_half_width", 2.5))
    mode_index = cfg.get("mode_index", [2, 3, 5, 7])

    gx, gy = grid.axis_line(0), grid.axis_line(1)
    ux = Potential.harmonic(gx, omega_x, m)
    uy = Potential.harmonic(gy, omega_y, m)
    n_eigen = max(mode_index) + 1
    px = stationary_states(ux, n_eigen, hbar, m)
    py = stationary_states(uy, n_eigen, hbar, m)
    joint = Potential.custom(
        ScalarField(grid, ux.values[:, None] + uy.values[None, :])
    )
    rng = np.random.default_rng(phase_seed)
    vals = np.zeros(grid.shape, dtype=complex)
    amp = 1.0 / np.sqrt(len(mode_index) ** 2)
    for nx in mode_index:
        for ny in mode_index:
            _, phi = tensor_eigenstate(grid, px[nx], py[ny])
            vals += np.exp(1j * rng.uniform(0, 2 * np.pi)) * amp * phi.values
    psi0 = WaveField(grid, vals).normalized()

    period = 2 * np.pi / omega_x
    dt = period / steps
    rng_pos = np.random.default_rng(seed)
    positions = rng_pos.uniform(-start_half_width, start_half_width, (n_traj, 2))
    ens = TrajectoryEnsemble(grid=grid, positions=positions, seed=seed,
                             hbar=hbar, m=m)
    timeline = OracleTimeline(psi0, joint, dt, hbar, m)

    rows = []
    h0, lo, hi = bootstrap_coarse_H(ens, psi0, cell, seed=500)
    rows.append([0.0, h0, lo, hi])
    current = ens
    capped = 0
    chunk = steps // checkpoints
    worst_excess = -np.inf
    for c in range(checkpoints):
        res = propagate_ensemble(current, timeline, dt, chunk,
                                 record_history=False, t_start=c * chunk * dt)
        current = res.ensemble
        capped += res.capped_trajectories
        t = (c + 1) * chunk * dt
        h, lo, hi = bootstrap_coarse_H(current, timeline.at(t), cell, seed=500 + c)
        increase = h - rows[-1][1]
        band = (hi - lo) / 2 + (rows[-1][3] - rows[-1][2]) / 2
        worst_excess = max(worst_excess, increase - band)
        rows.append([t, h, lo, hi])

    decay = (rows[0][1] - rows[-1][1]) / rows[0][1]
    metrics = {
        "h_initial": rows[0][1],
        "h_final": rows[-1][1],
        "decay_fraction": decay,
        "worst_increase_minus_band": worst_excess,
        "capped_trajectories": capped,
    }
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("decay_fraction", decay, float(tol.get("decay", 0.5)), ">="),
        Criterion("worst_increase_minus_band", worst_excess, 0.0),
    ]
    outputs = [
        str(_write_table(outdir / "relaxation.csv",
                         ["t", "H_coarse", "boot_lo", "boot_hi"], rows)),
    ]
    return metrics, criteria, outputs, capped


def _scenario_measurement(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    omega = float(cfg.get("constants", {}).get("omega", 1.0))
    coupling = float(cfg.get("constants", {}).get("lambda", 1.0))
    grid_x = _grid_from_config(cfg, 24.0, 256)
    y_extent = float(cfg.get("y_extent", 16.0))
    y_points = _integer(cfg, "y_points", 256, minimum=1)
    grid_y = GridSpec.centered(y_extent, y_points)
    pointer_width = float(cfg.get("pointer_width", 0.5))
    pointer_center = float(cfg.get("pointer_center", -4.0))
    k_single = _integer(cfg, "single_mode", 2, minimum=0)
    t_single = float(cfg.get("duration_single", 2.0))
    t_pair = float(cfg.get("duration_pair", 4.0))
    run_brute = cfg.get("run_brute", True)
    if not isinstance(run_brute, bool):
        raise ConfigError(f"run_brute must be true or false, got {run_brute!r}")

    potential = Potential.harmonic(grid_x, omega, m)
    pairs = stationary_states(potential, max(k_single + 1, 2), hbar, m)
    pointer = gaussian_packet(grid_y, pointer_width, center=pointer_center)

    coeffs_single = [0.0] * len(pairs)
    coeffs_single[k_single] = 1.0
    joint_single = pointer_measurement_evolve(coeffs_single, pairs, pointer,
                                              coupling, t_single, hbar)
    marg_single = pointer_marginal(joint_single)
    expected_mean = pointer_center + coupling * pairs[k_single][0] * t_single
    mean_err = abs(marginal_mean(marg_single) - expected_mean)

    c_pair = [1 / np.sqrt(2), 1 / np.sqrt(2)] + [0.0] * (len(pairs) - 2)
    joint_pair = pointer_measurement_evolve(c_pair, pairs, pointer,
                                            coupling, t_pair, hbar)
    marg_pair = pointer_marginal(joint_pair)
    split = pointer_center + coupling * t_pair * (pairs[0][0] + pairs[1][0]) / 2
    below, above = lobe_masses(marg_pair, split)
    lobe_dev = max(abs(below - 0.5), abs(above - 0.5))

    metrics = {
        "pointer_mean_error": mean_err,
        "grid_spacing_y": grid_y.spacing[0],
        "lobe_mass_below": below,
        "lobe_mass_above": above,
        "lobe_deviation_closed": lobe_dev,
        "joint_norm_drift": abs(joint_pair.norm() - 1.0),
    }
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("pointer_mean_error", mean_err,
                  float(tol.get("mean_err", grid_y.spacing[0]))),
        Criterion("lobe_deviation_closed", lobe_dev,
                  float(tol.get("lobe_closed", 1e-3))),
    ]
    outputs = [
        str(write_field_csv(marg_single, outdir / "marginal_single.csv")),
        str(write_field_csv(marg_pair, outdir / "marginal_pair.csv")),
    ]

    if run_brute:
        nb = _integer(cfg, "brute_points", 128, minimum=1)
        bx = GridSpec.centered(grid_x.extent[0], nb)
        by = GridSpec.centered(y_extent, nb)
        bu = Potential.harmonic(bx, omega, m)
        bpairs = stationary_states(bu, 2, hbar, m)
        bpointer = gaussian_packet(by, pointer_width, center=pointer_center)
        brute = pointer_measurement_brute(
            [1 / np.sqrt(2), 1 / np.sqrt(2)], bpairs, bpointer, bu, coupling,
            t_pair, dt=float(cfg.get("brute_dt", 2e-3)), hbar=hbar, m=m,
        )
        bmarg = pointer_marginal(brute)
        bsplit = pointer_center + coupling * t_pair * (bpairs[0][0] + bpairs[1][0]) / 2
        b_below, b_above = lobe_masses(bmarg, bsplit)
        brute_dev = max(abs(b_below - 0.5), abs(b_above - 0.5))
        metrics["lobe_deviation_brute"] = brute_dev
        criteria.append(
            Criterion("lobe_deviation_brute", brute_dev,
                      float(tol.get("lobe_brute", 2e-2)))
        )
        outputs.append(str(write_field_csv(bmarg, outdir / "marginal_brute.csv")))

    return metrics, criteria, outputs, 0


def _scenario_conditional_pair(cfg: ExperimentConfig, outdir: Path):
    hbar, m = cfg.constants()
    grid1 = _grid_from_config(cfg, 16.0, 128)
    grid2 = joint_grid(grid1, grid1)
    n_samples = _integer(cfg, "n_samples", 1000, minimum=1)
    seed = _integer(cfg, "seed", 9)
    omega = float(cfg.get("constants", {}).get("omega", 1.0))
    steps = _integer(cfg, "steps", 400, minimum=1)

    a = gaussian_packet(grid1, 0.7, center=-2.5, momentum=0.8, hbar=hbar)
    b = gaussian_packet(grid1, 0.7, center=2.5, momentum=-0.4, hbar=hbar)
    entangled = ConfigWaveField(
        WaveField(grid2, (np.outer(a.values, b.values)
                          + np.outer(b.values, a.values)) / np.sqrt(2)).normalized(),
        hbar=hbar, m1=m, m2=m,
    )

    # capped evaluations of the identity check (both routes), plus capped
    # trajectories of the three transports below
    guidance_events = NodeEvents()
    ens = sample_equilibrium(entangled.psi.density(), n_samples, seed, hbar, m)
    v_full = configuration_velocity(entangled).at(ens.positions, guidance_events)
    v_cond = np.stack([
        conditional_guiding_velocities(entangled, ens.positions, particle,
                                       guidance_events)
        for particle in (0, 1)
    ], axis=-1)
    worst = float(np.max(np.abs(v_cond - v_full)))

    # product state: pair transport reduces to independent 1D problems
    u1 = Potential.harmonic(grid1, omega, m)
    joint_pot = Potential.custom(
        ScalarField(grid2, u1.values[:, None] + u1.values[None, :])
    )
    product = ConfigWaveField(
        WaveField(grid2, np.outer(a.values, b.values)).normalized(),
        hbar=hbar, m1=m, m2=m,
    )
    period = 2 * np.pi / omega
    dt = period / steps
    timeline2 = OracleTimeline(product.psi, joint_pot, dt, hbar, m)
    pair0 = ParticlePair(float(cfg.get("x1", -2.2)), float(cfg.get("x2", 2.8)))
    pair_events = NodeEvents()
    moved = propagate_pair(product, timeline2, pair0, dt, steps, pair_events)
    tl_a = WaveTimeline.from_oracle(a, u1, dt, steps, hbar, m)
    tl_b = WaveTimeline.from_oracle(b, u1, dt, steps, hbar, m)
    single_a = propagate_ensemble(
        TrajectoryEnsemble(grid=grid1, positions=np.array([pair0.x1]), seed=0),
        tl_a, dt, steps, record_history=False,
    )
    single_b = propagate_ensemble(
        TrajectoryEnsemble(grid=grid1, positions=np.array([pair0.x2]), seed=0),
        tl_b, dt, steps, record_history=False,
    )
    pair_gap = max(
        abs(moved.x1 - single_a.ensemble.positions[0]),
        abs(moved.x2 - single_b.ensemble.positions[0]),
    )

    metrics = {
        "identity_max_error": worst,
        "product_pair_gap": pair_gap,
    }
    tol = cfg.get("tolerances", {})
    criteria = [
        Criterion("identity_max_error", worst, float(tol.get("identity", 1e-6))),
        Criterion("product_pair_gap", pair_gap, float(tol.get("pair_gap", 1e-6))),
    ]
    hist_rows = [
        [0, j * dt, moved.history[j, 0], moved.history[j, 1]]
        for j in range(0, moved.history.shape[0], max(1, steps // 64))
    ]
    outputs = [
        str(_write_table(outdir / "pair_history.csv",
                         ["pair_id", "t", "x1", "x2"], hist_rows)),
    ]
    capped = (guidance_events.capped + int(pair_events.capped > 0)
              + single_a.capped_trajectories + single_b.capped_trajectories)
    return metrics, criteria, outputs, capped


SCENARIOS = {
    "oracle-evolve": _scenario_oracle_evolve,
    "madelung-compare": _scenario_madelung_compare,
    "twofluid-verify": _scenario_twofluid_verify,
    "equivariance": _scenario_equivariance,
    "relaxation": _scenario_relaxation,
    "measurement": _scenario_measurement,
    "conditional-pair": _scenario_conditional_pair,
}

_COMMON_KEYS = {"constants", "grid", "tolerances"}
SCENARIO_KEYS = {
    "oracle-evolve": {"kind", "dt", "steps", "t_end", "displacement", "width",
                      "mode"},
    "madelung-compare": {"dt", "width", "momentum", "snapshot_windows",
                         "madelung_dt", "t_end"},
    "twofluid-verify": {"width", "delta_t", "n_micro", "micro_substeps"},
    "equivariance": {"steps", "seed", "n_trajectories", "bins", "checkpoints"},
    "relaxation": {"steps", "seed", "n_trajectories", "cell_size", "checkpoints",
                   "phase_seed", "start_half_width", "mode_index", "omega_y"},
    "measurement": {"y_extent", "y_points", "pointer_width", "pointer_center",
                    "single_mode", "duration_single", "duration_pair",
                    "run_brute", "brute_points", "brute_dt"},
    "conditional-pair": {"steps", "seed", "n_samples", "x1", "x2"},
}


def _validate_keys(cfg: ExperimentConfig):
    allowed = _COMMON_KEYS | SCENARIO_KEYS[cfg.scenario]
    unknown = set(cfg.params) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for scenario {cfg.scenario!r}: "
            f"{', '.join(sorted(unknown))}; allowed: {', '.join(sorted(allowed))}"
        )

# sweep metric per scenario: the quantity whose convergence is studied
SWEEP_METRICS = {
    "oracle-evolve": "terminal_error",
    "madelung-compare": "residual_continuity",
    "twofluid-verify": "rel_err_vs_gradQ",
    "equivariance": "l1_max",
}


def _resolve_outdir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    base = Path(cfg.output_dir) if cfg.output_dir else Path("runs") / cfg.scenario
    if root:
        base = Path(root) / base
    return base


def run(cfg: ExperimentConfig, outdir=None) -> RunManifest:
    """Execute one scenario, write CSV artifacts plus run_manifest.json."""
    _validate_keys(cfg)
    outdir = Path(outdir) if outdir is not None else _resolve_outdir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    metrics, criteria, outputs, capped = SCENARIOS[cfg.scenario](cfg, outdir)
    relative = [
        str(Path(p).relative_to(outdir)) if Path(p).is_absolute() else str(p)
        for p in outputs
    ]
    manifest = RunManifest(
        scenario=cfg.scenario,
        config=cfg.to_dict(),
        metrics={k: float(v) for k, v in metrics.items()},
        criteria=criteria,
        outputs=sorted(relative),
        capping_events=capped,
        wall_time_s=time.perf_counter() - started,
    )
    manifest.write(outdir)
    return manifest


@dataclass
class SweepResult:
    parameter: str
    values: list[float]
    metrics: list[float]
    fitted_order: float
    manifests: list[RunManifest]

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "values": self.values,
            "metrics": self.metrics,
            "fitted_order": self.fitted_order,
        }


def sweep(cfg: ExperimentConfig, parameter: str, values: list[float],
          outdir=None) -> SweepResult:
    """One run per parameter value plus a log-log convergence fit."""
    if len(values) < 3:
        raise ConfigError("a sweep needs at least 3 parameter values")
    if cfg.scenario not in SWEEP_METRICS:
        raise ConfigError(f"scenario {cfg.scenario!r} has no sweep metric")
    metric_name = SWEEP_METRICS[cfg.scenario]
    bad = [v for v in values if not (np.isfinite(v) and v > 0)]
    if bad:
        raise ConfigError(
            f"sweep values must be positive and finite for the log-log fit, "
            f"got {bad!r}"
        )
    if parameter in ("n_trajectories", "steps"):
        values = [_as_integer(parameter, v) for v in values]
    outdir = Path(outdir) if outdir is not None else _resolve_outdir(cfg) / "sweep"
    outdir.mkdir(parents=True, exist_ok=True)
    metrics = []
    manifests = []
    for i, value in enumerate(values):
        params = dict(cfg.params)
        params[parameter] = value
        sub = ExperimentConfig(scenario=cfg.scenario, params=params)
        manifest = run(sub, outdir / f"value_{i}")
        if metric_name not in manifest.metrics:
            raise ConfigError(
                f"scenario did not report sweep metric {metric_name!r}"
            )
        metric = manifest.metrics[metric_name]
        if not (np.isfinite(metric) and metric > 0):
            raise ConfigError(
                f"sweep metric {metric_name!r} is {metric!r} at {parameter}={value!r}; "
                "a log-log fit needs positive finite values"
            )
        metrics.append(metric)
        manifests.append(manifest)
    order = float(np.polyfit(np.log(values), np.log(metrics), 1)[0])
    result = SweepResult(parameter, [float(v) for v in values], metrics,
                         order, manifests)
    _write_table(outdir / "sweep.csv",
                 [parameter, metric_name],
                 [[v, m] for v, m in zip(result.values, result.metrics)])
    _write_json(outdir / "sweep_manifest.json", result.to_dict())
    return result


@dataclass
class ReportSummary:
    total: int
    passed: int
    failures: list[str]
    integrity_errors: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.integrity_errors and self.total > 0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failures": self.failures,
            "integrity_errors": self.integrity_errors,
            "overall_pass": self.ok,
        }


def report(directory, outdir=None) -> ReportSummary:
    """Aggregate run manifests under a directory into one verdict."""
    directory = Path(directory)
    manifest_paths = sorted(directory.rglob("run_manifest.json"))
    if not manifest_paths:
        raise ConfigError(f"no run manifests found under {directory}")
    failures = []
    integrity = []
    passed = 0
    for path in manifest_paths:
        doc = json.loads(path.read_text())
        if not doc.get("metrics"):
            integrity.append(f"{path}: empty metrics block")
            continue
        if any(v is None for v in doc["metrics"].values()):
            integrity.append(f"{path}: null metric value")
            continue
        bad = sorted(k for k, v in doc["metrics"].items()
                     if not (isinstance(v, (int, float)) and np.isfinite(v)))
        if bad:
            integrity.append(f"{path}: non-finite metric value ({', '.join(bad)})")
            continue
        if doc.get("passed"):
            passed += 1
        else:
            failed = [c["name"] for c in doc.get("criteria", []) if not c["pass"]]
            failures.append(f"{doc['scenario']} ({path}): {', '.join(failed)}")
    summary = ReportSummary(
        total=len(manifest_paths),
        passed=passed,
        failures=failures,
        integrity_errors=integrity,
    )
    outdir = Path(outdir) if outdir is not None else directory
    _write_json(outdir / "report.json", summary.to_dict())
    lines = [
        f"runs: {summary.total}  passed: {summary.passed}",
    ]
    lines += [f"FAIL {f}" for f in summary.failures]
    lines += [f"INTEGRITY {e}" for e in summary.integrity_errors]
    lines.append("overall: " + ("PASS" if summary.ok else "FAIL"))
    (outdir / "report.txt").write_text("\n".join(lines) + "\n")
    return summary
