"""Batch scenarios: declarative configs in, CSV artifacts and manifests out.

SCHEMAS holds one row per scenario: the function that runs it, its keys
(name, kind and default), its tolerances and default grid, the metric a
sweep fits and the step that turns a t_end into a step count. run() checks a
config against the row and hands the scenario the checked values; the
scenario writes its data files, and the RunManifest carries one pass/fail
verdict per acceptance check in scope.
The config plus the code version fixes every output byte (the manifest's
wall_time_s field is the one exception).
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

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
    random_phase_superposition,
    split_step_evolve,
    stationary_states,
)
from .madelung import (
    decompose,
    madelung_step,
    quantum_potential,
    residuals_from_snapshots,
)
from .twofluid import TwoFluidConfig, averaged_acceleration, micro_acceleration
from .ensemble import (
    NodeEvents,
    OracleTimeline,
    TrajectoryEnsemble,
    WaveTimeline,
    _checked_bins,
    _coarse_bins,
    _fork_join,
    bootstrap_coarse_H,
    coarse_grained_H,
    equivariance_distance,
    propagate_ensemble,
    sample_equilibrium,
)
from .conditional import ConfigWaveField, _identity_error
from .measurement import (
    _whole_steps,
    joint_grid,
    lobe_masses,
    marginal_mean,
    pointer_marginal,
    pointer_measurement_brute,
    pointer_measurement_evolve,
)

__all__ = ["ExperimentConfig", "RunManifest", "Criterion", "run", "sweep", "report",
           "SCHEMAS", "OUTPUT_ROOT_ENV"]

OUTPUT_ROOT_ENV = "QFLUID_OUTPUT_ROOT"


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
        if scenario not in SCHEMAS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; choose from {sorted(SCHEMAS)}"
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


def _scenario_oracle_evolve(p: SimpleNamespace, outdir: Path):
    grid, hbar, m, omega = p.grid, p.hbar, p.m, p.omega
    if p.kind == "harmonic-ground":
        psi0 = harmonic_ground_state(grid, omega, hbar, m)
        potential = Potential.harmonic(grid, omega, m)
        reference = lambda t: psi0
    elif p.kind == "harmonic-coherent":
        psi0 = coherent_state(grid, omega, p.displacement, 0.0, hbar, m)
        potential = Potential.harmonic(grid, omega, m)
        reference = lambda t: coherent_state(grid, omega, p.displacement, t, hbar, m)
    elif p.kind == "free-gaussian":
        psi0 = gaussian_packet(grid, p.width, hbar=hbar)
        potential = Potential.free(grid)
        reference = None
    else:  # plane-wave
        psi0 = plane_wave(grid, p.mode)
        potential = Potential.free(grid)
        reference = None

    state = PropagatorState(psi0, 0.0, p.dt, hbar, m)
    e0 = energy_expectation(state, potential)
    final = split_step_evolve(state, potential, p.steps)
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
    criteria = [
        Criterion("unitarity_drift", metrics["norm_drift"], p.tolerances.norm_drift),
        Criterion("energy_drift_rel", metrics["energy_drift_rel"],
                  p.tolerances.energy_drift_rel),
    ]
    outputs = [str(write_field_csv(final.psi, outdir / "psi_final.csv"))]
    return metrics, criteria, outputs, 0


def _scenario_madelung_compare(p: SimpleNamespace, outdir: Path):
    grid, hbar, m = p.grid, p.hbar, p.m
    potential = Potential.free(grid)

    # residuals from consecutive oracle snapshots at several times
    psi0 = gaussian_packet(grid, p.width, momentum=p.momentum, hbar=hbar)
    state = PropagatorState(psi0, 0.0, p.dt, hbar, m)
    rows = []
    worst_cont = worst_mom = 0.0
    for _ in range(p.snapshot_windows):
        prev = state
        mid = split_step_evolve(prev, potential, 1)
        nxt = split_step_evolve(mid, potential, 1)
        res = residuals_from_snapshots(
            prev.psi, mid.psi, nxt.psi, potential, p.dt, hbar, m,
        )
        rows.append([mid.t, res.continuity, res.momentum])
        worst_cont = max(worst_cont, res.continuity)
        worst_mom = max(worst_mom, res.momentum)
        state = split_step_evolve(nxt, potential, 18)

    # direct integration of the hydrodynamic system vs the oracle, over
    # t_end in steps of madelung_dt
    psi_plain = gaussian_packet(grid, p.width, hbar=hbar)
    state = decompose(psi_plain, hbar, m)
    renorm_max = 0.0
    for _ in range(p.steps):
        state = madelung_step(state, potential, p.madelung_dt)
        renorm_max = max(renorm_max, state.last_renorm)
    oracle_final = split_step_evolve(
        PropagatorState(psi_plain, 0.0, p.madelung_dt, hbar, m), potential, p.steps
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
    tol = p.tolerances
    criteria = [
        Criterion("residual_continuity", worst_cont, tol.residual),
        Criterion("residual_momentum", worst_mom, tol.residual),
        Criterion("rho_l2_vs_oracle", rho_err, tol.rho_l2),
    ]
    outputs = [
        str(_write_table(outdir / "residuals.csv",
                         ["t", "r_continuity", "r_momentum"], rows)),
        str(write_field_csv(state.rho, outdir / "rho_final.csv")),
        str(write_field_csv(quantum_potential(state.rho, hbar, m),
                            outdir / "quantum_potential.csv")),
    ]
    outputs += [str(path) for path in write_vector_csv(state.v, outdir / "velocity.csv")]
    return metrics, criteria, outputs, 0


def _scenario_twofluid_verify(p: SimpleNamespace, outdir: Path):
    hbar, m = p.hbar, p.m

    # periodized so the density is genuinely smooth across the seam and
    # never reaches the regularization floor anywhere on the grid
    rho = periodic_gaussian_density(p.grid, p.width)
    two = TwoFluidConfig.make(delta_t=p.delta_t, N_micro=p.n_micro, D=p.D, hbar=hbar, m=m,
                              micro_substeps=p.micro_substeps)
    D = two.D
    acc = averaged_acceleration(rho, two)
    grad_q = gradient(quantum_potential(rho, hbar, m))
    grad_q_over_m = grad_q.components[0] / m
    rel_err = _rel_l2(acc.components[0], grad_q_over_m)

    # fit basis: -grad(lap(sqrt(rho))/sqrt(rho)), i.e. the unit-D reference over 2
    basis = micro_acceleration(rho, 1.0).components[0] / 2.0
    c_fit = float(np.dot(acc.components[0], basis) / np.dot(basis, basis))
    coeff_dev = abs(c_fit - 2 * D * D) / (2 * D * D)

    metrics = {
        "rel_err_vs_gradQ": rel_err,
        "fit_coefficient": c_fit,
        "fit_coefficient_rel_dev": coeff_dev,
    }
    criteria = [
        Criterion("rel_err_vs_gradQ", rel_err, p.tolerances.rel_err),
        Criterion("fit_coefficient_rel_dev", coeff_dev, p.tolerances.coeff_dev),
    ]
    outputs = [
        str(_write_table(outdir / "convergence.csv",
                         ["delta_t", "N_micro", "D", "rel_err_vs_gradQ"],
                         [[p.delta_t, p.n_micro, D, rel_err]])),
        str(write_field_csv(quantum_potential(rho, hbar, m),
                            outdir / "quantum_potential.csv")),
    ]
    outputs += [str(path) for path in write_vector_csv(acc, outdir / "averaged_acceleration.csv")]
    return metrics, criteria, outputs, 0


def _scenario_equivariance(p: SimpleNamespace, outdir: Path):
    grid, hbar, m = p.grid, p.hbar, p.m
    n_traj, steps, bins, seed = p.n_trajectories, p.steps, p.bins, p.seed

    potential = Potential.harmonic(grid, p.omega, m)
    pairs = stationary_states(potential, 2, hbar, m)
    psi0 = WaveField(
        grid, (pairs[0][1].values + pairs[1][1].values) / np.sqrt(2)
    ).normalized()
    period = 2 * np.pi / p.omega
    dt = period / steps
    current = sample_equilibrium(psi0.density(), n_traj, seed)

    # propagate checkpoint to checkpoint; keeping the full history of 1e5
    # trajectories would cost half a gigabyte for nothing, so only the first
    # n_sample trajectories' positions are kept, one row per step (a copy,
    # so that no view keeps the start positions alive past the first chunk)
    n_sample = min(100, n_traj)
    sample = [current.positions[:n_sample].copy()]
    rows = []
    l1_max = 0.0
    capped_total = 0
    ever_degraded = False
    chunk = steps // p.checkpoints
    psi = psi0
    for c in range(1, p.checkpoints + 1):
        # one checkpoint's fields at a time: each chunk's timeline evolves on
        # from the last field of the one before, the same split-step sequence
        timeline = WaveTimeline.from_oracle(psi, potential, dt, chunk, hbar, m)
        result = propagate_ensemble(current, timeline, chunk,
                                    record_history=n_sample)
        current = result.ensemble
        sample.extend(current.history[1:])
        capped_total += result.capped_trajectories
        ever_degraded = ever_degraded or result.degraded
        t = c * chunk * dt
        psi = timeline.fields[-1]
        l1 = equivariance_distance(current, psi, bins)
        h_coarse = coarse_grained_H(current, psi, p.h_cell)
        rows.append([t, l1, h_coarse])
        l1_max = max(l1_max, l1)

    metrics = {
        "l1_max": l1_max,
        "capped_fraction": capped_total / n_traj,
        "degraded": float(ever_degraded),
    }
    criteria = [
        Criterion("l1_max", l1_max, p.tolerances.l1),
        Criterion("degraded", metrics["degraded"], 0.0),
    ]
    traj_rows = []
    for tid in range(n_sample):
        for j in range(0, len(sample), max(1, steps // 32)):
            traj_rows.append([tid, j * dt, sample[j][tid]])
    outputs = [
        str(_write_table(outdir / "equivariance.csv", ["t", "L1", "H_coarse"], rows)),
        str(_write_table(outdir / "trajectories.csv", ["traj_id", "t", "x"], traj_rows)),
    ]
    return metrics, criteria, outputs, capped_total


def _scenario_relaxation(p: SimpleNamespace, outdir: Path):
    grid, hbar, m, steps, cell = p.grid, p.hbar, p.m, p.steps, p.cell_size
    # the slow axis defaults to the golden ratio times omega: incommensurate
    omega_y = (p.omega_y if p.omega_y is not None
               else float(p.omega * 0.5 * (1 + np.sqrt(5.0))))
    psi0, joint = random_phase_superposition(grid, p.omega, omega_y, p.mode_index,
                                             p.phase_seed, hbar, m)

    period = 2 * np.pi / p.omega
    dt = period / steps
    rng_pos = np.random.default_rng(p.seed)
    positions = rng_pos.uniform(-p.start_half_width, p.start_half_width,
                                (p.n_trajectories, 2))
    current = TrajectoryEnsemble(grid=grid, positions=positions)
    timeline = OracleTimeline(psi0, joint, dt, hbar, m)

    rows = []
    h0, lo, hi = bootstrap_coarse_H(current, psi0, cell, seed=500)
    rows.append([0.0, h0, lo, hi])
    # the timeline drops its first field once it has moved past it
    del psi0
    capped = 0
    chunk = steps // p.checkpoints
    worst_excess = -np.inf
    for c in range(p.checkpoints):
        res = propagate_ensemble(current, timeline, chunk,
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
    criteria = [
        Criterion("decay_fraction", decay, p.tolerances.decay, ">="),
        Criterion("worst_increase_minus_band", worst_excess, 0.0),
    ]
    outputs = [
        str(_write_table(outdir / "relaxation.csv",
                         ["t", "H_coarse", "boot_lo", "boot_hi"], rows)),
    ]
    return metrics, criteria, outputs, capped


def _scenario_measurement(p: SimpleNamespace, outdir: Path):
    grid_x, hbar, m, omega = p.grid, p.hbar, p.m, p.omega
    coupling = getattr(p, "lambda")
    grid_y = GridSpec.centered(p.y_extent, p.y_points)
    pointer_width, pointer_center = p.pointer_width, p.pointer_center
    k_single, t_single, t_pair = p.single_mode, p.duration_single, p.duration_pair

    potential = Potential.harmonic(grid_x, omega, m)
    pairs = stationary_states(potential, max(k_single + 1, 2), hbar, m)
    pointer = gaussian_packet(grid_y, pointer_width, center=pointer_center)

    coeffs_single = [0.0] * len(pairs)
    coeffs_single[k_single] = 1.0
    # each 1 MB joint state is dropped once its marginal (and norm) is read
    marg_single = pointer_marginal(pointer_measurement_evolve(
        coeffs_single, pairs, pointer, coupling, t_single, hbar))
    expected_mean = pointer_center + coupling * pairs[k_single][0] * t_single
    mean_err = abs(marginal_mean(marg_single) - expected_mean)

    c_pair = [1 / np.sqrt(2), 1 / np.sqrt(2)] + [0.0] * (len(pairs) - 2)
    joint_pair = pointer_measurement_evolve(c_pair, pairs, pointer,
                                            coupling, t_pair, hbar)
    marg_pair = pointer_marginal(joint_pair)
    norm_drift = abs(joint_pair.norm() - 1.0)
    del joint_pair
    split = pointer_center + coupling * t_pair * (pairs[0][0] + pairs[1][0]) / 2
    below, above = lobe_masses(marg_pair, split)
    lobe_dev = max(abs(below - 0.5), abs(above - 0.5))

    metrics = {
        "pointer_mean_error": mean_err,
        "grid_spacing_y": grid_y.spacing[0],
        "lobe_mass_below": below,
        "lobe_mass_above": above,
        "lobe_deviation_closed": lobe_dev,
        "joint_norm_drift": norm_drift,
    }
    tol = p.tolerances
    criteria = [
        Criterion("pointer_mean_error", mean_err,
                  tol.mean_err if tol.mean_err is not None else grid_y.spacing[0]),
        Criterion("lobe_deviation_closed", lobe_dev, tol.lobe_closed),
    ]
    outputs = [
        str(write_field_csv(marg_single, outdir / "marginal_single.csv")),
        str(write_field_csv(marg_pair, outdir / "marginal_pair.csv")),
    ]

    if p.run_brute:
        bx = GridSpec.centered(grid_x.extent[0], p.brute_points)
        by = GridSpec.centered(p.y_extent, p.brute_points)
        bu = Potential.harmonic(bx, omega, m)
        bpairs = stationary_states(bu, 2, hbar, m)
        bpointer = gaussian_packet(by, pointer_width, center=pointer_center)
        brute = pointer_measurement_brute(
            [1 / np.sqrt(2), 1 / np.sqrt(2)], bpairs, bpointer, bu, coupling,
            t_pair, dt=p.brute_dt, hbar=hbar, m=m,
        )
        bmarg = pointer_marginal(brute)
        bsplit = pointer_center + coupling * t_pair * (bpairs[0][0] + bpairs[1][0]) / 2
        b_below, b_above = lobe_masses(bmarg, bsplit)
        brute_dev = max(abs(b_below - 0.5), abs(b_above - 0.5))
        metrics["lobe_deviation_brute"] = brute_dev
        criteria.append(Criterion("lobe_deviation_brute", brute_dev, tol.lobe_brute))
        outputs.append(str(write_field_csv(bmarg, outdir / "marginal_brute.csv")))

    return metrics, criteria, outputs, 0


def _scenario_conditional_pair(p: SimpleNamespace, outdir: Path):
    grid1, hbar, m, steps = p.grid, p.hbar, p.m, p.steps
    grid2 = joint_grid(grid1, grid1)

    a = gaussian_packet(grid1, 0.7, center=-2.5, momentum=0.8, hbar=hbar)
    b = gaussian_packet(grid1, 0.7, center=2.5, momentum=-0.4, hbar=hbar)
    u1 = Potential.harmonic(grid1, p.omega, m)
    dt = 2 * np.pi / p.omega / steps  # steps cover one trap period
    # a worker may run the identity check and the single-particle transports;
    # it sends the identity error, the singles' end positions, and the capped
    # evaluations of both routes plus the capped singles (exact in floats)
    sent = np.empty(4)

    def independent():
        events = NodeEvents()
        entangled = ConfigWaveField(
            WaveField(grid2, (np.outer(a.values, b.values)
                              + np.outer(b.values, a.values)) / np.sqrt(2)).normalized(),
            hbar=hbar, m1=m, m2=m,
        )
        ens = sample_equilibrium(entangled.psi.density(), p.n_samples, p.seed)
        sent[0] = _identity_error(entangled, ens.positions, events)
        del entangled, ens
        sent[3] = events.capped
        for i, (x, packet) in enumerate(((p.x1, a), (p.x2, b))):
            single = propagate_ensemble(
                TrajectoryEnsemble(grid=grid1, positions=np.array([x])),
                OracleTimeline(packet, u1, dt, hbar, m), steps, record_history=False,
            )
            sent[1 + i] = single.ensemble.positions[0]
            sent[3] += single.capped_trajectories

    def joint():  # product state: pair transport reduces to independent 1D problems
        joint_pot = Potential(ScalarField(grid2, u1.values[:, None] + u1.values[None, :]))
        return propagate_ensemble(
            TrajectoryEnsemble(grid=grid2, positions=np.array([[p.x1, p.x2]])),
            OracleTimeline(WaveField(grid2, np.outer(a.values, b.values)).normalized(),
                           joint_pot, dt, hbar, m), steps,
        )

    pair = _fork_join([(joint, ()), (independent, (sent,))])
    worst = float(sent[0])
    moved, history = pair.ensemble.positions[0], pair.ensemble.history[:, 0]
    # positions wrap into the ring, so the gap is the minimum-image distance
    gaps = np.abs(moved - sent[1:3])
    pair_gap = float(np.minimum(gaps, grid1.extent[0] - gaps).max())

    metrics = {
        "identity_max_error": worst,
        "product_pair_gap": pair_gap,
    }
    criteria = [
        Criterion("identity_max_error", worst, p.tolerances.identity),
        Criterion("product_pair_gap", pair_gap, p.tolerances.pair_gap),
    ]
    hist_rows = [
        [0, j * dt, history[j, 0], history[j, 1]]
        for j in range(0, history.shape[0], max(1, steps // 64))
    ]
    outputs = [
        str(_write_table(outdir / "pair_history.csv",
                         ["pair_id", "t", "x1", "x2"], hist_rows)),
    ]
    return metrics, criteria, outputs, pair.capped_trajectories + int(sent[3])


# ----------------------------------------------------------------------
# config schema

# Value kinds: "count" is an integer >= 1, "index" an integer >= 0, "points"
# an integer >= 8, "integer" any integer, "real" a finite number (not a bool
# or a string), "positive" a finite number > 0, "flag" a JSON boolean,
# "indices" a non-empty list of indices and "object" a JSON object; a tuple
# lists the allowed strings. A key whose default is None may be left out.
_INTEGER_MINIMUM = {"count": 1, "index": 0, "points": 8, "integer": None}
_FLOAT_MAX = float(np.finfo(float).max)

# the constants object of every scenario; a D left out is resolved by
# TwoFluidConfig.make
_CONSTANTS = {"hbar": ("positive", 1.0), "m": ("positive", 1.0), "D": ("positive", None),
              "omega": ("positive", 1.0), "lambda": ("real", 1.0)}


@dataclass(frozen=True)
class Schema:
    """One scenario: run(values, outdir) does the work; it accepts keys as
    key -> (kind, default), tolerances as name -> default (reals), and the
    default grid (extent, points). Grid extent, points and origin are one
    number or one per axis. sweep_metric is the metric whose convergence a
    sweep fits (None: no sweeps), and t_end_dt the key whose step a t_end
    is divided by to give steps (None: no t_end key)."""

    run: Callable
    keys: dict
    tolerances: dict
    grid: tuple
    sweep_metric: str | None = None
    t_end_dt: str | None = None


SCHEMAS = {
    "oracle-evolve": Schema(
        _scenario_oracle_evolve,
        keys={"kind": (("harmonic-coherent", "harmonic-ground", "free-gaussian",
                        "plane-wave"), "harmonic-coherent"),
              "dt": ("positive", 1e-3), "steps": ("count", 6283),
              "t_end": ("positive", None),  # instead of steps: round(t_end / dt)
              "displacement": ("real", 2.0), "width": ("positive", 1.0),
              "mode": ("integer", 3)},
        tolerances={"norm_drift": 1e-9, "energy_drift_rel": 1e-6}, grid=(24.0, 512),
        sweep_metric="terminal_error", t_end_dt="dt"),
    "madelung-compare": Schema(
        _scenario_madelung_compare,
        keys={"dt": ("positive", 1e-3), "width": ("positive", 1.0),
              "momentum": ("real", 2.0), "snapshot_windows": ("count", 5),
              "madelung_dt": ("positive", 1e-4),
              "t_end": ("positive", 0.5)},  # round(t_end / madelung_dt) steps
        tolerances={"residual": 1e-3, "rho_l2": 1e-3}, grid=(24.0, 256),
        sweep_metric="residual_continuity", t_end_dt="madelung_dt"),
    # the carrier is static, so every micro-interval is the same and no
    # metric depends on n_micro: it must be >= 8 and is echoed in convergence.csv
    "twofluid-verify": Schema(
        _scenario_twofluid_verify,
        keys={"width": ("positive", 1.0), "delta_t": ("positive", 1e-4),
              "n_micro": ("count", 16), "micro_substeps": ("count", 1)},
        tolerances={"rel_err": 1e-3, "coeff_dev": 5e-3}, grid=(12.0, 512),
        sweep_metric="rel_err_vs_gradQ"),
    "equivariance": Schema(
        _scenario_equivariance,
        keys={"steps": ("count", 640), "seed": ("index", 42),
              "n_trajectories": ("count", 100000), "bins": ("count", 64),
              "checkpoints": ("count", 10)},  # must divide steps
        tolerances={"l1": 0.03}, grid=(24.0, 512), sweep_metric="l1_max"),
    "relaxation": Schema(
        _scenario_relaxation,
        keys={"steps": ("count", 1200), "seed": ("index", 102),
              "n_trajectories": ("count", 20000), "cell_size": ("count", 8),
              "checkpoints": ("count", 10),  # must divide steps
              "phase_seed": ("index", 2), "start_half_width": ("positive", 2.5),
              "mode_index": ("indices", [2, 3, 5, 7]),
              "omega_y": ("positive", None)},  # default: golden ratio x omega
        tolerances={"decay": 0.5}, grid=((20.0, 20.0), (128, 128))),
    "measurement": Schema(
        _scenario_measurement,
        keys={"y_extent": ("positive", 16.0), "y_points": ("points", 256),
              "pointer_width": ("positive", 0.5), "pointer_center": ("real", -4.0),
              "single_mode": ("index", 2), "duration_single": ("positive", 2.0),
              "duration_pair": ("positive", 4.0), "run_brute": ("flag", True),
              "brute_points": ("points", 128), "brute_dt": ("positive", 2e-3)},
        # mean_err defaults to the pointer grid's spacing
        tolerances={"mean_err": None, "lobe_closed": 1e-3, "lobe_brute": 2e-2},
        grid=(24.0, 256)),
    "conditional-pair": Schema(
        _scenario_conditional_pair,
        keys={"steps": ("count", 400), "seed": ("index", 9),
              "n_samples": ("count", 1000), "x1": ("real", -2.2), "x2": ("real", 2.8)},
        tolerances={"identity": 1e-6, "pair_gap": 1e-6}, grid=(16.0, 128)),
}


def _check(key: str, kind, value):
    """value as the kind says, or a ConfigError that names key."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ConfigError(f"config key {key!r} must be one of {', '.join(kind)}, "
                          f"got {value!r}")
    if kind in ("object", "flag"):
        if isinstance(value, dict if kind == "object" else bool):
            return value
        what = "a JSON object" if kind == "object" else "true or false"
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    if kind == "indices":
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"config key {key!r} must be a non-empty list of "
                              f"indices, got {value!r}")
        indices = [_check(f"{key}[{i}]", "index", v) for i, v in enumerate(value)]
        # the list is a set: a repeat would count its index twice
        for i, index in enumerate(indices):
            if index in indices[:i]:
                raise ConfigError(f"config key {key!r} names index {index} more "
                                  f"than once, got {value!r}")
        return indices
    # int() would truncate 2.7 to 2 and read true as 1; 640.0 is an integer;
    # an integer past the largest float would make isfinite raise
    integer = kind in _INTEGER_MINIMUM
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= _FLOAT_MAX or integer and value != int(value)):
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
    minimum = _INTEGER_MINIMUM.get(kind)
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {key!r} must be at least {minimum}, got {value!r}")
    if kind == "positive" and value <= 0:
        raise ConfigError(f"config key {key!r} must be positive, got {value!r}")
    return int(value) if integer else float(value)


def _filled(scenario: str, prefix: str, doc: dict, table: dict, axes=None) -> dict:
    """doc checked against table (key -> (kind, default)), every default
    filled in. With axes, a value is one number for every axis or a list of
    one per axis, and comes back as a tuple."""
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key(s) for scenario {scenario!r}: "
                          f"{', '.join(prefix + k for k in unknown)}; "
                          f"allowed: {', '.join(prefix + k for k in sorted(table))}")
    out = {}
    for key, (kind, default) in table.items():
        name, value = prefix + key, doc.get(key, default)
        if value is None and default is None:
            out[key] = None
        elif axes is None:
            out[key] = _check(name, kind, value)
        else:
            per_axis = value if isinstance(value, (list, tuple)) else [value] * axes
            if len(per_axis) != axes:
                raise ConfigError(f"config key {name!r} must be one number or {axes}, "
                                  f"got {value!r}")
            out[key] = tuple(_check(name, kind, v) for v in per_axis)
    return out


def _validate_keys(cfg: ExperimentConfig) -> SimpleNamespace:
    """The checked values of cfg with every default filled in: the scenario's
    keys, the constants, grid as a GridSpec and tolerances as a namespace.
    A t_end becomes the step count steps, and checkpoints must divide steps,
    as brute_dt must divide duration_pair.
    bins and cell_size must make bins the statistics accept, and bins also
    gives equivariance's H cell h_cell. Any bad key or value is a
    ConfigError that names it."""
    schema = SCHEMAS[cfg.scenario]
    objects = dict.fromkeys(("constants", "grid", "tolerances"), ("object", {}))
    v = _filled(cfg.scenario, "", cfg.params, {**schema.keys, **objects})
    c = _filled(cfg.scenario, "constants.", v.pop("constants"), _CONSTANTS)
    extent, points = schema.grid
    g = _filled(cfg.scenario, "grid.", v["grid"],
                {"extent": ("positive", extent), "points": ("points", points),
                 "origin": ("real", None)}, axes=np.size(points))
    v["grid"] = (GridSpec.centered(g["extent"], g["points"]) if g["origin"] is None
                 else GridSpec.regular(g["extent"], g["points"], g["origin"]))
    v["tolerances"] = SimpleNamespace(**_filled(
        cfg.scenario, "tolerances.", v["tolerances"],
        {name: ("real", default) for name, default in schema.tolerances.items()}))
    dt_key = schema.t_end_dt
    if dt_key and v["t_end"] is not None:
        if "steps" in cfg.params:
            raise ConfigError("config keys 't_end' and 'steps' exclude each other")
        v["steps"] = round(v["t_end"] / v[dt_key])
        if v["steps"] < 1:
            raise ConfigError(f"config key 't_end' ({v['t_end']!r}) is under half a "
                              f"step of {dt_key} ({v[dt_key]!r}): no step would run")
    # a trap mode must be one of the eigenstates a grid axis has, one per point
    for key in {"mode_index", "single_mode"} & v.keys():
        modes = min(v["grid"].points)
        if np.max(v[key]) >= modes:
            raise ConfigError(f"config key {key!r} ({v[key]}) names a mode past the "
                              f"grid's {modes} points per axis (modes 0 to {modes - 1})")
    if v.get("run_brute") and _whole_steps(v["duration_pair"], v["brute_dt"]) is None:
        raise ConfigError(f"config key 'brute_dt' ({v['brute_dt']!r}) must divide "
                          f"duration_pair ({v['duration_pair']!r}) into whole steps, "
                          f"at least one")
    if "checkpoints" in v and v["steps"] % v["checkpoints"]:
        raise ConfigError(f"config key 'checkpoints' ({v['checkpoints']}) must divide "
                          f"steps ({v['steps']}); the last steps would go unchecked")
    # the statistics' own checks, so that bins they reject stop the run
    # before any work rather than at its first checkpoint
    for key in {"bins", "cell_size"} & v.keys():
        try:
            if key == "bins":  # equivariance's H cells span one bin, at least 4 spacings
                _checked_bins(v["grid"], v["bins"])
                v["h_cell"] = max(4, v["grid"].points[0] // v["bins"])
            _coarse_bins(v["grid"], v["h_cell" if key == "bins" else key])
        except ConfigError as exc:
            raise ConfigError(f"config key {key!r} ({v[key]}): {exc}") from None
    return SimpleNamespace(**v, **c)


def _resolve_outdir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    base = Path(cfg.output_dir) if cfg.output_dir else Path("runs") / cfg.scenario
    if root:
        base = Path(root) / base
    return base


def run(cfg: ExperimentConfig, outdir=None) -> RunManifest:
    """Execute one scenario, write CSV artifacts plus run_manifest.json."""
    values = _validate_keys(cfg)
    outdir = Path(outdir) if outdir is not None else _resolve_outdir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    metrics, criteria, outputs, capped = SCHEMAS[cfg.scenario].run(values, outdir)
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
        raise ConfigError("a sweep needs at least 3 distinct parameter values")
    schema = SCHEMAS.get(cfg.scenario)
    if schema is None or schema.sweep_metric is None:
        raise ConfigError(f"scenario {cfg.scenario!r} has no sweep metric")
    metric_name = schema.sweep_metric
    bad = [v for v in values if not (np.isfinite(v) and v > 0)]
    if bad:
        raise ConfigError(
            f"sweep values must be positive and finite for the log-log fit, "
            f"got {bad!r}"
        )
    kind, _ = schema.keys.get(parameter, ("real", None))
    if kind in _INTEGER_MINIMUM:  # an integer key echoes as 20, not 20.0
        values = [_check(parameter, kind, v) for v in values]
    # a repeated value runs twice and skews the fit (20 and 20.0 are one)
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"sweep values must be distinct, got {parameter} "
                          f"{', '.join(map(repr, repeated))} more than once")
    subs = [ExperimentConfig(cfg.scenario, {**cfg.params, parameter: v}) for v in values]
    for sub in subs:  # every value is checked before the first run
        _validate_keys(sub)
    outdir = Path(outdir) if outdir is not None else _resolve_outdir(cfg) / "sweep"
    outdir.mkdir(parents=True, exist_ok=True)
    metrics = []
    manifests = []
    for i, (value, sub) in enumerate(zip(values, subs)):
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

    def lines(self) -> list[str]:
        """The verdict as report.txt and `qfluid report` print it."""
        return ([f"runs: {self.total}  passed: {self.passed}"]
                + [f"FAIL {f}" for f in self.failures]
                + [f"INTEGRITY {e}" for e in self.integrity_errors]
                + ["overall: " + ("PASS" if self.ok else "FAIL")])


def _manifest_problem(doc) -> str | None:
    """Why a parsed run manifest cannot be aggregated, or None."""
    if not isinstance(doc, dict):
        return "not a JSON object"
    metrics = doc.get("metrics")
    if not metrics:
        return "empty metrics block"
    if not isinstance(metrics, dict):
        return "metrics block is not a JSON object"
    if any(v is None for v in metrics.values()):
        return "null metric value"
    bad = sorted(k for k, v in metrics.items()
                 if not (isinstance(v, (int, float)) and np.isfinite(v)))
    if bad:
        return f"non-finite metric value ({', '.join(bad)})"
    if not doc.get("passed") and "scenario" not in doc:
        return "failed run names no scenario"
    criteria = doc.get("criteria", [])
    if not (isinstance(criteria, list)
            and all(isinstance(c, dict) and "name" in c and "pass" in c for c in criteria)):
        return "criterion without a name or pass flag"
    return None


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
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            integrity.append(f"{path}: not valid JSON")
            continue
        problem = _manifest_problem(doc)
        if problem:
            integrity.append(f"{path}: {problem}")
        elif doc.get("passed"):
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
    (outdir / "report.txt").write_text("\n".join(summary.lines()) + "\n")
    return summary
