"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values. Tolerances are fixed here, not configurable;
runtime budgets are asserted where the criterion carries one.
"""

import json
import time

import numpy as np

from conftest import field_l2, rel_l2
from qfluid.grids import GridSpec, WaveField, gradient
from qfluid.oracle import (
    Potential,
    PropagatorState,
    coherent_state,
    gaussian_packet,
    periodic_gaussian_density,
    split_step_evolve,
    stationary_states,
)
from qfluid.madelung import decompose, madelung_step, quantum_potential, residuals_from_snapshots
from qfluid.twofluid import TwoFluidConfig, averaged_acceleration, micro_acceleration, reaction_force
from qfluid.ensemble import sample_equilibrium, propagate_ensemble, WaveTimeline
from qfluid.experiments import ExperimentConfig, run


def _announce(number: int, label: str, detail: str):
    print(f"\nPASS criterion {number}: {label} ({detail})")


def test_criterion_1_quantum_potential_emergence(tmp_path):
    started = time.perf_counter()
    grid = GridSpec.centered(12.0, 512)
    rho = periodic_gaussian_density(grid, 1.0)
    grad_q_over_m = gradient(quantum_potential(rho)).components[0]

    errors = []
    for delta_t in (1e-4, 5e-5, 2.5e-5):
        cfg = TwoFluidConfig.make(delta_t=delta_t, N_micro=16)
        acc = averaged_acceleration(rho, cfg)
        errors.append(rel_l2(acc.components[0], grad_q_over_m))
    assert errors[0] <= 1e-3, f"relative error {errors[0]:.3e} above 1e-3"
    assert errors[0] > errors[1] > errors[2], f"no strict decrease: {errors}"

    # the averaged acceleration *is* the quantum force per unit mass, and the
    # reaction force on the carrier fluid opposes it
    cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
    acc = averaged_acceleration(rho, cfg)
    force = reaction_force(acc, rho, rho)
    assert rel_l2(force.approx.components[0], -grad_q_over_m) <= 1e-3

    elapsed = time.perf_counter() - started
    assert elapsed <= 10.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, "quantum-potential emergence",
              f"rel err {errors[0]:.2e} -> {errors[2]:.2e}, {elapsed:.1f}s")


def test_criterion_2_diffusion_coefficient_identification():
    grid = GridSpec.centered(12.0, 512)
    rho = periodic_gaussian_density(grid, 1.0)
    basis = micro_acceleration(rho, 1.0).components[0] / 2.0
    worst = 0.0
    for diffusion in (0.25, 0.5, 1.0):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16, D=diffusion)
        acc = averaged_acceleration(rho, cfg).components[0]
        fitted = float(np.dot(acc, basis) / np.dot(basis, basis))
        deviation = abs(fitted - 2 * diffusion**2) / (2 * diffusion**2)
        assert deviation <= 5e-3, f"D={diffusion}: fit off by {deviation:.2e}"
        worst = max(worst, deviation)
    _announce(2, "coefficient equals 2 D^2", f"worst rel dev {worst:.2e}")


def test_criterion_3_madelung_schrodinger_consistency():
    started = time.perf_counter()

    def residual_pair(points, dt):
        grid = GridSpec.centered(24.0, points)
        potential = Potential.free(grid)
        psi = gaussian_packet(grid, 1.0, momentum=2.0)
        prev = PropagatorState(psi, 0.0, dt)
        mid = split_step_evolve(prev, potential, 1)
        nxt = split_step_evolve(mid, potential, 1)
        res = residuals_from_snapshots(prev.psi, mid.psi, nxt.psi, potential, dt)
        return res.continuity, res.momentum

    coarse = residual_pair(256, 1e-3)
    fine = residual_pair(512, 5e-4)
    assert coarse[0] <= 1e-3 and coarse[1] <= 1e-3, f"residuals {coarse}"
    assert max(fine) <= 0.5 * max(coarse), "residuals did not halve"

    grid = GridSpec.centered(24.0, 256)
    potential = Potential.free(grid)
    psi0 = gaussian_packet(grid, 1.0)
    dt = 1e-4
    steps = round(0.5 / dt)
    state = decompose(psi0)
    for _ in range(steps):
        state = madelung_step(state, potential, dt)
    oracle = split_step_evolve(PropagatorState(psi0, 0.0, dt), potential, steps)
    density_gap = field_l2(
        state.rho.values - oracle.psi.density().values, grid
    )
    assert density_gap <= 1e-3

    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0, f"criterion 3 took {elapsed:.1f}s"
    _announce(3, "hydrodynamic route matches the propagator",
              f"residuals {max(coarse):.1e}, density gap {density_gap:.1e}, {elapsed:.1f}s")


def test_criterion_4_equivariance(tmp_path):
    started = time.perf_counter()
    manifest = run(
        ExperimentConfig.from_dict({
            "scenario": "equivariance",
            "n_trajectories": 100000,
            "steps": 640,
            "bins": 64,
            "checkpoints": 10,
            "seed": 42,
        }),
        tmp_path,
    )
    assert manifest.passed, f"metrics: {manifest.metrics}"
    assert manifest.metrics["l1_max"] <= 0.03
    assert manifest.metrics["degraded"] == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"criterion 4 took {elapsed:.1f}s"
    _announce(4, "equivariant transport",
              f"max L1 {manifest.metrics['l1_max']:.3f} over 10 checkpoints, {elapsed:.0f}s")


def test_criterion_5_relaxation_to_equilibrium(tmp_path):
    manifest = run(
        ExperimentConfig.from_dict({"scenario": "relaxation"}), tmp_path
    )
    assert manifest.passed, f"metrics: {manifest.metrics}"
    assert manifest.metrics["decay_fraction"] >= 0.5
    assert manifest.metrics["worst_increase_minus_band"] <= 0.0
    _announce(
        5, "coarse-grained relative entropy relaxes",
        f"decay {manifest.metrics['decay_fraction']:.0%}, "
        f"worst excess {manifest.metrics['worst_increase_minus_band']:+.3f}",
    )


def test_criterion_6_pointer_measurement(tmp_path):
    manifest = run(
        ExperimentConfig.from_dict({"scenario": "measurement"}), tmp_path
    )
    assert manifest.passed, f"metrics: {manifest.metrics}"
    assert manifest.metrics["pointer_mean_error"] <= manifest.metrics["grid_spacing_y"]
    assert manifest.metrics["lobe_deviation_closed"] <= 1e-3
    assert manifest.metrics["lobe_deviation_brute"] <= 2e-2
    _announce(
        6, "pointer shift and superposition lobes",
        f"mean err {manifest.metrics['pointer_mean_error']:.1e}, "
        f"lobes {manifest.metrics['lobe_deviation_closed']:.1e} closed / "
        f"{manifest.metrics['lobe_deviation_brute']:.1e} brute",
    )


def test_criterion_7_conditional_guidance(tmp_path):
    manifest = run(
        ExperimentConfig.from_dict(
            {"scenario": "conditional-pair", "n_samples": 1000}
        ),
        tmp_path,
    )
    assert manifest.passed, f"metrics: {manifest.metrics}"
    assert manifest.metrics["identity_max_error"] <= 1e-6
    assert manifest.metrics["product_pair_gap"] <= 1e-6
    assert manifest.capping_events == 0
    _announce(
        7, "conditional slices guide like the full gradient",
        f"identity {manifest.metrics['identity_max_error']:.1e}, "
        f"pair gap {manifest.metrics['product_pair_gap']:.1e}",
    )


def test_criterion_8_oracle_integrity(grid512, harmonic512, ground512):
    state = PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, 1e-3)
    drift = abs(split_step_evolve(state, harmonic512, 10000).psi.norm() - 1.0)
    assert drift <= 1e-9

    period = 2 * np.pi
    errors, dts = [], [2e-2, 1e-2, 5e-3, 2.5e-3]
    for dt in dts:
        steps = round(period / dt)
        out = split_step_evolve(
            PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, period / steps),
            harmonic512, steps,
        )
        errors.append(field_l2(
            out.psi.values - coherent_state(grid512, 1.0, 2.0, period).values,
            grid512,
        ))
    order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    assert abs(order - 2.0) <= 0.2

    dt = 1e-3
    out = split_step_evolve(
        PropagatorState(ground512, 0.0, dt), harmonic512, round(10 * period / dt)
    )
    stationarity = field_l2(
        out.psi.density().values - ground512.density().values, grid512
    )
    assert stationarity <= 1e-8
    _announce(
        8, "propagator integrity",
        f"unitarity {drift:.1e}, order {order:.2f}, stationary {stationarity:.1e}",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {"scenario": "twofluid-verify"}
    run(ExperimentConfig.from_dict(cfg), tmp_path / "first")
    run(ExperimentConfig.from_dict(cfg), tmp_path / "second")
    compared = 0
    for path in sorted((tmp_path / "first").glob("*.csv")):
        twin = tmp_path / "second" / path.name
        assert path.read_bytes() == twin.read_bytes(), f"{path.name} differs"
        compared += 1
    assert compared >= 2
    m1 = json.loads((tmp_path / "first" / "run_manifest.json").read_text())
    m2 = json.loads((tmp_path / "second" / "run_manifest.json").read_text())
    m1.pop("wall_time_s")
    m2.pop("wall_time_s")
    assert m1 == m2

    # trajectory histories replay bit for bit as well
    grid = GridSpec.centered(24.0, 256)
    potential = Potential.harmonic(grid, 1.0)
    pairs = stationary_states(potential, 2)
    psi0 = WaveField(
        grid, (pairs[0][1].values + pairs[1][1].values) / np.sqrt(2)
    ).normalized()
    timeline = WaveTimeline.from_oracle(psi0, potential, 0.02, 40)
    ens = sample_equilibrium(psi0.density(), 500, seed=2024)
    h1 = propagate_ensemble(ens, timeline, 40).ensemble.history
    h2 = propagate_ensemble(ens, timeline, 40).ensemble.history
    assert np.array_equal(h1, h2)
    _announce(9, "byte-identical replay", f"{compared} data files compared")
