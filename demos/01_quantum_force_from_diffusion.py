"""Diffusion with jumps reproduces the quantum-potential force.

A second fluid diffuses down the gradient of a static carrier density and
snaps back to it after every micro-interval. Averaging its parcel
acceleration over a window of such cycles produces, to leading order in the
micro-step, exactly grad(Q)/m where Q is the quantum potential of the
carrier — once the diffusion constant is hbar/2m. This script shows the
identification converging as the micro-interval shrinks, and the fitted
proportionality constant tracking 2 D^2 across diffusion constants.
"""

import numpy as np

from qfluid import GridSpec, gradient, quantum_potential
from qfluid.oracle import periodic_gaussian_density
from qfluid.twofluid import (
    TwoFluidConfig,
    averaged_acceleration,
    micro_acceleration,
    reaction_force,
)

grid = GridSpec.centered(12.0, 512)
rho = periodic_gaussian_density(grid, width=1.0)
grad_q_over_m = gradient(quantum_potential(rho)).components[0]

print("window-averaged acceleration vs quantum force (D = hbar/2m)")
print(f"{'delta_t':>10} {'rel L2 error':>14}")
for delta_t in (4e-4, 2e-4, 1e-4, 5e-5, 2.5e-5):
    # two diffusion substeps keep the largest micro-interval inside the
    # explicit stability bound h^2 / 4D
    cfg = TwoFluidConfig.make(delta_t=delta_t, N_micro=16, micro_substeps=2)
    acc = averaged_acceleration(rho, cfg)
    err = np.linalg.norm(acc.components[0] - grad_q_over_m) / np.linalg.norm(
        grad_q_over_m
    )
    print(f"{delta_t:>10.1e} {err:>14.3e}")

print("\nreaction force on the carrier opposes the quantum force:")
cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
acc = averaged_acceleration(rho, cfg)
force = reaction_force(acc, rho, rho)
gap = np.linalg.norm(force.approx.components[0] + grad_q_over_m)
print(f"  || P + grad(Q)/m ||  = {gap:.3e}  (absolute)")

print("\nfitted coefficient between <du/dt> and -grad(lap sqrt(rho)/sqrt(rho)):")
basis = micro_acceleration(rho, 1.0).components[0] / 2.0
print(f"{'D':>6} {'fitted':>12} {'2 D^2':>8} {'rel dev':>10}")
for diffusion in (0.25, 0.5, 1.0):
    cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16, D=diffusion)
    acc = averaged_acceleration(rho, cfg).components[0]
    fitted = float(np.dot(acc, basis) / np.dot(basis, basis))
    dev = abs(fitted - 2 * diffusion**2) / (2 * diffusion**2)
    print(f"{diffusion:>6.2f} {fitted:>12.6f} {2 * diffusion**2:>8.3f} {dev:>10.2e}")
