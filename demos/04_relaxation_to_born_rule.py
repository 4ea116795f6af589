"""Relaxation: a wrong initial distribution forgets itself.

Start trajectories uniformly — deliberately not |psi|^2-distributed — under
a sixteen-mode superposition in a 2D trap with incommensurate frequencies.
The flow stretches and folds the mismatch below the coarse-graining scale,
and the coarse-grained relative entropy

    H = sum over cells of P ln(P / |psi|^2)

decays toward the sampling floor within a period of the slow axis. (In one
dimension trajectories cannot cross, the ratio P/|psi|^2 is merely
rearranged, and no such relaxation happens; two dimensions are essential.)
"""

import numpy as np

from qfluid import GridSpec
from qfluid.oracle import random_phase_superposition
from qfluid.ensemble import (
    OracleTimeline,
    TrajectoryEnsemble,
    coarse_grained_H,
    propagate_ensemble,
)

omega_x, omega_y = 1.0, 0.5 * (1 + np.sqrt(5.0))
grid = GridSpec.centered((20.0, 20.0), (128, 128))
modes = (2, 3, 5, 7)
psi0, joint = random_phase_superposition(grid, omega_x, omega_y, modes, phase_seed=2)

n_traj = 8000
period = 2 * np.pi / omega_x
steps = 1000
dt = period / steps
positions = np.random.default_rng(102).uniform(-2.5, 2.5, (n_traj, 2))
ensemble = TrajectoryEnsemble(grid=grid, positions=positions)

print(f"{n_traj} trajectories, uniform start, {len(modes)**2} modes")
print(f"{'t / period':>12} {'coarse H':>10}")
h0 = coarse_grained_H(ensemble, psi0, cell_size=8)
print(f"{0.0:>12.2f} {h0:>10.4f}")
current = ensemble
# on two or more CPUs a forked producer runs the split steps ahead of the
# transport; leaving the block stops it
with OracleTimeline(psi0, joint, dt) as timeline:
    for chunk in range(10):
        result = propagate_ensemble(current, timeline, steps // 10,
                                    record_history=False,
                                    t_start=chunk * (steps // 10) * dt)
        current = result.ensemble
        t = (chunk + 1) * (steps // 10) * dt
        h = coarse_grained_H(current, timeline.at(t), cell_size=8)
        print(f"{t / period:>12.2f} {h:>10.4f}")
print(f"\ndecay over one period: {(h0 - h) / h0:.0%}")
