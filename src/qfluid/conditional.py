"""Two-particle configuration states, conditional slices, per-particle guidance.

The joint wave function of two 1D particles lives on a 2D configuration
grid (x1, x2). Fixing one particle at its actual position and letting the
other coordinate run yields that particle's conditional wave function: a
genuine 1D field obtained by interpolating the joint state along the fixed
axis. Its phase gradient at the particle's own position reproduces, exactly,
the corresponding component of the configuration-space guiding velocity:
slicing commutes with differentiating along the other axis, so the two
evaluation routes agree to rounding. propagate_pair exploits that identity
and moves pairs with the (vectorized) configuration-space velocity.

For product states psi_a(x1) psi_b(x2) the conditional slice is proportional
to the particle's own factor whatever the conditioning position, and pair
trajectories reduce to two independent single-particle problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionalUndefinedError, ConfigError
from .grids import GridSpec, WaveField, _interp_weights
from .ensemble import NodeEvents, TrajectoryEnsemble, VelocityField, propagate_ensemble

__all__ = [
    "ConfigWaveField",
    "ParticlePair",
    "ConditionalWave",
    "conditional_wavefunction",
    "conditional_guiding_velocity",
    "configuration_velocity",
    "propagate_pair",
]


@dataclass(frozen=True)
class ConfigWaveField:
    """Joint wave field on a 2D (x1, x2) grid with per-particle constants."""

    psi: WaveField
    hbar: float = 1.0
    m1: float = 1.0
    m2: float = 1.0

    def __post_init__(self):
        if self.psi.grid.dims != 2:
            raise ConfigError("configuration states need a 2D grid")

    @property
    def grid(self) -> GridSpec:
        return self.psi.grid

    @property
    def masses(self) -> tuple[float, float]:
        return (self.m1, self.m2)

    def normalized(self) -> "ConfigWaveField":
        return ConfigWaveField(self.psi.normalized(), self.hbar, self.m1, self.m2)


@dataclass(frozen=True)
class ParticlePair:
    """Actual positions of the two particles, with optional history."""

    x1: float
    x2: float
    history: np.ndarray | None = None

    @property
    def positions(self) -> np.ndarray:
        return np.array([self.x1, self.x2])


@dataclass(frozen=True)
class ConditionalWave:
    """Unnormalized conditional slice and its norm (reported separately).

    The guiding velocity is scale-invariant in the slice, so normalization
    is only applied by consumers that need overlap diagnostics.
    """

    psi: WaveField
    norm: float

    def normalized(self) -> WaveField:
        return WaveField(self.psi.grid, self.psi.values / self.norm)


def conditional_wavefunction(state: ConfigWaveField, particle: int,
                             other_position: float) -> ConditionalWave:
    """Slice of the joint state at the other particle's actual position.

    particle is 0 or 1; the slice runs along that particle's own axis and
    the remaining coordinate is fixed at other_position (linear
    interpolation between grid lines, periodic wrap). Raises when the slice
    norm is negligible: the conditional state is undefined there.
    """
    if particle not in (0, 1):
        raise ConfigError("particle index must be 0 or 1")
    grid = state.grid
    other_axis = 1 - particle
    values = np.moveaxis(state.psi.values, other_axis, 0)
    j0, w = _interp_weights(grid, np.asarray(other_position, dtype=float), other_axis)
    j1 = (j0 + 1) % grid.points[other_axis]
    slice_vals = (1.0 - w) * values[j0] + w * values[j1]
    line = grid.axis_line(particle)
    phi = WaveField(line, slice_vals)
    norm = phi.norm()
    if norm < 1e-10:
        raise ConditionalUndefinedError(
            f"conditional slice at {other_position!r} has norm {norm!r}"
        )
    return ConditionalWave(psi=phi, norm=norm)


def conditional_guiding_velocity(state: ConfigWaveField, pair: ParticlePair,
                                 particle: int,
                                 events: NodeEvents | None = None) -> float:
    """Particle velocity from its conditional wave function.

    v_i = (hbar / m_i) Im( d(phi)/dx / phi ) at the particle's position,
    with the slice taken at the other particle's position, evaluated by a
    1D VelocityField of the slice (its node floor, Nyquist cap and event
    counts apply). Equal, to rounding, to the corresponding component of
    configuration_velocity.
    """
    own = pair.x1 if particle == 0 else pair.x2
    other = pair.x2 if particle == 0 else pair.x1
    cond = conditional_wavefunction(state, particle, other)
    field = VelocityField(cond.psi, state.hbar, state.masses[particle])
    return float(field.at(np.array([own]), events)[0])


def configuration_velocity(state: ConfigWaveField) -> VelocityField:
    """Full configuration-space guiding velocity, one component per particle."""
    return VelocityField(state.psi, hbar=state.hbar, m=state.m1,
                         masses=state.masses)


def propagate_pair(state0: ConfigWaveField, timeline, pair: ParticlePair,
                   dt: float, steps: int) -> ParticlePair:
    """Single-pair convenience wrapper around the vectorized transport."""
    ens = TrajectoryEnsemble(
        grid=state0.grid,
        positions=pair.positions[None, :],
        seed=0,
        hbar=state0.hbar,
        m=state0.m1,
    )
    res = propagate_ensemble(ens, timeline, dt, steps, record_history=True)
    final = res.ensemble.positions[0]
    return ParticlePair(
        x1=float(final[0]),
        x2=float(final[1]),
        history=res.ensemble.history[:, 0, :],
    )
