"""Two-particle configuration states, conditional slices, per-particle guidance.

The joint wave function of two 1D particles lives on a 2D configuration
grid (x1, x2). Fixing one particle at its actual position and letting the
other coordinate run yields that particle's conditional wave function: a
genuine 1D field obtained by interpolating the joint state along the fixed
axis. Its phase gradient at the particle's own position reproduces, exactly,
the corresponding component of the configuration-space guiding velocity:
slicing commutes with differentiating along the other axis, so the two
evaluation routes agree to rounding. Pairs therefore move with the
configuration-space velocity: propagate_ensemble over the joint grid.

conditional_guiding_velocities evaluates one particle's conditional
velocity for many pairs, one block of slices at a time: per block one
gather lerps its slices, one spectral derivative differentiates them all,
and each slice is evaluated on its own cell only, by the 1D VelocityField
cell formula (node floor per slice, Nyquist cap, event counts).
conditional_guiding_velocity is its one-pair case.

For product states psi_a(x1) psi_b(x2) the conditional slice is proportional
to the particle's own factor whatever the conditioning position, and pair
trajectories reduce to two independent single-particle problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionalUndefinedError, ConfigError
from .grids import (DENSITY_FLOOR_FRACTION, GridSpec, WaveField, _check_finite,
                    _interp_weights, _nonzero_parts, _spectral_derivative)
from .ensemble import (_BLOCK, NodeEvents, VelocityField, _cell_rows, _cell_terms,
                       _floored_ratios)

__all__ = [
    "ConfigWaveField",
    "ParticlePair",
    "ConditionalWave",
    "conditional_wavefunction",
    "conditional_guiding_velocity",
    "conditional_guiding_velocities",
    "configuration_velocity",
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


@dataclass(frozen=True)
class ParticlePair:
    """Actual positions of the two particles."""

    x1: float
    x2: float

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


def _check_particle(particle: int):
    if particle not in (0, 1):
        raise ConfigError("particle index must be 0 or 1")


def _slices(state: ConfigWaveField, particle: int,
            other_positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional slices at each of the other particle's positions, shape
    (n, N) along the particle's own axis, and their norms.

    One gather lerps every slice between the grid lines that bracket its
    position (periodic wrap). Raises when some slice norm is negligible: the
    conditional state is undefined there.
    """
    grid = state.grid
    other_axis = 1 - particle
    values = np.moveaxis(state.psi.values, other_axis, 0)
    j0, w = _interp_weights(grid, other_positions, other_axis)
    j1 = (j0 + 1) % grid.points[other_axis]
    w = w[:, None]
    slices = (1.0 - w) * values[j0] + w * values[j1]
    norms = np.sqrt(np.sum(np.abs(slices) ** 2, axis=1) * grid.spacing[particle])
    low = np.flatnonzero(norms < 1e-10)
    if low.size:
        k = low[0]
        raise ConditionalUndefinedError(
            f"conditional slice at {float(other_positions[k])!r} has norm "
            f"{float(norms[k])!r}"
        )
    return slices, norms


def conditional_wavefunction(state: ConfigWaveField, particle: int,
                             other_position: float) -> ConditionalWave:
    """Slice of the joint state at the other particle's actual position.

    particle is 0 or 1; the slice runs along that particle's own axis and
    the remaining coordinate is fixed at other_position (linear
    interpolation between grid lines, periodic wrap). Raises when the slice
    norm is negligible: the conditional state is undefined there.
    """
    _check_particle(particle)
    slices, norms = _slices(state, particle, np.array([other_position], dtype=float))
    return ConditionalWave(psi=WaveField(state.grid.axis_line(particle), slices[0]),
                           norm=float(norms[0]))


def conditional_guiding_velocities(state: ConfigWaveField, positions: np.ndarray,
                                   particle: int,
                                   events: NodeEvents | None = None) -> np.ndarray:
    """One particle's conditional velocity at n pair positions, shape (n,).

    positions has shape (n, 2), one (x1, x2) row per pair. Row k takes the
    slice at the other particle's coordinate and
    v = (hbar / m_i) Im( d(phi)/dx / phi ) at the particle's own one. One
    _spectral_derivative call per block differentiates its slices along the
    particle's axis of the joint grid, and each slice is evaluated on its own
    cell only, by the cell formula of a 1D VelocityField (ensemble._cell_rows):
    the node floor (1e-12 of that slice's largest |phi|^2), the Nyquist cap
    and the event counts are those of a VelocityField of the slice. Equal, to
    rounding, to the corresponding component of configuration_velocity.

    Pairs run in blocks of about _BLOCK slice values (64 slices of 128
    points), so the working set does not grow with n. Every block takes the
    joint state's transform (grids._nonzero_parts), so a row's result does
    not depend on the rows that share its block or its call. Events are
    recorded per block: a raise leaves the earlier blocks counted.
    """
    _check_particle(particle)
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    grid = state.grid
    m_i = state.masses[particle]
    v_max = state.hbar * np.pi / (m_i * grid.spacing[particle])
    parts = _nonzero_parts(state.psi.values)
    size = max(1, _BLOCK // grid.points[particle])
    v = np.empty(len(pos))
    for lo in range(0, len(pos), size):
        block = pos[lo:lo + size]
        phi, _ = _slices(state, particle, block[:, 1 - particle])
        peaks = np.maximum.reduce(np.abs(phi), axis=1) ** 2
        if not np.isfinite(peaks).all():
            _check_finite(phi, "velocity field input")
        # the joint grid's axis `particle` runs along the slices: axis 0 of
        # phi.T for particle 0, axis 1 of phi for particle 1
        g = np.moveaxis(_spectral_derivative(np.moveaxis(phi, 1, particle), grid,
                                             particle, state.hbar / m_i, parts),
                        particle, 1)
        i0, w = _interp_weights(grid, block[:, particle], particle)
        i1 = (i0 + 1) % grid.points[particle]
        k = np.arange(len(block))
        a, c = phi[k, i0], g[k, i0]
        rows = _cell_rows(a, phi[k, i1] - a, c, g[k, i1] - c, float(peaks.max()))
        vb, rho = _cell_terms(rows, w)
        flagged = _floored_ratios([vb], rho, DENSITY_FLOOR_FRACTION * peaks, (v_max,))
        if events is not None:
            events.record(len(block), flagged)
        v[lo:lo + size] = vb
    return v


def conditional_guiding_velocity(state: ConfigWaveField, pair: ParticlePair,
                                 particle: int,
                                 events: NodeEvents | None = None) -> float:
    """Particle velocity from its conditional wave function: the one-pair
    case of conditional_guiding_velocities."""
    return float(conditional_guiding_velocities(state, pair.positions[None, :],
                                                particle, events)[0])


def configuration_velocity(state: ConfigWaveField) -> VelocityField:
    """Full configuration-space guiding velocity, one component per particle."""
    return VelocityField(state.psi, hbar=state.hbar, masses=state.masses)


def _identity_error(state: ConfigWaveField, positions: np.ndarray,
                    events: NodeEvents | None = None) -> float:
    """Largest gap, over pair positions (n, 2) and both particles, between
    the conditional guiding velocities and configuration_velocity, which
    the identity of the two routes makes zero up to rounding."""
    v_full = configuration_velocity(state).at(positions, events)
    v_cond = np.stack([conditional_guiding_velocities(state, positions, particle, events)
                       for particle in (0, 1)], axis=-1)
    return float(np.max(np.abs(v_cond - v_full)))
