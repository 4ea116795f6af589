"""Diffusion-with-jumps micro-dynamics of a second fluid and its averaged force.

A carrier density rho drives a second fluid by ordinary diffusion (flux
-D grad sigma) on a short time scale delta_t. The second fluid's state is
its density sigma alone: its osmotic velocity u = -D grad(sigma)/sigma is a
function of sigma, so it is computed only where it is read. Each
micro-interval starts with the jump sigma <- rho_j, diffuses sigma through
delta_t, and records the acceleration of the diffused sigma; on the longer
window Delta_t = N_micro * delta_t these accelerations are averaged. For a
static carrier every interval is the same, so one interval stands for the
window. For smooth static rho the average approaches the closed form

    <du/dt> = -2 D^2 grad( laplacian(sqrt(rho)) / sqrt(rho) ),

and the reaction force on the carrier, -(sigma/rho) <du/dt>, is exactly the
negative quantum-potential force per unit mass once D = hbar / 2m. The
module exposes the micro-dynamics, the window average and the reaction force
so that identification can be tested quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, StabilityError
from .grids import (
    DENSITY_FLOOR_FRACTION,
    GridSpec,
    ScalarField,
    VectorField,
    fd_derivative,
    fd_second_derivative,
    gradient,
)
from .madelung import _sqrt_laplacian

__all__ = [
    "TwoFluidConfig",
    "ReactionForce",
    "fluid2_velocity",
    "fluid2_microstep",
    "micro_acceleration",
    "micro_acceleration_differenced",
    "averaged_acceleration",
    "reaction_force",
]


@dataclass(frozen=True)
class TwoFluidConfig:
    """Time scales and diffusion constant of the micro-dynamics.

    delta_t is the micro interval between jumps, N_micro the number of
    intervals in the averaging window Delta_t (at least 8 so the scales
    separate), and micro_substeps the number of explicit diffusion substeps
    per micro interval. D defaults to hbar/2m, the choice that turns the
    averaged acceleration into the quantum-potential force.
    """

    D: float
    delta_t: float
    N_micro: int
    micro_substeps: int = 1

    def __post_init__(self):
        if self.D <= 0:
            raise ConfigError(f"diffusion constant must be positive, got {self.D}")
        if self.N_micro < 8:
            raise ConfigError(
                f"N_micro >= 8 required to separate the time scales, got {self.N_micro}"
            )
        if self.micro_substeps < 1:
            raise ConfigError("micro_substeps must be at least 1")

    @classmethod
    def make(cls, delta_t: float, N_micro: int, D: float | None = None,
             hbar: float = 1.0, m: float = 1.0,
             micro_substeps: int = 1) -> "TwoFluidConfig":
        if D is None:
            D = hbar / (2.0 * m)
        return cls(D=D, delta_t=delta_t, N_micro=N_micro, micro_substeps=micro_substeps)

    @property
    def dt_sub(self) -> float:
        return self.delta_t / self.micro_substeps


def fluid2_velocity(sigma: ScalarField, D: float) -> VectorField:
    """Osmotic velocity u = -D grad(sigma) / sigma.

    The gradient uses local stencils so the rounding error in the deep
    tail stays relative to the local density; spectral differencing here
    would flood the tail with its absolute noise floor.
    """
    floor = DENSITY_FLOOR_FRACTION * sigma.values.max()
    safe = np.maximum(sigma.values, floor)
    grid = sigma.grid
    comps = tuple(
        -D * fd_derivative(sigma.values, grid, ax) / safe
        for ax in range(grid.dims)
    )
    return VectorField(grid, comps)


def diffusion_stability_limit(grid: GridSpec, D: float) -> float:
    """Explicit-diffusion bound dt <= h^2 / 4D on the finest axis."""
    return min(h**2 for h in grid.spacing) / (4.0 * D)


def fluid2_microstep(sigma: ScalarField, dt_sub: float, D: float) -> ScalarField:
    """One forward-Euler substep of d(sigma)/dt = D laplacian(sigma).

    The Laplacian is a local 8th-order stencil: its rounding error scales
    with the local density, keeping the far tail clean for the ratio-based
    acceleration, and its stencil coefficients sum to zero exactly, so the
    discrete mass is conserved to rounding. It is also comfortably stable
    under forward Euler at the h^2/4D bound, which a spectral Laplacian
    would not be.
    """
    grid = sigma.grid
    limit = diffusion_stability_limit(grid, D)
    if dt_sub > limit:
        raise StabilityError(
            f"diffusion substep {dt_sub!r} exceeds the stability bound {limit!r}"
        )
    s0 = sigma.values
    rhs = D * sum(fd_second_derivative(s0, grid, ax) for ax in range(grid.dims))
    return ScalarField(grid, s0 + dt_sub * rhs)


def micro_acceleration(sigma: ScalarField, D: float) -> VectorField:
    """Closed-form parcel acceleration -2 D^2 grad(lap(sqrt(sigma))/sqrt(sigma)).

    Evaluated on a static carrier rho this is the window-average limit and,
    for D = hbar/2m, equals grad(Q)/m from the quantum potential of rho.
    """
    lap, r_safe = _sqrt_laplacian(sigma)
    grad_ratio = gradient(ScalarField(sigma.grid, lap / r_safe))
    return VectorField(
        sigma.grid,
        tuple(-2.0 * D**2 * c for c in grad_ratio.components),
    )


def micro_acceleration_differenced(sigma: ScalarField, dt_sub: float,
                                   D: float) -> VectorField:
    """Cross-check mode: du/dt = (u(t+dt)-u(t))/dt + (u.grad)u.

    First-order forward differencing of the osmotic velocity of sigma and
    of its micro-stepped successor, so the gap to the closed form shrinks
    linearly as the substep shrinks.
    """
    grid = sigma.grid
    u0 = fluid2_velocity(sigma, D).components
    u1 = fluid2_velocity(fluid2_microstep(sigma, dt_sub, D), D).components
    comps = []
    for i in range(grid.dims):
        dudt = (u1[i] - u0[i]) / dt_sub
        conv = sum(u0[j] * fd_derivative(u0[i], grid, j) for j in range(grid.dims))
        comps.append(dudt + conv)
    return VectorField(grid, tuple(comps))


RhoSeries = Union[ScalarField, Sequence[ScalarField]]


def averaged_acceleration(rho_series: RhoSeries, cfg: TwoFluidConfig) -> VectorField:
    """Window average of the micro acceleration over N_micro jump cycles.

    Each cycle starts with the jump sigma <- rho_j to the carrier density of
    its interval, diffuses sigma through delta_t, and records the
    closed-form acceleration of the diffused sigma (the state just before
    the next jump). rho_series is either one static field or a sequence of
    N_micro per-interval fields. A static carrier makes every cycle the
    same, so it runs one cycle, whose acceleration is the average.
    """
    if isinstance(rho_series, ScalarField):
        series = [rho_series]
    else:
        series = list(rho_series)
        if len(series) != cfg.N_micro:
            raise ConfigError(
                f"need {cfg.N_micro} density snapshots, got {len(series)}"
            )
    grid = series[0].grid
    acc = [np.zeros(grid.shape) for _ in range(grid.dims)]
    for rho_j in series:
        sigma = rho_j  # the jump
        for _ in range(cfg.micro_substeps):
            sigma = fluid2_microstep(sigma, cfg.dt_sub, cfg.D)
        a_j = micro_acceleration(sigma, cfg.D)
        for i in range(grid.dims):
            acc[i] += a_j.components[i]
    return VectorField(grid, tuple(a / len(series) for a in acc))


@dataclass(frozen=True)
class ReactionForce:
    """Back-reaction on the carrier fluid, exact and approximate forms."""

    exact: VectorField       # -(sigma/rho) <du/dt>
    approx: VectorField      # -<du/dt>
    max_rel_gap: float


def reaction_force(avg_accel: VectorField, sigma: ScalarField,
                   rho: ScalarField) -> ReactionForce:
    """P = -(sigma/rho) <du/dt> and its sigma ~ rho approximation -<du/dt>.

    Below the density floor the ratio sigma/rho is taken as one: the jump
    pins sigma to rho there anyway, and dividing two vanishing densities
    would turn protection noise into spurious force structure.
    """
    floor = DENSITY_FLOOR_FRACTION * rho.values.max()
    weight = np.where(
        rho.values > floor,
        np.maximum(sigma.values, 0.0) / np.maximum(rho.values, floor),
        1.0,
    )
    exact = VectorField(
        avg_accel.grid, tuple(-weight * c for c in avg_accel.components)
    )
    approx = VectorField(avg_accel.grid, tuple(-c for c in avg_accel.components))
    scale = max(np.abs(c).max() for c in approx.components)
    gap = max(
        np.abs(e - a).max()
        for e, a in zip(exact.components, approx.components)
    )
    return ReactionForce(exact=exact, approx=approx,
                         max_rel_gap=float(gap / scale) if scale > 0 else 0.0)
