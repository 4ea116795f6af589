"""Polar decomposition of wave fields and the hydrodynamic form of their dynamics.

A wave field factors as sqrt(rho) * exp(i S / hbar). In these variables the
dynamics is a continuity equation for rho and a Hamilton-Jacobi equation for
S whose only non-classical term,

    Q = -(hbar^2 / 2m) * laplacian(sqrt(rho)) / sqrt(rho),

couples amplitude curvature into the phase. This module computes the
decomposition, Q, residuals of the hydrodynamic equations against propagator
snapshots, and a direct Runge-Kutta integration of the (R, S) system for
cross-validation against the spectral propagator.

Numerical notes. The equations are singular at density nodes, so a relative
density floor applies throughout and residual metrics exclude near-node
regions. The phase S is generally *not* periodic even when psi is (plane
waves wind, spreading packets have quadratic phase), so S and velocity
derivatives use 8th-order centered stencils: their seam artifacts stay local
to the underflowed tail instead of polluting the whole domain the way
spectral differentiation of a kinked function does. Amplitude-derived
quantities (sqrt(rho), fluxes, psi itself) are periodic and smooth and use
the spectral calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StabilityError
from .grids import (
    DENSITY_FLOOR_FRACTION,
    GridSpec,
    ScalarField,
    VectorField,
    WaveField,
    divergence,
    fd_derivative,
    fd_second_derivative,
    laplacian,
)
from .oracle import Potential, probability_current

__all__ = [
    "MadelungState",
    "MadelungResiduals",
    "decompose",
    "recompose",
    "quantum_potential",
    "velocity_from_wave",
    "madelung_residual",
    "residuals_from_snapshots",
    "madelung_step",
    "DENSITY_FLOOR_FRACTION",
    "cfl_limit",
]

# Below the density floor (grids.DENSITY_FLOOR_FRACTION of max(rho)) the polar
# variables are node-contaminated; residual metrics keep rho >
# RESIDUAL_REGION_FACTOR x floor.
RESIDUAL_REGION_FACTOR = 1e3
# the explicit (g, S) integrator's step bound, as a fraction of h^2 m / hbar
CFL_SAFETY = 0.5


def velocity_from_wave(psi: WaveField, hbar: float = 1.0, m: float = 1.0) -> VectorField:
    """The probability current over a floored density, j / hypot(|psi|^2, floor).

    Computed from psi itself, which is periodic even when the phase winds,
    so the spectral gradient applies.
    """
    rho = np.abs(psi.values) ** 2
    floored = np.hypot(rho, DENSITY_FLOOR_FRACTION * rho.max())
    j = probability_current(psi, hbar, m)
    return VectorField(psi.grid, tuple(c / floored for c in j.components))


@dataclass(frozen=True)
class MadelungState:
    """Hydrodynamic variables (rho, S, v) with their constants."""

    rho: ScalarField
    S: ScalarField
    v: VectorField
    hbar: float = 1.0
    m: float = 1.0
    node_mask: np.ndarray | None = None
    last_renorm: float = 0.0

    @classmethod
    def from_rho_S(cls, rho: ScalarField, S: ScalarField, hbar: float = 1.0,
                   m: float = 1.0, **kw) -> "MadelungState":
        """Derive v = grad(S)/m with local stencils (S need not be periodic)."""
        v = VectorField(
            rho.grid,
            tuple(
                fd_derivative(S.values, rho.grid, axis) / m
                for axis in range(rho.grid.dims)
            ),
        )
        return cls(rho=rho, S=S, v=v, hbar=hbar, m=m, **kw)

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid


def decompose(psi: WaveField, hbar: float = 1.0, m: float = 1.0) -> MadelungState:
    """Split psi into density, unwrapped phase action and velocity.

    The phase is unwrapped by accumulating wrapped differences along grid
    lines: in 2D first along the axis-1 line through the density peak, then
    along axis 0 outward from that line. This holds for vortex-free states
    only; around a vortex no single-valued S exists, and the result depends
    on the paths. The velocity comes from Im(grad psi / psi) directly.
    Points with |psi|^2 under the density floor are flagged in node_mask;
    the unwrap is ambiguous there and downstream consumers should treat
    the flagged region as degraded.
    """
    rho_vals = np.abs(psi.values) ** 2
    eps = DENSITY_FLOOR_FRACTION * rho_vals.max()
    mask = rho_vals < eps
    grid = psi.grid
    anchor = np.unravel_index(int(np.argmax(rho_vals)), grid.shape)
    v = velocity_from_wave(psi, hbar, m)
    phase = np.angle(psi.values)
    if grid.dims == 1:
        s_vals = hbar * np.unwrap(phase)
    else:
        i0 = anchor[0]
        up = np.unwrap(phase[i0:], axis=0)
        down = np.unwrap(phase[i0::-1], axis=0)[:0:-1]  # rows 0 .. i0 - 1
        s_vals = hbar * (np.concatenate((down, up)) + (np.unwrap(phase[i0]) - phase[i0]))
    # anchor the additive constant to the principal phase at peak density,
    # so decompose -> recompose reproduces psi up to a global phase
    s_vals = s_vals + (hbar * np.angle(psi.values[anchor]) - s_vals[anchor])
    return MadelungState(
        rho=ScalarField(grid, rho_vals),
        S=ScalarField(grid, s_vals),
        v=v,
        hbar=hbar,
        m=m,
        node_mask=mask,
    )


def recompose(state: MadelungState) -> WaveField:
    """psi = sqrt(rho) exp(i S / hbar), normalized."""
    psi = np.sqrt(np.maximum(state.rho.values, 0.0)) * np.exp(
        1j * state.S.values / state.hbar
    )
    return WaveField(state.grid, psi).normalized()


def quantum_potential(rho: ScalarField, hbar: float = 1.0, m: float = 1.0) -> ScalarField:
    """Q = -(hbar^2/2m) laplacian(sqrt(rho)) / sqrt(rho).

    The floor enters the quotient denominator only: sqrt(rho) stays smooth
    under the Laplacian (clipping it would plant kinks in the numerator),
    and everywhere above the floor the quotient is exact, which the
    stationarity balance Q + U = const relies on. The floored region and a
    stencil-width around its boundary are not meaningful; downstream
    consumers mask them.
    """
    lap, r_safe = _sqrt_laplacian(rho)
    return ScalarField(rho.grid, -(hbar**2) / (2.0 * m) * lap / r_safe)


def _sqrt_laplacian(rho: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """laplacian(sqrt(rho)) and the floored denominator max(sqrt(rho),
    sqrt(floor * max(rho))): the two halves of the ratio in Q and in the
    two-fluid acceleration, which each divide in their own order."""
    r = np.sqrt(np.maximum(rho.values, 0.0))
    r_safe = np.maximum(r, np.sqrt(DENSITY_FLOOR_FRACTION * rho.values.max()))
    return laplacian(ScalarField(rho.grid, r)).values, r_safe


@dataclass(frozen=True)
class MadelungResiduals:
    """RMS residuals of the hydrodynamic equations over the retained region."""

    continuity: float
    momentum: float
    region_fraction: float


def madelung_residual(state: MadelungState, potential: Potential,
                      drho_dt: ScalarField, dv_dt: VectorField) -> MadelungResiduals:
    """Residuals of d(rho)/dt + div(rho v) = 0 and the momentum balance
    dv/dt + (v.grad)v + grad(U + Q)/m = 0.

    Time derivatives come from the caller (typically centered differences
    of propagator snapshots). Metrics are root-mean-square over the region
    rho > 1000x floor. The flux divergence is spectral (rho v is periodic
    and vanishes in the tail); v and U + Q gradients use local stencils
    since neither is a periodic function.
    """
    grid = state.grid
    rho, v = state.rho.values, state.v
    region = rho > RESIDUAL_REGION_FACTOR * (DENSITY_FLOOR_FRACTION * rho.max())

    flux = VectorField(grid, tuple(rho * c for c in v.components))
    r_cont = drho_dt.values + divergence(flux).values

    q = quantum_potential(state.rho, state.hbar, state.m)
    uq = potential.values + q.values
    grad_uq = [fd_derivative(uq, grid, axis) for axis in range(grid.dims)]
    r_mom_sq = np.zeros(grid.shape)
    for i in range(grid.dims):
        conv = sum(
            v.components[j] * fd_derivative(v.components[i], grid, j)
            for j in range(grid.dims)
        )
        r_i = dv_dt.components[i] + conv + grad_uq[i] / state.m
        r_mom_sq += r_i**2
    return MadelungResiduals(
        continuity=float(np.sqrt(np.mean(r_cont[region] ** 2))),
        momentum=float(np.sqrt(np.mean(r_mom_sq[region]))),
        region_fraction=float(region.mean()),
    )


def residuals_from_snapshots(psi_prev: WaveField, psi_now: WaveField,
                             psi_next: WaveField, potential: Potential,
                             dt: float, hbar: float = 1.0,
                             m: float = 1.0) -> MadelungResiduals:
    """Centered-difference time derivatives from three consecutive snapshots
    spaced dt apart, evaluated at the middle one."""
    prev = decompose(psi_prev, hbar, m)
    now = decompose(psi_now, hbar, m)
    nxt = decompose(psi_next, hbar, m)
    drho = ScalarField(now.grid, (nxt.rho.values - prev.rho.values) / (2 * dt))
    dv = VectorField(
        now.grid,
        tuple(
            (a - b) / (2 * dt)
            for a, b in zip(nxt.v.components, prev.v.components)
        ),
    )
    return madelung_residual(now, potential, drho, dv)


def cfl_limit(grid: GridSpec, hbar: float = 1.0, m: float = 1.0) -> float:
    """Largest stable step for the explicit (R, S) integrator."""
    h = min(grid.spacing)
    return CFL_SAFETY * h**2 * m / hbar


# The integrator works in (g, S) with g = ln R, so rho = exp(2g). In these
# variables the quantum term is lap(g) + (grad g)^2 with no division by a
# small amplitude anywhere, and a Gaussian is exactly quadratic in g, which
# the stencils differentiate exactly. One smooth weight confines the deep
# tail: below ~1e-18 relative density both the amplitude evolution and the
# kinetic phase term switch off together (switching only one of them would
# make the tail dynamics inconsistent and secularly pump the amplitude).
# The frozen tail carries no probability, so this costs nothing physically,
# but it removes every channel by which seam-stencil noise in the
# underflowed tail could feed back into the bulk.
_FREEZE_LOG = np.log(1e-18)
_TAPER_WIDTH = 1.15  # half a decade


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _log_polar_rhs(g: np.ndarray, s: np.ndarray, grid: GridSpec,
                   u_vals: np.ndarray, hbar: float, m: float):
    q = 2.0 * (g - g.max())  # log relative density
    w = _sigmoid((q - _FREEZE_LOG) / _TAPER_WIDTH)

    grad_g = [fd_derivative(g, grid, ax) for ax in range(grid.dims)]
    grad_s = [fd_derivative(s, grid, ax) for ax in range(grid.dims)]
    lap_g = sum(fd_second_derivative(g, grid, ax) for ax in range(grid.dims))
    lap_s = sum(fd_second_derivative(s, grid, ax) for ax in range(grid.dims))

    dg = -w * (
        sum(gg * gs for gg, gs in zip(grad_g, grad_s)) + 0.5 * lap_s
    ) / m
    quantum = lap_g + sum(gg * gg for gg in grad_g)
    ds = -(
        w * sum(gs * gs for gs in grad_s) / (2.0 * m)
        + u_vals
        - (hbar**2 / (2.0 * m)) * quantum
    )
    return dg, ds


def madelung_step(state: MadelungState, potential: Potential, dt: float) -> MadelungState:
    """One classic RK4 step of the amplitude-phase system.

    Internally the amplitude is carried as its logarithm (rho = exp(2g)),
    which conditions the tail and makes Gaussian profiles exact in space;
    see the notes on _log_polar_rhs. The density is renormalized after the
    step and the renormalization magnitude is reported as last_renorm on
    the returned state; it should stay near rounding level for resolved,
    smooth, node-free fields.

    Preconditions: node-free density whose support does not translate
    (spreading or breathing is fine; a packet whose center sweeps across
    the frozen-tail boundary invalidates the freeze and aborts), and a
    domain large enough that the seam density stays under ~1e-18 of the
    peak.
    """
    limit = cfl_limit(state.grid, state.hbar, state.m)
    if dt > limit:
        raise StabilityError(
            f"dt={dt!r} exceeds the explicit stability limit {limit!r}"
        )
    grid = state.grid
    u_vals = potential.values
    g0 = 0.5 * np.log(np.maximum(state.rho.values, 1e-300))
    s0 = state.S.values

    def rhs(g, s):
        return _log_polar_rhs(g, s, grid, u_vals, state.hbar, state.m)

    k1g, k1s = rhs(g0, s0)
    k2g, k2s = rhs(g0 + 0.5 * dt * k1g, s0 + 0.5 * dt * k1s)
    k3g, k3s = rhs(g0 + 0.5 * dt * k2g, s0 + 0.5 * dt * k2s)
    k4g, k4s = rhs(g0 + dt * k3g, s0 + dt * k3s)
    g1 = g0 + dt / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g)
    s1 = s0 + dt / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)

    with np.errstate(over="raise"):
        try:
            rho1 = np.exp(2.0 * g1)
            norm = float(np.sum(rho1) * grid.cell_volume)
        except FloatingPointError as exc:
            raise StabilityError(
                "amplitude overflow: the density support moved across the "
                "frozen-tail boundary (this integrator assumes packets whose "
                "tails stay put; see the module notes)"
            ) from exc
    rho1 = rho1 / norm
    return MadelungState.from_rho_S(
        rho=ScalarField(grid, rho1),
        S=ScalarField(grid, s1),
        hbar=state.hbar,
        m=state.m,
        last_renorm=abs(norm - 1.0),
    )
