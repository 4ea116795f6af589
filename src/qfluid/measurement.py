"""Pointer measurement of energy via a translation-generating coupling.

A 1D system with Hamiltonian H_x is coupled to a pointer coordinate y
through H_I = coupling * H_x * p_y, with the pointer's own kinetic term
dropped (heavy-pointer limit). Acting on an eigenstate phi_k of H_x, the
interaction reduces to a momentum kick generator: after a time T the joint
state is

    Psi(x, y, T) = sum_k c_k exp(-i e_k T / hbar) phi_k(x) Phi(y - coupling * e_k * T)

so each energy component translates the pointer by a distance proportional
to its energy, and the y-marginal of |Psi|^2 is the |c_k|^2-weighted mixture
of shifted pointer profiles. The closed form is built here by translating
each component spectrally (exact for band-limited pointers); a brute-force
2D split-operator propagation of the same Hamiltonian is provided as an
independent cross-check.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .ensemble import _cpus, _fork_join, _shares
from .errors import ConfigError, DomainSizeError
from .grids import GridSpec, ScalarField, WaveField, integrate
from .oracle import Potential

__all__ = [
    "joint_grid",
    "pointer_measurement_evolve",
    "pointer_measurement_brute",
    "pointer_marginal",
    "marginal_mean",
    "lobe_masses",
]


def joint_grid(x_grid: GridSpec, y_grid: GridSpec) -> GridSpec:
    """2D system-pointer grid from two 1D grids."""
    if x_grid.dims != 1 or y_grid.dims != 1:
        raise ConfigError("joint_grid expects two 1D grids")
    return GridSpec(
        extent=(x_grid.extent[0], y_grid.extent[0]),
        points=(x_grid.points[0], y_grid.points[0]),
        origin=(x_grid.origin[0], y_grid.origin[0]),
    )


def _pointer_moments(pointer: WaveField) -> tuple[float, float]:
    y = pointer.grid.axis(0)
    w = np.abs(pointer.values) ** 2
    w = w / (w.sum() * pointer.grid.spacing[0])
    mean = float(np.sum(y * w) * pointer.grid.spacing[0])
    var = float(np.sum((y - mean) ** 2 * w) * pointer.grid.spacing[0])
    return mean, np.sqrt(var)


def _translate_spectral(values: np.ndarray, grid: GridSpec, shift: float) -> np.ndarray:
    k = grid.wavenumbers(0)
    return np.fft.ifft(np.exp(-1j * k * shift) * np.fft.fft(values))


def pointer_measurement_evolve(coeffs, eigenpairs, pointer: WaveField,
                               coupling: float, duration: float,
                               hbar: float = 1.0) -> WaveField:
    """Closed-form joint state after the interaction.

    coeffs are the eigenbasis amplitudes c_k matching eigenpairs (energy,
    eigenfunction) from the stationary-state solver; pointer is the initial
    1D pointer wave function. Each k-component acquires the phase
    exp(-i e_k T / hbar) and translates the pointer by coupling * e_k * T,
    performed spectrally so the translation action is exact. Raises when a
    translated pointer would leave the y-domain (enlarge the y extent).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) != len(eigenpairs):
        raise ConfigError("one coefficient per eigenpair required")
    x_grid = eigenpairs[0][1].grid
    y_grid = pointer.grid
    grid2 = joint_grid(x_grid, y_grid)
    y0, width = _pointer_moments(pointer)
    y_lo = y_grid.origin[0]
    y_hi = y_grid.origin[0] + y_grid.extent[0]
    out = np.zeros(grid2.shape, dtype=complex)
    for c_k, (energy, phi_k) in zip(coeffs, eigenpairs):
        if c_k == 0:
            continue
        shift = coupling * energy * duration
        if not (y_lo + 4 * width <= y0 + shift <= y_hi - 4 * width):
            raise DomainSizeError(
                f"pointer shift {shift!r} pushes the packet within 4 widths "
                f"of the y boundary; enlarge the y extent"
            )
        moved = _translate_spectral(pointer.values, y_grid, shift)
        phase = np.exp(-1j * energy * duration / hbar)
        out += c_k * phase * np.outer(phi_k.values, moved)
    return WaveField(grid2, out)


def pointer_measurement_brute(coeffs, eigenpairs, pointer: WaveField,
                              potential_x: Potential, coupling: float,
                              duration: float, dt: float, hbar: float = 1.0,
                              m: float = 1.0) -> WaveField:
    """Independent cross-check: 2D split-operator propagation.

    The Hamiltonian H_x (1 + coupling p_y) splits into a part diagonal in
    (k_x, k_y) and a part diagonal in (x, k_y); both are real symbols, so
    each factor is a diagonal unitary phase and the Strang product is
    norm-preserving. Both parts are diagonal in k_y, so the state is
    transformed along y once before the loop and once after it, and each
    step in between needs only an x transform pair; adjacent half potential
    phases of consecutive steps merge into one full phase. This is the same
    Strang product as a step-by-step 2D propagation. It uses no eigenbasis
    of H_x and no spectral translation, so it stays independent of the
    closed form. The initial state is the given superposition times the
    pointer profile, built without reference to the closed form.
    """
    x_grid = eigenpairs[0][1].grid
    grid2 = joint_grid(x_grid, pointer.grid)
    coeffs = np.asarray(coeffs, dtype=complex)
    sys0 = sum(c * p[1].values for c, p in zip(coeffs, eigenpairs))
    psi = np.outer(sys0, pointer.values).astype(complex)

    steps = _whole_steps(duration, dt)
    if steps is None:
        raise ConfigError(f"dt={dt!r} must divide the interaction duration {duration!r} "
                          f"into whole steps, at least one")
    if steps == 0:  # the merged phases below assume at least one step
        return WaveField(grid2, psi)
    # tables laid out (k_y, x), so every x transform runs on contiguous rows
    kx = grid2.wavenumbers(0)[None, :]
    ky = grid2.wavenumbers(1)[:, None]
    u = potential_x.values[None, :]
    kinetic_x = hbar**2 * kx**2 / (2.0 * m)
    factor = 1.0 + coupling * hbar * ky
    half_b = np.exp(-0.5j * u * factor * dt / hbar)
    full_b = np.exp(-1j * u * factor * dt / hbar)
    full_a = np.exp(-1j * kinetic_x * factor * dt / hbar)
    start = half_b * np.fft.fft(psi, axis=1).T
    del psi
    phi = np.empty(start.shape, dtype=complex)

    def evolve(rows: slice):
        # each k_y row evolves alone, and its transforms give the same bytes
        # in any batch of rows; complex products round by operand order, and
        # out * full_a is the order numpy's temporary elision gave `full_a * fft`
        out = phi[rows]
        out[:] = start[rows]
        for step in range(1, steps + 1):
            np.fft.fft(out, axis=1, out=out)
            np.multiply(out, full_a[rows], out=out)
            np.fft.ifft(out, axis=1, out=out)
            np.multiply((half_b if step == steps else full_b)[rows], out, out=out)

    _fork_join([(partial(evolve, rows), (phi[rows],))
                for rows in _shares(len(phi), _cpus())])
    return WaveField(grid2, np.fft.ifft(np.ascontiguousarray(phi.T), axis=1))


def _whole_steps(duration: float, dt: float) -> int | None:
    """round(duration / dt) when exact to 1e-9, not negative and, for a
    positive duration, at least one; None otherwise."""
    steps = round(duration / dt)
    if (steps < (1 if duration > 0 else 0)
            or abs(steps * dt - duration) > 1e-9 * max(duration, 1.0)):
        return None
    return steps


def pointer_marginal(joint: WaveField) -> ScalarField:
    """Marginal density of the pointer coordinate: integral over x of |Psi|^2."""
    rho = np.abs(joint.values) ** 2
    hx = joint.grid.spacing[0]
    marg = rho.sum(axis=0) * hx
    return ScalarField(joint.grid.axis_line(1), marg)


def marginal_mean(marginal: ScalarField) -> float:
    y = marginal.grid.axis(0)
    total = integrate(marginal)
    return float(np.sum(y * marginal.values) * marginal.grid.spacing[0] / total)


def lobe_masses(marginal: ScalarField, split_at: float) -> tuple[float, float]:
    """Probability mass on each side of a dividing pointer position."""
    y = marginal.grid.axis(0)
    h = marginal.grid.spacing[0]
    below = float(np.sum(marginal.values[y < split_at]) * h)
    above = float(np.sum(marginal.values[y >= split_at]) * h)
    return below, above
