"""Reference time-dependent Schrödinger propagator and eigensolver.

The propagator is a Strang-split spectral method on periodic grids:
half a potential phase, a full kinetic phase applied in Fourier space,
half a potential phase. Both factors are diagonal unitaries, so the norm
is preserved to rounding and the scheme is second-order accurate in dt.
It serves as the ground truth every other module is checked against.

Stationary states come from dense diagonalization of the second-order
finite-difference Hamiltonian (periodic stencil), which keeps the
eigenfunctions real-valued and parity-clean on symmetric potentials.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, EigensolverError, UnitarityError
from .grids import (
    GridSpec,
    ScalarField,
    VectorField,
    WaveField,
    complex_gradient,
)

__all__ = [
    "Potential",
    "PropagatorState",
    "split_step_evolve",
    "stationary_states",
    "random_phase_superposition",
    "energy_expectation",
    "probability_current",
    "gaussian_packet",
    "periodic_gaussian_density",
    "plane_wave",
    "harmonic_ground_state",
    "coherent_state",
]

NORM_DRIFT_ABORT = 1e-6
# values per BLAS call of the norm check (split_step_evolve)
_NORM_CHUNK = 8192
# an eigenpair residual |H v - E v| above this times max(1, |E|) raises
EIGEN_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Potential:
    """Time-independent external potential realized on a grid."""

    field: ScalarField

    def __post_init__(self):
        if not np.all(np.isfinite(self.field.values)):
            raise ConfigError("potential contains non-finite values")

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @cached_property
    def _phase_factors(self) -> dict:
        """_split_phases's factors, keyed by (dt, hbar, m)."""
        return {}

    @classmethod
    def free(cls, grid: GridSpec) -> "Potential":
        return cls(ScalarField(grid, np.zeros(grid.shape)))

    @classmethod
    def harmonic(cls, grid: GridSpec, omega: float, m: float = 1.0,
                 center=0.0) -> "Potential":
        """U = m omega^2 |r - center|^2 / 2."""
        ctr = (center,) * grid.dims if np.isscalar(center) else tuple(center)
        mesh = grid.meshgrid()
        r2 = sum((ax - c) ** 2 for ax, c in zip(mesh, ctr))
        return cls(ScalarField(grid, 0.5 * m * omega**2 * r2))


@dataclass(frozen=True)
class PropagatorState:
    """Wave field plus the time, step and constants of one evolution."""

    psi: WaveField
    t: float
    dt: float
    hbar: float = 1.0
    m: float = 1.0


def _split_phases(potential: Potential, dt: float, hbar: float, m: float):
    """Half potential phase and kinetic phase of one Strang step, cached on
    the (frozen) potential."""
    hit = potential._phase_factors.get((dt, hbar, m))
    if hit is None:
        half_v = np.exp(-0.5j * potential.values * dt / hbar)
        kin = np.exp(-1j * hbar * potential.grid.k_squared() * dt / (2.0 * m))
        half_v.setflags(write=False)
        kin.setflags(write=False)
        hit = potential._phase_factors[dt, hbar, m] = (half_v, kin)
    return hit


def _check_steps(steps):
    """ConfigError unless steps is an integer >= 0: a negative count would
    run no step and a fractional one would escape as a TypeError."""
    if (isinstance(steps, bool) or not isinstance(steps, (int, np.integer))
            or steps < 0):
        raise ConfigError(f"steps must be an integer >= 0, got {steps!r}")


def split_step_evolve(state: PropagatorState, potential: Potential,
                      steps: int) -> PropagatorState:
    """Advance `steps` Strang-split steps of size state.dt.

    The two phase factors of a step depend only on the potential, dt,
    hbar and m; they are cached on the potential, so the one-step calls
    the timelines make do not rebuild two complex exponentials each time.
    All stages run in one array per call, which the returned field owns.

    Aborts with UnitarityError if the norm drifts by more than 1e-6,
    which for this scheme only happens on corrupted input. steps must be
    an integer >= 0 (not a bool); anything else is a ConfigError.
    """
    _check_steps(steps)
    if potential.grid != state.psi.grid:
        raise ConfigError("potential and wave field live on different grids")
    dt, hbar, m = state.dt, state.hbar, state.m
    half_v, kin = _split_phases(potential, dt, hbar, m)
    src = state.psi.values
    psi = np.empty_like(src) if steps > 0 else src
    cellvol = state.psi.grid.cell_volume
    # the norm check's views of psi, one BLAS call each: OpenBLAS runs a
    # complex dot of more than 10^4 values on its helper threads, which then
    # spin between steps and take a CPU from the parent of a fed
    # OracleTimeline. A field of one chunk (every 1D grid here) keeps the
    # one-call bits
    flat = psi.ravel("K")
    chunks = [flat[i:i + _NORM_CHUNK] for i in range(0, flat.size, _NORM_CHUNK)]
    # the same transform; fft skips fftn's axes handling on 1D grids
    fft, ifft = ((np.fft.fft, np.fft.ifft) if src.ndim == 1
                 else (np.fft.fftn, np.fft.ifftn))
    for _ in range(steps):
        np.multiply(half_v, src, out=psi)
        src = psi
        fft(psi, out=psi)
        # complex products round by operand order: numpy ran `kin * fftn(psi)`
        # as fft *= kin on arrays of 256 KB and up (128^2), eliding the
        # temporary, and as kin * fft below; so 2D keeps its bits, 1D moves
        np.multiply(psi, kin, out=psi)
        ifft(psi, out=psi)
        np.multiply(half_v, psi, out=psi)
        norm = np.sqrt(sum(np.vdot(c, c).real for c in chunks) * cellvol)
        if abs(norm - 1.0) > NORM_DRIFT_ABORT:
            raise UnitarityError(
                f"norm drifted to {norm!r} after a step at t={state.t!r}"
            )
    return replace(state, psi=WaveField._adopt(state.psi.grid, psi),
                   t=state.t + steps * dt)


def energy_expectation(state: PropagatorState, potential: Potential) -> float:
    """<psi| T + U |psi> evaluated spectrally."""
    psi = state.psi.values
    grid = state.psi.grid
    t_psi = np.fft.ifftn(grid.k_squared() * np.fft.fftn(psi)) * state.hbar**2 / (2 * state.m)
    h_psi = t_psi + potential.values * psi
    return float(np.real(np.sum(np.conj(psi) * h_psi)) * grid.cell_volume)


def probability_current(psi: WaveField, hbar: float = 1.0,
                        m: float = 1.0) -> VectorField:
    """j = (hbar/2mi) (psi* grad psi - psi grad psi*)."""
    grads = complex_gradient(psi)
    comps = tuple(
        (hbar / m) * np.imag(np.conj(psi.values) * g) for g in grads
    )
    return VectorField(psi.grid, comps)


def _fd_hamiltonian(potential: Potential, hbar: float, m: float) -> np.ndarray:
    """The dense periodic finite-difference Hamiltonian, or a ConfigError
    naming the constants when an entry overflows (LAPACK's result on a
    matrix with an infinity is undefined)."""
    grid = potential.grid
    if grid.dims != 1:
        raise ConfigError("stationary_states handles 1D grids only")
    n = grid.points[0]
    h = grid.spacing[0]
    coeff = hbar**2 / (2.0 * m * h**2)
    diagonal = 2.0 * coeff + potential.values
    if not np.isfinite(diagonal).all():
        raise ConfigError(
            f"the Hamiltonian's kinetic term hbar^2 / (2 m h^2) is not finite "
            f"(hbar={hbar!r}, m={m!r}, grid spacing h={h!r})")
    ham = np.zeros((n, n))
    idx = np.arange(n)
    ham[idx, idx] = diagonal
    ham[idx, (idx + 1) % n] = -coeff
    ham[idx, (idx - 1) % n] = -coeff
    return ham


@cache
def _flapack():
    """scipy's f2py LAPACK extension, scipy/linalg/_flapack, loaded from its
    file. Importing scipy.linalg would run its package __init__, whose
    array-API layer imports numpy.f2py: 0.17 s and 19 MB of peak RSS on a
    2-CPU Linux host with scipy 1.17, for the one routine this module calls."""
    spec = importlib.util.find_spec("scipy")
    for directory in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(
                    "scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(loader.name, path,
                                                           loader=loader))
                loader.exec_module(module)
                return module
    raise ModuleNotFoundError(
        "stationary_states needs scipy (>= 1.13): its LAPACK extension "
        "scipy/linalg/_flapack was not found", name="scipy")


def _lowest_eigenpairs(ham: np.ndarray, count: int):
    """The count lowest eigenvalues and eigenvectors (columns) of the real
    symmetric ham, from LAPACK's dsyevr with the arguments
    scipy.linalg.eigh(ham, overwrite_a=True, subset_by_index=[0, count - 1])
    passes, so the bytes are eigh's. ham should be Fortran-ordered: LAPACK
    then overwrites it in place."""
    lapack = _flapack()
    n = ham.shape[0]
    # eigh's workspace query, truncated to int as scipy's _compute_lwork does
    work, iwork, info = lapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise EigensolverError(f"dsyevr workspace query failed: info {info}")
    energies, vectors, found, _, info = lapack.dsyevr(
        ham, compute_v=1, range="I", lower=1, il=1, iu=count,
        lwork=int(work), liwork=int(iwork), overwrite_a=1)
    if info != 0 or found < count:
        raise EigensolverError(f"dense eigensolver failed: dsyevr info {info}, "
                               f"{found} of {count} eigenpairs found")
    return energies[:found], vectors[:, :found]


def stationary_states(potential: Potential, count: int, hbar: float = 1.0,
                      m: float = 1.0) -> list[tuple[float, WaveField]]:
    """Lowest `count` eigenpairs of the discrete 1D Hamiltonian.

    Second-order periodic finite-difference kinetic term plus the diagonal
    potential; eigenfunctions are real, orthonormal with the grid measure,
    and sign-fixed so the largest-magnitude sample is positive. Only the
    `count` lowest pairs are computed; count must be an integer (not a
    bool) in [1, points], or it is a ConfigError. A Hamiltonian with an
    infinite entry (hbar^2 / m h^2 overflowing) is a ConfigError.

    The solver is LAPACK's dsyevr, called through scipy's f2py extension
    with the arguments scipy.linalg.eigh(..., subset_by_index=...) passes,
    so the pairs are eigh's to the bit; scipy.linalg itself is not
    imported (see _flapack).

    The sign is not tie-proof: in a parity-symmetric potential the two
    largest |phi| samples of every odd eigenstate are a mirror pair, equal
    to about 1e-15, so which of them counts as largest (and so the sign)
    is settled by dsyevr's rounding. That picks the full solve's sign on
    every potential the scenarios and demos use; another solver
    (numpy.linalg.eigh) flips some odd modes, and with them every result
    built from a superposition of these states. The tie stays until the
    trap's states get a closed form with a fixed sign convention.
    """
    grid = potential.grid
    n = grid.points[0]
    if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
            or not 1 <= count <= n):
        raise ConfigError(f"count must be an integer in [1, {n}], got {count!r}")
    # the transpose of the symmetric matrix is the Fortran-ordered copy eigh
    # would make, so LAPACK works in place on the same values (a dense copy
    # less at the memory peak of a pass); the residuals read a rebuilt one
    energies, vectors = _lowest_eigenpairs(
        _fd_hamiltonian(potential, hbar, m).T, int(count))
    ham = _fd_hamiltonian(potential, hbar, m)
    h = grid.spacing[0]
    pairs = []
    for k in range(count):
        vec = vectors[:, k]
        res = float(np.linalg.norm(ham @ vec - energies[k] * vec))
        if res > EIGEN_RESIDUAL_TOL * max(1.0, abs(energies[k])):
            raise EigensolverError(
                f"eigenpair {k} residual {res:.3e} exceeds tolerance"
            )
        vec = vec / np.sqrt(h)
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        pairs.append((float(energies[k]), WaveField(grid, vec.astype(complex))))
    return pairs


def random_phase_superposition(grid2d: GridSpec, omega_x: float, omega_y: float,
                               modes, phase_seed: int, hbar: float = 1.0,
                               m: float = 1.0) -> tuple[WaveField, Potential]:
    """Normalized equal-weight sum of the 2D trap's eigenstates (nx, ny), nx
    and ny from modes, each with a random phase; and the trap's potential."""
    ux = Potential.harmonic(grid2d.axis_line(0), omega_x, m)
    uy = Potential.harmonic(grid2d.axis_line(1), omega_y, m)
    px = stationary_states(ux, max(modes) + 1, hbar, m)
    py = stationary_states(uy, max(modes) + 1, hbar, m)
    rng = np.random.default_rng(phase_seed)
    amp = 1.0 / len(modes)
    vals = np.zeros(grid2d.shape, dtype=complex)
    for nx in modes:
        for ny in modes:
            phi = np.outer(px[nx][1].values, py[ny][1].values)
            vals += np.exp(1j * rng.uniform(0, 2 * np.pi)) * amp * phi
    joint = Potential(ScalarField(grid2d, ux.values[:, None] + uy.values[None, :]))
    return WaveField(grid2d, vals).normalized(), joint


# ----------------------------------------------------------------------
# Analytic reference states used to seed and check scenarios.

def gaussian_packet(grid: GridSpec, width: float, center: float = 0.0,
                    momentum: float = 0.0, hbar: float = 1.0) -> WaveField:
    """Normalized 1D Gaussian exp(-(x-c)^2 / 4 width^2 + i k x)."""
    x = grid.axis(0)
    psi = np.exp(-((x - center) ** 2) / (4.0 * width**2)
                 + 1j * momentum * x / hbar)
    return WaveField(grid, psi).normalized()


def periodic_gaussian_density(grid: GridSpec, width: float, center: float = 0.0,
                              images: int = 3) -> ScalarField:
    """Normalized Gaussian density periodized over the 1D domain.

    Summing mirror images makes the field genuinely smooth and periodic,
    so spectral derivative pipelines see no seam kink even when the bare
    tail would not underflow at the boundary.
    """
    x = grid.axis(0)
    length = grid.extent[0]
    vals = np.zeros_like(x)
    for n in range(-images, images + 1):
        vals += np.exp(-((x - center - n * length) ** 2) / (2.0 * width**2))
    return ScalarField(grid, vals).normalized()


def plane_wave(grid: GridSpec, mode: int) -> WaveField:
    """Periodic box momentum eigenstate with integer mode number."""
    x = grid.axis(0)
    k = 2.0 * np.pi * mode / grid.extent[0]
    psi = np.exp(1j * k * x) / np.sqrt(grid.extent[0])
    return WaveField(grid, psi)


def harmonic_ground_state(grid: GridSpec, omega: float, hbar: float = 1.0,
                          m: float = 1.0, center: float = 0.0) -> WaveField:
    x = grid.axis(0)
    psi = np.exp(-m * omega * (x - center) ** 2 / (2.0 * hbar))
    return WaveField(grid, psi.astype(complex)).normalized()


def coherent_state(grid: GridSpec, omega: float, displacement: float,
                   t: float = 0.0, hbar: float = 1.0, m: float = 1.0) -> WaveField:
    """Displaced harmonic ground state at time t (exact evolution).

    The packet keeps the ground-state width while its center follows the
    classical trajectory x_c = a cos(omega t), p_c = -m a omega sin(omega t);
    the phase carries p_c x - p_c x_c / 2 - hbar omega t / 2.
    """
    x = grid.axis(0)
    xc = displacement * np.cos(omega * t)
    pc = -m * displacement * omega * np.sin(omega * t)
    phase = (pc * x - 0.5 * pc * xc - 0.5 * hbar * omega * t) / hbar
    psi = np.exp(-m * omega * (x - xc) ** 2 / (2.0 * hbar) + 1j * phase)
    return WaveField(grid, psi).normalized()
