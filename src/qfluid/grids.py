"""Uniform periodic grids and the discrete field calculus everything else builds on.

Fields live on uniform periodic grids in one or two dimensions. Spatial
derivatives are spectral (FFT-based), hence exact for band-limited data;
point sampling is linear interpolation, which keeps trajectory pushing
local, cheap and deterministic. Field values are immutable after
construction and every operation returns a new field, so fields can be
shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import GridError, GridMismatchError, NonFiniteFieldError

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "WaveField",
    "gradient",
    "laplacian",
    "divergence",
    "integrate",
    "sample_at",
    "complex_gradient",
    "DENSITY_FLOOR_FRACTION",
]

# The one density floor, as a fraction of a field's peak density: every ratio
# over |psi|^2, rho or sigma (guiding velocities, Q, the osmotic velocity, the
# two-fluid reaction) and the polar node mask regularize at this fraction.
DENSITY_FLOOR_FRACTION = 1e-12

# Fractional-cell tolerance below which a sample point is snapped onto the
# node, so values at grid nodes are reproduced exactly.
_NODE_SNAP = 1e-9


def _as_tuple(x, dims: int, cast) -> tuple:
    if np.isscalar(x):
        return tuple(cast(x) for _ in range(dims))
    t = tuple(cast(v) for v in x)
    if len(t) != dims:
        raise GridError(f"expected {dims} per-axis entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: per-axis extent, point count and lower edge.

    The domain along axis i is [origin_i, origin_i + extent_i) with
    points_i equally spaced nodes and spacing extent_i / points_i.
    """

    extent: tuple[float, ...]
    points: tuple[int, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        if len(self.extent) not in (1, 2):
            raise GridError("only 1D and 2D grids are supported")
        if not (len(self.extent) == len(self.points) == len(self.origin)):
            raise GridError("extent, points and origin must have equal length")
        if any(n < 8 for n in self.points):
            raise GridError(f"need at least 8 points per axis, got {self.points}")
        if any(L <= 0 for L in self.extent):
            raise GridError(f"extent must be positive, got {self.extent}")

    @classmethod
    def regular(cls, extent, points, origin=0.0) -> "GridSpec":
        """Build a grid from scalars or per-axis sequences."""
        pts = (points,) if np.isscalar(points) else tuple(points)
        dims = len(pts)
        return cls(
            extent=_as_tuple(extent, dims, float),
            points=_as_tuple(points, dims, int),
            origin=_as_tuple(origin, dims, float),
        )

    @classmethod
    def centered(cls, extent, points) -> "GridSpec":
        """Grid symmetric about zero: domain [-extent/2, extent/2) per axis."""
        pts = (points,) if np.isscalar(points) else tuple(points)
        ext = _as_tuple(extent, len(pts), float)
        return cls.regular(ext, pts, origin=tuple(-L / 2 for L in ext))

    @property
    def dims(self) -> int:
        return len(self.points)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extent, self.points))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        h = self.spacing[i]
        return self.origin[i] + h * np.arange(self.points[i])

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.axis(i) for i in range(self.dims)),
                                indexing="ij"))

    def wavenumbers(self, i: int) -> np.ndarray:
        """Angular wavenumbers 2*pi*fftfreq along axis i; computed once per
        grid and returned read-only."""
        return self._wavenumbers[i]

    @cached_property
    def _derivative_factors(self) -> dict:
        """grids._spectral_derivative's factors, keyed by (axis, scale)."""
        return {}

    @cached_property
    def _wavenumbers(self) -> tuple[np.ndarray, ...]:
        tables = []
        for n, h in zip(self.points, self.spacing):
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
            k.setflags(write=False)
            tables.append(k)
        return tuple(tables)

    def k_squared(self) -> np.ndarray:
        """|k|^2 on the grid, summed axis by axis; computed once per grid
        and returned read-only."""
        return self._k_squared

    @cached_property
    def _k_squared(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for axis in range(self.dims):
            shape = [1] * self.dims
            shape[axis] = self.points[axis]
            k2 = k2 + self.wavenumbers(axis).reshape(shape) ** 2
        k2.setflags(write=False)
        return k2

    def axis_line(self, i: int) -> "GridSpec":
        """The 1D grid along axis i of a 2D grid. Built once per grid, so
        every slice along an axis shares one line and its cached tables."""
        return self._lines[i]

    @cached_property
    def _lines(self) -> tuple["GridSpec", ...]:
        return tuple(
            GridSpec(extent=(L,), points=(n,), origin=(o,))
            for L, n, o in zip(self.extent, self.points, self.origin)
        )

    def wrap(self, x: np.ndarray, i: int = 0) -> np.ndarray:
        """Map coordinates periodically into [origin, origin + extent) on axis i.

        The mod of a point just under the origin, and the add after it, can
        round up onto the upper edge; such a point is the origin's image.
        """
        lo, period = self.origin[i], self.extent[i]
        out = lo + np.mod(x - lo, period)
        # [()] keeps a scalar a scalar
        return np.where(out >= lo + period, lo, out)[()]


def _freeze(values: np.ndarray) -> np.ndarray:
    values = np.array(values, copy=True)
    values.setflags(write=False)
    return values


def _check_finite(values: np.ndarray, name: str):
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.flatnonzero(bad.ravel())[0])
        raise NonFiniteFieldError(name, int(bad.sum()), idx)


@dataclass(frozen=True)
class ScalarField:
    """Real values on a grid (densities, phases, potentials...)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def normalized(self) -> "ScalarField":
        """Scale so the field integrates to one (density normalization)."""
        total = integrate(self)
        if total <= 0:
            raise GridError("cannot normalize a field with non-positive integral")
        return ScalarField(self.grid, self.values / total)


@dataclass(frozen=True)
class VectorField:
    """One real component per grid axis, all on the same grid."""

    grid: GridSpec
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = []
        for c in self.components:
            c = np.asarray(c, dtype=float)
            if c.shape != self.grid.shape:
                raise GridMismatchError(
                    f"component shape {c.shape} != grid shape {self.grid.shape}"
                )
            comps.append(_freeze(c))
        if len(comps) != self.grid.dims:
            raise GridMismatchError(
                f"expected {self.grid.dims} components, got {len(comps)}"
            )
        object.__setattr__(self, "components", tuple(comps))

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.components[i])


@dataclass(frozen=True)
class WaveField:
    """Complex values on a grid (wave functions)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise GridError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def _adopt(cls, grid: GridSpec, values: np.ndarray) -> "WaveField":
        """Wrap, uncopied and frozen, a complex grid-shaped array no one else holds."""
        values.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        return field

    def density(self) -> ScalarField:
        return ScalarField(self.grid, np.abs(self.values) ** 2)

    def norm(self) -> float:
        """sqrt of the integrated probability density."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def normalized(self) -> "WaveField":
        n = self.norm()
        if n <= 0:
            raise GridError("cannot normalize the zero wave field")
        return WaveField(self.grid, self.values / n)


Field = Union[ScalarField, VectorField, WaveField]


def _nonzero_parts(values: np.ndarray) -> tuple[bool, bool]:
    """Whether the real and the imaginary part of complex data have a
    non-zero element: the transform choice of _spectral_derivative."""
    # one element with both parts non-zero settles it without two scans
    probe = values.flat[values.size // 2]
    return (bool(probe.real) or bool(values.real.any()),
            bool(probe.imag) or bool(values.imag.any()))


def _spectral_derivative(values: np.ndarray, grid: GridSpec, axis: int,
                         scale: float = 1.0,
                         parts: tuple[bool, bool] | None = None) -> np.ndarray:
    """scale * d/dx along one axis via FFT, one transform pair per call.

    The transform is chosen by the data, not the dtype:

    - complex data with both parts non-zero: one complex fft/ifft pair;
    - real data, or complex data with one part exactly zero: an rfft/irfft
      pair on the non-zero part, and the zero part of the result is exactly
      zero. A complex transform would leak rounding noise into it, which
      downstream phase-gradient ratios amplify.

    parts, the _nonzero_parts of a larger field, makes a piece of that field
    (some of its lines) take the field's transform, so every line comes out
    bit for bit as in the whole field's derivative.

    The Nyquist mode is zeroed, which makes odd derivatives of real data
    real and avoids the asymmetric lone mode. scale multiplies the
    wavenumbers, so the output needs no second scaling pass; the factor
    1j * scale * k is built once per grid, axis and scale.
    """
    factor = grid._derivative_factors.get((axis, scale))
    if factor is None:
        factor = grid._derivative_factors[axis, scale] = _derivative_factor(
            grid, axis, scale)
    if values.dtype.kind == "c":
        has_re, has_im = _nonzero_parts(values) if parts is None else parts
        if has_re and has_im:
            fk = np.fft.fft(values, axis=axis)
            fk *= factor[0]
            return np.fft.ifft(fk, axis=axis)
        out = np.zeros(values.shape, dtype=complex)
        if has_im:
            out.imag = _spectral_derivative(values.imag, grid, axis, scale)
        else:
            out.real = _spectral_derivative(values.real, grid, axis, scale)
        return out
    fk = np.fft.rfft(values, axis=axis)
    fk *= factor[1]
    return np.fft.irfft(fk, grid.points[axis], axis=axis)


def _derivative_factor(grid: GridSpec, axis: int,
                       scale: float) -> tuple[np.ndarray, np.ndarray]:
    """1j * scale * k along one axis with the Nyquist mode zeroed, shaped to
    broadcast against a field: the full spectrum and its rfft half."""
    n = grid.points[axis]
    k = grid.wavenumbers(axis) * scale
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * grid.dims
    shape[axis] = -1
    full = 1j * k.reshape(shape)
    half = 1j * k[: n // 2 + 1].reshape(shape)
    full.setflags(write=False)
    half.setflags(write=False)
    return full, half


def _spectral_laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.fft.ifftn(np.fft.fftn(values) * (-grid.k_squared()))
    return out.real if not np.iscomplexobj(values) else out


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; exact for band-limited periodic fields."""
    _check_finite(f.values, "gradient input")
    comps = tuple(
        _spectral_derivative(f.values, f.grid, axis) for axis in range(f.grid.dims)
    )
    return VectorField(f.grid, comps)


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian (multiplication by -|k|^2)."""
    _check_finite(f.values, "laplacian input")
    return ScalarField(f.grid, _spectral_laplacian(f.values, f.grid))


def divergence(v: VectorField) -> ScalarField:
    """Sum of per-axis spectral derivatives of the components."""
    for c in v.components:
        _check_finite(c, "divergence input")
    out = np.zeros(v.grid.shape)
    for axis in range(v.grid.dims):
        out = out + _spectral_derivative(v.components[axis], v.grid, axis)
    return ScalarField(v.grid, out)


def integrate(f: ScalarField) -> float:
    """Riemann sum times cell volume; spectrally exact on periodic grids."""
    _check_finite(f.values, "integrate input")
    return float(np.sum(f.values) * f.grid.cell_volume)


def complex_gradient(psi: WaveField) -> tuple[np.ndarray, ...]:
    """Per-axis spectral derivative of a complex field (plumbing for
    velocity fields and currents)."""
    _check_finite(psi.values, "complex_gradient input")
    return tuple(
        _spectral_derivative(psi.values, psi.grid, axis)
        for axis in range(psi.grid.dims)
    )


# 8th-order centered stencils, for callers that need *local* differencing:
# rounding stays relative to the local value (a spectral transform imposes an
# absolute noise floor that swamps deep density tails), and artifacts from
# non-periodic data stay within four cells instead of polluting the domain.
# Both stencils read one copy of the input padded with four periodic ghost
# cells at each end of the derivative axis: the neighbour at offset o is
# then a plain slice of that copy, bit for bit np.roll(values, -o, axis),
# and the terms are summed in the same order as the roll formulation.
_D1_W = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
_D2_W0 = -205.0 / 72.0
_D2_W = (8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)
_GHOST = len(_D1_W)


def _ghost_shifts(values: np.ndarray, axis: int):
    """shift(o)[i] == values[(i + o) mod n] along axis, for |o| <= _GHOST,
    as views of one ghost-padded copy."""
    n = values.shape[axis]
    lead = (slice(None),) * axis
    padded = np.concatenate((values[lead + (slice(n - _GHOST, n),)], values,
                             values[lead + (slice(0, _GHOST),)]), axis=axis)
    return lambda o: padded[lead + (slice(_GHOST + o, _GHOST + o + n),)]


def fd_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """8th-order centered first derivative with periodic wrap."""
    h = grid.spacing[axis]
    shift = _ghost_shifts(values, axis)
    out = np.zeros_like(values)
    for offset, w in enumerate(_D1_W, start=1):
        out += w * (shift(offset) - shift(-offset))
    return out / h


def fd_second_derivative(values: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """8th-order centered second derivative with periodic wrap."""
    h = grid.spacing[axis]
    shift = _ghost_shifts(values, axis)
    out = _D2_W0 * values
    for offset, w in enumerate(_D2_W, start=1):
        out += w * (shift(offset) + shift(-offset))
    return out / h**2


def _interp_weights(grid: GridSpec, x: np.ndarray, axis: int):
    """Lower node index in [0, n) and fractional offset along one axis, periodic.

    The only weight routine: every point lookup (sample_at, conditional
    slices, velocity fields) goes through it, so the node snap lives here.
    The float mod runs only when some point lies outside [0, n) cells and
    the snap masks only when some point sits within _NODE_SNAP of a node;
    otherwise both would change nothing, so skipping them keeps every
    result bit for bit.
    """
    n = grid.points[axis]
    u = x - grid.origin[axis]
    u /= grid.spacing[axis]
    if np.size(u) == 0:
        return np.zeros(np.shape(u), dtype=np.int64), u
    # negated tests send NaN down the slow path, as before the fast path
    if not (u.min() >= 0.0 and u.max() < n):
        u = np.mod(u, n)
    lower = np.floor(u)
    frac = u
    frac -= lower
    i0 = lower.astype(np.int64)
    if not (frac.min() >= _NODE_SNAP and frac.max() <= 1.0 - _NODE_SNAP):
        # snap to nodes so stored values are reproduced exactly there
        hi = frac > 1.0 - _NODE_SNAP
        frac = np.where((frac < _NODE_SNAP) | hi, 0.0, frac)
        i0 = np.mod(np.where(hi, i0 + 1, i0), n)
    return i0, frac


def _interp_values(values: np.ndarray, grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Linear (1D) / bilinear (2D) periodic interpolation of a value array."""
    if grid.dims == 1:
        xs = np.asarray(x, dtype=float)
        i0, w = _interp_weights(grid, xs, 0)
        i1 = np.mod(i0 + 1, grid.points[0])
        return (1.0 - w) * values[i0] + w * values[i1]
    pos = np.asarray(x, dtype=float)
    squeeze = pos.ndim == 1
    pts = pos.reshape(-1, 2)
    i0, wx = _interp_weights(grid, pts[:, 0], 0)
    j0, wy = _interp_weights(grid, pts[:, 1], 1)
    i1 = np.mod(i0 + 1, grid.points[0])
    j1 = np.mod(j0 + 1, grid.points[1])
    # interpolate along y first, then x; fixed order keeps results reproducible
    v0 = (1.0 - wy) * values[i0, j0] + wy * values[i0, j1]
    v1 = (1.0 - wy) * values[i1, j0] + wy * values[i1, j1]
    out = (1.0 - wx) * v0 + wx * v1
    return out[0] if squeeze and out.shape == (1,) else out


def sample_at(f: Field, x) -> np.ndarray:
    """Sample a field at one position or an array of positions.

    Positions are wrapped periodically into the domain. 1D positions are
    scalars or shape (m,) arrays; 2D positions are pairs or (m, 2) arrays.
    Vector fields return one interpolated array per component, stacked on
    the last axis.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise NonFiniteFieldError("sample position", int(np.sum(~np.isfinite(xs))), 0)
    if isinstance(f, VectorField):
        comps = [_interp_values(c, f.grid, xs) for c in f.components]
        return np.stack(comps, axis=-1)
    return _interp_values(f.values, f.grid, xs)
