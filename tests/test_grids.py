"""Grid containers and the discrete calculus: analytic examples plus the
conservation/consistency properties every other module leans on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfluid.errors import GridError, GridMismatchError, NonFiniteFieldError
from qfluid.grids import (
    GridSpec,
    ScalarField,
    VectorField,
    WaveField,
    _spectral_derivative,
    divergence,
    fd_derivative,
    fd_second_derivative,
    gradient,
    integrate,
    laplacian,
    sample_at,
)

L = 16.0


@pytest.fixture(scope="module")
def line():
    return GridSpec.regular(L, 256)


def band_limited(grid, seed, kmax=8):
    """Random real field with spectrum confined to |k| <= kmax modes."""
    rng = np.random.default_rng(seed)
    n = grid.points[0]
    coeff = np.zeros(n, dtype=complex)
    for mode in range(1, kmax):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        coeff[mode] = a
        coeff[-mode] = np.conj(a)
    return ScalarField(grid, np.fft.ifft(coeff).real)


class TestGridSpec:
    def test_spacing_and_volume_consistency(self):
        g = GridSpec.regular((12.0, 8.0), (64, 32))
        assert g.spacing == (12.0 / 64, 8.0 / 32)
        assert g.cell_volume * g.size == pytest.approx(12.0 * 8.0, rel=1e-15)

    def test_centered_origin(self):
        g = GridSpec.centered(10.0, 64)
        assert g.origin == (-5.0,)
        assert g.axis(0)[0] == -5.0

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            GridSpec.regular(1.0, 4)

    def test_three_dimensional_rejected(self):
        with pytest.raises(GridError):
            GridSpec.regular((1.0, 1.0, 1.0), (16, 16, 16))

    def test_wrap_never_returns_the_upper_edge(self):
        # np.mod(-1e-15, 24.0) rounds up to 24.0, which put the point on 12.0
        g = GridSpec.centered(24.0, 128)
        got = g.wrap(np.array([-12.0 - 1e-15, -12.0 - 5e-16, 12.0, 36.0, 3.5, -12.0]))
        assert np.all(got >= -12.0) and np.all(got < 12.0)
        assert got.tolist() == [-12.0, -12.0, -12.0, -12.0, 3.5, -12.0]
        assert np.isnan(g.wrap(np.array([np.nan]))).all()
        assert g.wrap(-12.0 - 1e-15) == -12.0


def _wrap_reference(grid, x, i):
    """GridSpec.wrap as the textbook expression: lo + mod(x - lo, period),
    with the upper edge mapped to its image at the origin."""
    lo, period = grid.origin[i], grid.extent[i]
    out = lo + np.mod(x - lo, period)
    return np.where(out >= lo + period, lo, out)[()]


_WRAP_GRID = GridSpec.regular((24.0, 7.5), (128, 64), origin=(-12.0, 0.3))


@settings(max_examples=60, deadline=None)
@given(axis=st.sampled_from([0, 1]),
       xs=st.lists(st.one_of(st.floats(-100.0, 100.0),
                             st.sampled_from([-12.0 - 1e-15, -12.0 - 5e-16, 12.0,
                                              0.3 - 1e-16, 7.8, -7.2])),
                   min_size=0, max_size=30))
def test_wrap_equals_the_mod_expression_bit_for_bit(axis, xs):
    x = np.array(xs, dtype=float)
    before = x.copy()
    got = _WRAP_GRID.wrap(x, axis)
    assert got.tobytes() == _wrap_reference(_WRAP_GRID, x, axis).tobytes()
    # a fresh buffer: the input keeps its bits
    assert not np.shares_memory(got, x)
    assert x.tobytes() == before.tobytes()
    lo, period = _WRAP_GRID.origin[axis], _WRAP_GRID.extent[axis]
    assert np.all((got >= lo) & (got < lo + period))


@pytest.mark.parametrize("x", [-12.0 - 1e-15, 12.0, 3.5, 37, np.float64(-40.25)])
def test_wrap_keeps_a_scalar_a_scalar(x):
    got = _WRAP_GRID.wrap(x, 0)
    assert not isinstance(got, np.ndarray)
    assert np.float64(got).tobytes() == np.float64(_wrap_reference(_WRAP_GRID, x, 0)).tobytes()


class TestKSquared:
    def test_matches_axis_sum_and_is_cached(self):
        g = GridSpec.regular((8.0, 5.0), (16, 10))
        k2 = np.zeros(g.shape)
        k2 = k2 + g.wavenumbers(0)[:, None] ** 2
        k2 = k2 + g.wavenumbers(1)[None, :] ** 2
        assert np.array_equal(g.k_squared(), k2)
        assert g.k_squared() is g.k_squared()
        assert not g.k_squared().flags.writeable

    def test_1d(self, line):
        assert np.array_equal(line.k_squared(), line.wavenumbers(0) ** 2)


class TestGridCaches:
    def test_wavenumbers_cached_and_read_only(self):
        g = GridSpec.regular((8.0, 5.0), (16, 10))
        for axis in range(2):
            k = g.wavenumbers(axis)
            assert k is g.wavenumbers(axis)
            assert not k.flags.writeable
            expected = 2.0 * np.pi * np.fft.fftfreq(g.points[axis], d=g.spacing[axis])
            assert np.array_equal(k, expected)
        with pytest.raises(ValueError):
            g.wavenumbers(0)[1] = 0.0

    def test_spacing_cached(self):
        g = GridSpec.regular((8.0, 5.0), (16, 10))
        assert g.spacing is g.spacing
        assert g.spacing == (0.5, 0.5)

    def test_caches_do_not_touch_equality(self):
        a = GridSpec.regular((8.0, 5.0), (16, 10))
        b = GridSpec.regular((8.0, 5.0), (16, 10))
        a.wavenumbers(0), a.k_squared()
        assert a == b and hash(a) == hash(b)


class TestGradient:
    def test_constant_field_has_zero_gradient(self, line):
        f = ScalarField.full(line, 3.7)
        assert np.abs(gradient(f).components[0]).max() == 0.0

    def test_sine_matches_analytic(self, line):
        x = line.axis(0)
        f = ScalarField(line, np.sin(2 * np.pi * x / L))
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.abs(gradient(f).components[0] - exact).max() <= 1e-10

    def test_gaussian_matches_analytic(self):
        g = GridSpec.centered(L, 256)
        x = g.axis(0)
        s = L / 16
        f = ScalarField(g, np.exp(-(x**2) / (2 * s * s)))
        exact = -(x / s**2) * f.values
        err = np.linalg.norm(gradient(f).components[0] - exact)
        assert err / np.linalg.norm(exact) <= 1e-8

    def test_rejects_non_finite(self, line):
        vals = np.zeros(256)
        vals[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            gradient(ScalarField(line, vals))


class TestLaplacian:
    def test_constant(self, line):
        assert np.abs(laplacian(ScalarField.full(line, 1.0)).values).max() == 0.0

    def test_sine(self, line):
        x = line.axis(0)
        f = ScalarField(line, np.sin(2 * np.pi * x / L))
        exact = -((2 * np.pi / L) ** 2) * f.values
        assert np.abs(laplacian(f).values - exact).max() <= 1e-10

    def test_2d_product(self):
        g = GridSpec.regular((8.0, 8.0), (64, 64))
        xx, yy = g.meshgrid()
        f = ScalarField(g, np.sin(2 * np.pi * xx / 8) * np.sin(2 * np.pi * yy / 8))
        exact = -2 * (2 * np.pi / 8) ** 2 * f.values
        assert np.abs(laplacian(f).values - exact).max() <= 1e-10


class TestDivergence:
    def test_uniform_vector_field(self, line):
        v = VectorField(line, (np.full(256, 2.0),))
        assert np.abs(divergence(v).values).max() == 0.0

    def test_sine_component(self, line):
        x = line.axis(0)
        v = VectorField(line, (np.sin(2 * np.pi * x / L),))
        exact = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.abs(divergence(v).values - exact).max() <= 1e-10

    def test_divergence_of_gradient_is_laplacian(self, line):
        f = band_limited(line, seed=3)
        gap = np.abs(divergence(gradient(f)).values - laplacian(f).values).max()
        assert gap <= 1e-10

    def test_mismatched_grids_rejected(self, line):
        other = GridSpec.regular(L, 128)
        with pytest.raises(GridMismatchError):
            VectorField(other, (np.zeros(256),))


class TestIntegrate:
    def test_uniform_density(self, line):
        f = ScalarField.full(line, 1.0 / L)
        assert integrate(f) == pytest.approx(1.0, abs=1e-15)

    def test_normalized_gaussian(self):
        g = GridSpec.centered(L, 256)
        x = g.axis(0)
        s = L / 16
        f = ScalarField(g, np.exp(-(x**2) / (2 * s * s)) / np.sqrt(2 * np.pi * s * s))
        assert integrate(f) == pytest.approx(1.0, abs=1e-9)

    def test_zero(self, line):
        assert integrate(ScalarField.full(line, 0.0)) == 0.0


class TestSampleAt:
    def test_node_values_exact(self, line):
        f = band_limited(line, seed=11)
        x = line.axis(0)
        for j in (0, 17, 140, 255):
            assert sample_at(f, x[j]) == f.values[j]

    def test_midpoint_is_neighbor_mean(self, line):
        ramp = np.minimum(np.arange(256.0), 256.0 - np.arange(256.0))
        f = ScalarField(line, ramp)
        x = line.axis(0)
        mid = x[10] + line.spacing[0] / 2
        assert sample_at(f, mid) == pytest.approx((ramp[10] + ramp[11]) / 2, abs=1e-12)

    def test_interp_error_bound_for_sine(self, line):
        x = line.axis(0)
        f = ScalarField(line, np.sin(2 * np.pi * x / L))
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, L, 1000)
        err = np.abs(sample_at(f, pts) - np.sin(2 * np.pi * pts / L)).max()
        bound = (2 * np.pi / L) ** 2 * line.spacing[0] ** 2 / 8
        assert err <= bound

    def test_wraps_periodically(self, line):
        f = band_limited(line, seed=2)
        assert sample_at(f, 1.25) == pytest.approx(sample_at(f, 1.25 + L), abs=1e-12)

    def test_vector_and_wave_sampling(self):
        g = GridSpec.regular((8.0, 8.0), (32, 32))
        v = VectorField(g, (np.ones((32, 32)), 2 * np.ones((32, 32))))
        out = sample_at(v, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (2, 2)
        assert np.allclose(out[:, 1], 2.0)
        w = WaveField(g, (1 + 2j) * np.ones((32, 32)))
        assert sample_at(w, (0.3, 0.4)) == pytest.approx(1 + 2j)

    def test_non_finite_position_rejected(self, line):
        f = band_limited(line, seed=1)
        with pytest.raises(NonFiniteFieldError):
            sample_at(f, np.nan)


class TestImmutability:
    def test_values_not_writable(self, line):
        f = band_limited(line, seed=0)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_read_only_input_is_still_copied(self, line):
        # an owning array can be made writable again; the field must not see it
        v = np.ones(line.shape, dtype=complex)
        v.setflags(write=False)
        w = WaveField(line, v)
        v.setflags(write=True)
        v[0] = 5.0
        assert not np.shares_memory(w.values, v)
        assert w.values[0] == 1.0


# properties the whole package leans on


@settings(max_examples=30, deadline=None)
@given(shift=st.floats(-1e3, 1e3, allow_nan=False), seed=st.integers(0, 1000))
def test_gradient_shift_invariance(shift, seed):
    g = GridSpec.regular(L, 128)
    f = band_limited(g, seed)
    g1 = gradient(f).components[0]
    g2 = gradient(ScalarField(g, f.values + shift)).components[0]
    assert np.abs(g1 - g2).max() <= 1e-12 * max(1.0, abs(shift))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_divergence_theorem(seed):
    g = GridSpec.regular((8.0, 8.0), (32, 32))
    rng = np.random.default_rng(seed)
    v = VectorField(g, (rng.standard_normal((32, 32)), rng.standard_normal((32, 32))))
    assert abs(integrate(divergence(v))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_laplacian_equals_div_grad(seed):
    g = GridSpec.regular(L, 128)
    f = band_limited(g, seed)
    gap = np.abs(laplacian(f).values - divergence(gradient(f)).values).max()
    assert gap <= 1e-10


# np.roll formulation of the 8th-order stencils, the reference for the
# ghost-cell kernels: same weights, same summation order
_D1 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
_D2_0 = -205.0 / 72.0
_D2 = (8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)


def roll_derivative(values, grid, axis):
    out = np.zeros_like(values)
    for offset, w in enumerate(_D1, start=1):
        out += w * (np.roll(values, -offset, axis=axis)
                    - np.roll(values, offset, axis=axis))
    return out / grid.spacing[axis]


def roll_second_derivative(values, grid, axis):
    out = _D2_0 * values.copy()
    for offset, w in enumerate(_D2, start=1):
        out += w * (np.roll(values, -offset, axis=axis)
                    + np.roll(values, offset, axis=axis))
    return out / grid.spacing[axis] ** 2


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.integers(8, 40), min_size=1, max_size=2),
       seed=st.integers(0, 1000))
def test_ghost_cell_stencils_equal_roll_reference(points, seed):
    g = GridSpec.regular(tuple(3.0 + n for n in points), tuple(points))
    values = np.random.default_rng(seed).standard_normal((2,) + g.shape)
    for axis in range(g.dims):
        for stencil, roll in ((fd_derivative, roll_derivative),
                              (fd_second_derivative, roll_second_derivative)):
            # a leading stack axis passes through: each row as if alone
            stacked = stencil(values, g, axis)
            for row in range(2):
                want = roll(values[row], g, axis)
                assert np.array_equal(stencil(values[row], g, axis), want)
                assert stacked[row].tobytes() == want.tobytes()


def part_by_part_derivative(values, grid, axis, scale):
    """The former kernel: a full complex FFT pair for the real part and
    another for the imaginary part, Nyquist zeroed, then scaled."""
    n = grid.points[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing[axis])
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * grid.dims
    shape[axis] = n
    ik = 1j * k.reshape(shape)

    def real(part):
        return np.fft.ifft(ik * np.fft.fft(part, axis=axis), axis=axis).real

    out = real(values.real) + 1j * real(values.imag) if np.iscomplexobj(values) \
        else real(values)
    return scale * out


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.integers(8, 41), min_size=1, max_size=2),
       seed=st.integers(0, 1000),
       kind=st.sampled_from(["complex", "real-probe", "real", "imaginary", "real-complex"]),
       scale=st.sampled_from([1.0, 0.37, -2.5]))
def test_spectral_derivative_matches_part_by_part(points, seed, kind, scale):
    g = GridSpec.regular(tuple(2.0 + n / 3 for n in points), tuple(points))
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    if kind == "real-probe":  # the element the dispatch probes first is real
        im.flat[im.size // 2] = 0.0
    values = {"complex": re + 1j * im, "real-probe": re + 1j * im, "real": re,
              "imaginary": 1j * im, "real-complex": re + 0j}[kind]
    for axis in range(g.dims):
        kmax = np.abs(g.wavenumbers(axis)).max()
        out = _spectral_derivative(values, g, axis, scale)
        ref = part_by_part_derivative(values, g, axis, scale)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        tol = 1e-13 * kmax * abs(scale) * np.abs(values).max()
        assert np.abs(out - ref).max() <= tol
        if kind in ("real-complex", "imaginary"):
            zero = out.imag if kind == "real-complex" else out.real
            assert not zero.any()


def test_complex_plane_wave_derivative():
    g = GridSpec.regular((6.0, 8.0), (32, 33))
    xx, yy = g.meshgrid()
    k0, k1 = 2 * np.pi * 2 / 6.0, 2 * np.pi * 3 / 8.0
    psi = np.exp(1j * (k0 * xx + k1 * yy))
    for axis, k in enumerate((k0, k1)):
        out = _spectral_derivative(psi, g, axis, 0.5)
        assert np.abs(out - 0.5j * k * psi).max() <= 1e-12
