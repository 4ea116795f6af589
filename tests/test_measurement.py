"""Pointer-measurement model: exact translation action and 2D cross-check."""

import numpy as np
import pytest

from qfluid.errors import ConfigError, DomainSizeError
from qfluid.grids import GridSpec, integrate
from qfluid.oracle import Potential, gaussian_packet, stationary_states
from qfluid.measurement import (
    joint_grid,
    lobe_masses,
    marginal_mean,
    pointer_marginal,
    pointer_measurement_brute,
    pointer_measurement_evolve,
)

Y0 = -4.0
POINTER_WIDTH = 0.5


@pytest.fixture(scope="module")
def setup():
    grid_x = GridSpec.centered(24.0, 256)
    grid_y = GridSpec.centered(16.0, 256)
    potential = Potential.harmonic(grid_x, 1.0)
    pairs = stationary_states(potential, 4)
    pointer = gaussian_packet(grid_y, POINTER_WIDTH, center=Y0)
    return grid_x, grid_y, potential, pairs, pointer


class TestSingleEigenstate:
    def test_pointer_translates_by_energy(self, setup):
        grid_x, grid_y, _, pairs, pointer = setup
        coupling, duration = 1.0, 2.0
        coeffs = [0.0, 0.0, 1.0, 0.0]
        joint = pointer_measurement_evolve(coeffs, pairs, pointer, coupling, duration)
        marginal = pointer_marginal(joint)
        expected = Y0 + coupling * pairs[2][0] * duration
        assert abs(marginal_mean(marginal) - expected) <= grid_y.spacing[0]
        assert abs(joint.norm() - 1.0) <= 1e-9

    def test_zero_coupling_leaves_pointer(self, setup):
        _, _, _, pairs, pointer = setup
        coeffs = [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0]
        joint = pointer_measurement_evolve(coeffs, pairs, pointer, 0.0, 4.0)
        marginal = pointer_marginal(joint)
        assert marginal_mean(marginal) == pytest.approx(Y0, abs=1e-9)
        # the x-content is the freely dephased superposition; y stays put
        y_profile = np.abs(pointer.values) ** 2
        assert np.abs(marginal.values - y_profile).max() <= 1e-9

    def test_shift_beyond_domain_rejected(self, setup):
        _, _, _, pairs, pointer = setup
        with pytest.raises(DomainSizeError):
            pointer_measurement_evolve([0, 0, 0, 1], pairs, pointer, 4.0, 4.0)


class TestSuperposition:
    def test_bimodal_marginal_masses(self, setup):
        _, grid_y, _, pairs, pointer = setup
        coupling, duration = 1.0, 4.0
        coeffs = [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0, 0.0]
        joint = pointer_measurement_evolve(coeffs, pairs, pointer, coupling, duration)
        marginal = pointer_marginal(joint)
        split = Y0 + coupling * duration * (pairs[0][0] + pairs[1][0]) / 2
        below, above = lobe_masses(marginal, split)
        assert abs(below - 0.5) <= 1e-3
        assert abs(above - 0.5) <= 1e-3

    def test_marginal_is_weighted_mixture_of_shifted_profiles(self, setup):
        _, grid_y, _, pairs, pointer = setup
        coupling, duration = 1.0, 4.0
        c0, c1 = 0.8, 0.6
        joint = pointer_measurement_evolve([c0, c1, 0, 0], pairs, pointer,
                                           coupling, duration)
        marginal = pointer_marginal(joint)
        y = grid_y.axis(0)
        expected = np.zeros_like(y)
        for c, (energy, _) in zip((c0, c1), pairs[:2]):
            shift = coupling * energy * duration
            prof = np.exp(-((y - Y0 - shift) ** 2) / (2 * POINTER_WIDTH**2))
            prof /= prof.sum() * grid_y.spacing[0]
            expected += abs(c) ** 2 * prof
        gap = np.sum(np.abs(marginal.values - expected)) * grid_y.spacing[0]
        assert gap <= 1e-6

    def test_unequal_weights(self, setup):
        _, _, _, pairs, pointer = setup
        coupling, duration = 1.0, 4.0
        c0, c1 = 0.8, 0.6
        joint = pointer_measurement_evolve([c0, c1, 0, 0], pairs, pointer,
                                           coupling, duration)
        marginal = pointer_marginal(joint)
        split = Y0 + coupling * duration * (pairs[0][0] + pairs[1][0]) / 2
        below, above = lobe_masses(marginal, split)
        assert abs(below - c0**2) <= 1e-3
        assert abs(above - c1**2) <= 1e-3

    def test_coefficient_count_checked(self, setup):
        _, _, _, pairs, pointer = setup
        with pytest.raises(ConfigError):
            pointer_measurement_evolve([1.0], pairs, pointer, 1.0, 1.0)


class TestBruteForceCrossCheck:
    def test_brute_2d_evolution_agrees(self):
        grid_x = GridSpec.centered(24.0, 128)
        grid_y = GridSpec.centered(16.0, 128)
        potential = Potential.harmonic(grid_x, 1.0)
        pairs = stationary_states(potential, 2)
        pointer = gaussian_packet(grid_y, POINTER_WIDTH, center=Y0)
        coupling, duration = 1.0, 4.0
        coeffs = [1 / np.sqrt(2), 1 / np.sqrt(2)]
        brute = pointer_measurement_brute(coeffs, pairs, pointer, potential,
                                          coupling, duration, dt=2e-3)
        closed = pointer_measurement_evolve(coeffs, pairs, pointer,
                                            coupling, duration)
        assert abs(brute.norm() - 1.0) <= 1e-9
        m_brute = pointer_marginal(brute)
        m_closed = pointer_marginal(closed)
        split = Y0 + coupling * duration * (pairs[0][0] + pairs[1][0]) / 2
        below_b, above_b = lobe_masses(m_brute, split)
        assert abs(below_b - 0.5) <= 2e-2
        assert abs(above_b - 0.5) <= 2e-2
        l1 = np.sum(np.abs(m_brute.values - m_closed.values)) * grid_y.spacing[0]
        assert l1 <= 5e-2

    def test_duration_must_be_multiple_of_dt(self):
        grid_x = GridSpec.centered(24.0, 128)
        grid_y = GridSpec.centered(16.0, 128)
        potential = Potential.harmonic(grid_x, 1.0)
        pairs = stationary_states(potential, 2)
        pointer = gaussian_packet(grid_y, POINTER_WIDTH, center=Y0)
        with pytest.raises(ConfigError):
            pointer_measurement_brute([1, 0], pairs, pointer, potential,
                                      1.0, 1.0, dt=0.3)


    @pytest.fixture(scope="class")
    def small(self):
        grid_x = GridSpec.centered(24.0, 64)
        grid_y = GridSpec.centered(16.0, 64)
        potential = Potential.harmonic(grid_x, 1.0)
        pairs = stationary_states(potential, 2)
        pointer = gaussian_packet(grid_y, POINTER_WIDTH, center=Y0)
        return potential, pairs, pointer

    def test_matches_step_by_step_2d_strang_loop(self, small):
        potential, pairs, pointer = small
        coeffs = [1 / np.sqrt(2), 1 / np.sqrt(2)]
        coupling, duration, dt = 1.0, 0.5, 1e-2
        brute = pointer_measurement_brute(coeffs, pairs, pointer, potential,
                                          coupling, duration, dt=dt)
        ref = three_transform_strang(coeffs, pairs, pointer, potential,
                                     coupling, duration, dt)
        assert np.abs(brute.values - ref).max() <= 1e-12
        assert abs(brute.norm() - 1.0) <= 1e-12

    def test_zero_duration_returns_initial_state(self, small):
        potential, pairs, pointer = small
        coeffs = [0.6, 0.8]
        brute = pointer_measurement_brute(coeffs, pairs, pointer, potential,
                                          1.0, 0.0, dt=1e-2)
        initial = np.outer(0.6 * pairs[0][1].values + 0.8 * pairs[1][1].values,
                           pointer.values)
        assert np.array_equal(brute.values, initial)


def three_transform_strang(coeffs, eigenpairs, pointer, potential_x, coupling,
                           duration, dt, hbar=1.0, m=1.0):
    """Step-by-step 2D Strang loop: half B-phase in (x, k_y), full A-phase in
    (k_x, k_y), half B-phase in (x, k_y), back to (x, y) after every factor."""
    sys0 = sum(c * p[1].values for c, p in zip(coeffs, eigenpairs))
    psi = np.outer(sys0, pointer.values).astype(complex)
    grid2 = joint_grid(eigenpairs[0][1].grid, pointer.grid)
    kx = grid2.wavenumbers(0)[:, None]
    ky = grid2.wavenumbers(1)[None, :]
    factor = 1.0 + coupling * hbar * ky
    half_b = np.exp(-0.5j * potential_x.values[:, None] * factor * dt / hbar)
    full_a = np.exp(-1j * hbar**2 * kx**2 / (2.0 * m) * factor * dt / hbar)
    for _ in range(round(duration / dt)):
        psi = np.fft.ifft(half_b * np.fft.fft(psi, axis=1), axis=1)
        psi = np.fft.ifftn(full_a * np.fft.fftn(psi))
        psi = np.fft.ifft(half_b * np.fft.fft(psi, axis=1), axis=1)
    return psi


def test_joint_grid_requires_1d_parts():
    g1 = GridSpec.centered(8.0, 64)
    g2 = joint_grid(g1, g1)
    assert g2.dims == 2
    with pytest.raises(ConfigError):
        joint_grid(g2, g1)


def test_marginal_integrates_to_one(setup=None):
    grid_x = GridSpec.centered(24.0, 128)
    grid_y = GridSpec.centered(16.0, 128)
    potential = Potential.harmonic(grid_x, 1.0)
    pairs = stationary_states(potential, 2)
    pointer = gaussian_packet(grid_y, POINTER_WIDTH, center=Y0)
    joint = pointer_measurement_evolve([0.6, 0.8], pairs, pointer, 1.0, 3.0)
    assert integrate(pointer_marginal(joint)) == pytest.approx(1.0, abs=1e-9)
