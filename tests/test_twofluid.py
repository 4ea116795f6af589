"""Diffusion-with-jumps micro-dynamics and the averaged-force identification."""

import numpy as np
import pytest

from conftest import rel_l2
from qfluid.errors import ConfigError, StabilityError
from qfluid.grids import GridSpec, ScalarField, fd_derivative, gradient, integrate
from qfluid.madelung import quantum_potential
from qfluid.oracle import (
    Potential,
    PropagatorState,
    gaussian_packet,
    periodic_gaussian_density,
    plane_wave,
    split_step_evolve,
)
from qfluid.twofluid import (
    TwoFluidConfig,
    averaged_acceleration,
    diffusion_stability_limit,
    fluid2_microstep,
    fluid2_velocity,
    micro_acceleration,
    micro_acceleration_differenced,
    reaction_force,
)

D_DEFAULT = 0.5  # hbar / 2m with hbar = m = 1


@pytest.fixture(scope="module")
def rho_grid():
    return GridSpec.centered(12.0, 512)


@pytest.fixture(scope="module")
def rho(rho_grid):
    return periodic_gaussian_density(rho_grid, 1.0)


def analytic_acceleration(x, s, D, length, n_images=3):
    """-D^2 (g''' + g' g'') for the periodized Gaussian, from image sums."""
    sig = np.zeros_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    d3 = np.zeros_like(x)
    for n in range(-n_images, n_images + 1):
        u = x - n * length
        e = np.exp(-(u**2) / (2 * s * s))
        sig += e
        d1 += -(u / s**2) * e
        d2 += (u**2 / s**4 - 1 / s**2) * e
        d3 += (-(u**3) / s**6 + 3 * u / s**4) * e
    g1 = d1 / sig
    g2 = d2 / sig - g1**2
    g3 = d3 / sig - 3 * (d2 / sig) * g1 + 2 * g1**3
    return -(D**2) * (g3 + g1 * g2)


class TestConfig:
    def test_defaults_satisfy_d_identity(self):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
        assert 2 * cfg.D**2 == pytest.approx(0.5)  # hbar^2 / 2 m^2

    def test_scale_separation_enforced(self):
        with pytest.raises(ConfigError):
            TwoFluidConfig.make(delta_t=1e-4, N_micro=4)


class TestOsmoticVelocity:
    def test_uniform_sigma(self, rho_grid):
        u = fluid2_velocity(ScalarField.full(rho_grid, 0.1), D_DEFAULT)
        assert np.abs(u.components[0]).max() <= 1e-12

    def test_gaussian_linear_profile(self, rho_grid, rho):
        u = fluid2_velocity(rho, D_DEFAULT)
        x = rho_grid.axis(0)
        inner = np.abs(x) <= 3.0
        assert np.abs(u.components[0] - 0.5 * x)[inner].max() <= 1e-7

    def test_plane_wave_density_gives_zero(self, rho_grid):
        # uniform |psi|^2: osmotic velocity vanishes although the flow velocity
        # of the wave is hbar k / m
        psi = plane_wave(rho_grid, 4)
        u = fluid2_velocity(psi.density(), D_DEFAULT)
        assert np.abs(u.components[0]).max() <= 1e-12


class TestMicrostep:
    def test_uniform_fixed_point(self, rho_grid):
        out = fluid2_microstep(ScalarField.full(rho_grid, 0.1), 1e-4, D_DEFAULT)
        assert np.abs(out.values - 0.1).max() <= 1e-15

    def test_single_mode_decay(self):
        grid = GridSpec.regular(16.0, 256)
        x = grid.axis(0)
        amp = 0.01
        sigma = ScalarField(grid, 1.0 / 16.0 + amp * np.cos(2 * np.pi * x / 16.0))
        dt = 1e-3
        out = fluid2_microstep(sigma, dt, D_DEFAULT)
        measured = 2 * np.sum(out.values * np.cos(2 * np.pi * x / 16.0)) / 256
        k2 = (2 * np.pi / 16.0) ** 2
        assert abs(measured - amp * np.exp(-D_DEFAULT * k2 * dt)) <= 1e-6

    def test_mass_conserved(self, rho_grid, rho):
        out = fluid2_microstep(rho, 1e-4, D_DEFAULT)
        assert abs(integrate(out) - integrate(rho)) <= 1e-12

    def test_stability_guard(self, rho_grid, rho):
        limit = diffusion_stability_limit(rho_grid, D_DEFAULT)
        with pytest.raises(StabilityError):
            fluid2_microstep(rho, 2 * limit, D_DEFAULT)

    def test_accumulated_deviation_scales_with_delta_t(self, rho_grid, rho):
        devs = []
        for dt in (2e-4, 1e-4):
            sigma = fluid2_microstep(rho, dt, D_DEFAULT)
            devs.append(np.abs(sigma.values - rho.values).max())
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.05)


def differenced_with_stored_velocity(sigma, dt, D):
    """The cross-check as it read when the second fluid stored its osmotic
    velocity: u at the jump and u after one microstep, each derived from
    its sigma when the state was built, then differenced."""
    grid = sigma.grid
    u_now = fluid2_velocity(sigma, D)
    u_next = fluid2_velocity(fluid2_microstep(sigma, dt, D), D)
    comps = []
    for i in range(grid.dims):
        dudt = (u_next.components[i] - u_now.components[i]) / dt
        conv = sum(
            u_now.components[j] * fd_derivative(u_now.components[i], grid, j)
            for j in range(grid.dims)
        )
        comps.append(dudt + conv)
    return comps


class TestMicroAcceleration:
    def test_uniform_sigma_is_zero(self, rho_grid):
        acc = micro_acceleration(ScalarField.full(rho_grid, 0.1), D_DEFAULT)
        assert np.abs(acc.components[0]).max() <= 1e-12

    def test_matches_symbolic_oracle(self, rho_grid, rho):
        acc = micro_acceleration(rho, D_DEFAULT)
        exact = analytic_acceleration(rho_grid.axis(0), 1.0, D_DEFAULT, 12.0)
        assert rel_l2(acc.components[0], exact) <= 1e-6

    def test_differenced_cross_check_converges(self, rho_grid, rho):
        closed = micro_acceleration(rho, D_DEFAULT).components[0]
        gaps = []
        for dt in (1e-4, 5e-5):
            diffed = micro_acceleration_differenced(rho, dt, D_DEFAULT)
            gap = rel_l2(diffed.components[0], closed)
            assert gap <= 1e-3
            gaps.append(gap)
        assert gaps[1] == pytest.approx(gaps[0] / 2, rel=0.1)

    def test_differenced_equals_stored_velocity_form(self, rho):
        grid2 = GridSpec.centered((12.0, 10.0), (64, 48))
        x, y = grid2.meshgrid()
        sigma2 = ScalarField(grid2, np.exp(-(x**2) / 2 - (y - 0.5) ** 2 / 3) + 1e-3)
        for sigma in (rho, sigma2):
            new = micro_acceleration_differenced(sigma, 1e-4, D_DEFAULT)
            old = differenced_with_stored_velocity(sigma, 1e-4, D_DEFAULT)
            for a, b in zip(new.components, old):
                assert np.array_equal(a, b)


class TestAveragedAcceleration:
    def test_static_uniform_is_zero(self, rho_grid):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
        acc = averaged_acceleration(ScalarField.full(rho_grid, 0.1), cfg)
        assert np.abs(acc.components[0]).max() <= 1e-12

    def test_static_gaussian_reproduces_quantum_force(self, rho_grid, rho):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
        acc = averaged_acceleration(rho, cfg)
        grad_q = gradient(quantum_potential(rho)).components[0]
        assert rel_l2(acc.components[0], grad_q) <= 1e-3
        closed = micro_acceleration(rho, D_DEFAULT).components[0]
        assert rel_l2(acc.components[0], closed) <= 1e-3
        # elementwise agreement with the quantum-potential route
        gap = np.abs(acc.components[0] - grad_q).max()
        assert gap <= 1e-3 * np.abs(grad_q).max()

    def test_oracle_driven_window_deviation_scales_with_window(self):
        grid = GridSpec.centered(24.0, 256)
        potential = Potential.free(grid)
        psi0 = gaussian_packet(grid, 1.0)
        devs = []
        for n_micro, delta_t in ((16, 2e-3), (16, 1e-3)):
            snaps = [PropagatorState(psi0, 0.0, delta_t)]
            for _ in range(n_micro):
                snaps.append(split_step_evolve(snaps[-1], potential, 1))
            series = [s.psi.density() for s in snaps[:n_micro]]
            cfg = TwoFluidConfig.make(delta_t=delta_t, N_micro=n_micro,
                                      micro_substeps=4)
            acc = averaged_acceleration(series, cfg)
            mid_rho = snaps[n_micro // 2].psi.density()
            ref = micro_acceleration(mid_rho, cfg.D).components[0]
            devs.append(rel_l2(acc.components[0], ref))
        # halving the window roughly halves the deviation from the
        # midpoint closed form
        assert devs[1] <= 0.7 * devs[0]

    def test_static_carrier_runs_one_interval(self, rho):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16, micro_substeps=2)
        acc = averaged_acceleration(rho, cfg).components[0]
        sigma = fluid2_microstep(fluid2_microstep(rho, cfg.dt_sub, cfg.D),
                                 cfg.dt_sub, cfg.D)
        assert np.array_equal(acc, micro_acceleration(sigma, cfg.D).components[0])
        # the former static path: N_micro identical cycles, summed and divided
        cycles = np.zeros(rho.grid.shape)
        for _ in range(cfg.N_micro):
            s = rho
            for _ in range(cfg.micro_substeps):
                s = fluid2_microstep(s, cfg.dt_sub, cfg.D)
            cycles += micro_acceleration(s, cfg.D).components[0]
        cycles /= cfg.N_micro
        assert np.abs(acc - cycles).max() <= 1e-15 * np.abs(cycles).max()

    def test_wrong_series_length_rejected(self, rho):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
        with pytest.raises(ConfigError):
            averaged_acceleration([rho] * 7, cfg)


class TestReactionForce:
    def test_equal_densities_identical_returns(self, rho_grid, rho):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
        acc = averaged_acceleration(rho, cfg)
        force = reaction_force(acc, rho, rho)
        assert force.max_rel_gap == 0.0
        assert np.array_equal(force.exact.components[0], force.approx.components[0])

    def test_gap_to_diffused_sigma_halves_with_delta_t(self, rho):
        # sigma is the carrier diffused through one micro interval, so
        # sigma / rho - 1 and with it the exact-approx gap are O(delta_t)
        gaps = []
        for delta_t in (2e-4, 1e-4, 5e-5, 2.5e-5):
            cfg = TwoFluidConfig.make(delta_t=delta_t, N_micro=16)
            sigma = fluid2_microstep(rho, delta_t, cfg.D)
            gaps.append(reaction_force(averaged_acceleration(rho, cfg), sigma, rho).max_rel_gap)
        assert 3e-3 <= gaps[0] <= 4e-3, gaps
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.abs(ratios - 2.0).max() <= 1e-2, ratios

    def test_opposes_quantum_force(self, rho_grid, rho):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16)
        acc = averaged_acceleration(rho, cfg)
        force = reaction_force(acc, rho, rho)
        grad_q = gradient(quantum_potential(rho)).components[0]
        assert rel_l2(force.approx.components[0], -grad_q) <= 1e-3

    def test_quadratic_scaling_in_d(self, rho_grid, rho):
        accs = {}
        for D in (D_DEFAULT, 2 * D_DEFAULT):
            cfg = TwoFluidConfig.make(delta_t=2e-5, N_micro=16, D=D)
            accs[D] = averaged_acceleration(rho, cfg).components[0]
        ratio = np.dot(accs[2 * D_DEFAULT], accs[D_DEFAULT]) / np.dot(
            accs[D_DEFAULT], accs[D_DEFAULT]
        )
        assert ratio == pytest.approx(4.0, rel=5e-3)


class TestIdentificationSweeps:
    def test_error_decreases_monotonically_in_delta_t(self, rho_grid, rho):
        grad_q = gradient(quantum_potential(rho)).components[0]
        errs = []
        for delta_t in (1e-4, 5e-5, 2.5e-5):
            cfg = TwoFluidConfig.make(delta_t=delta_t, N_micro=16)
            acc = averaged_acceleration(rho, cfg)
            errs.append(rel_l2(acc.components[0], grad_q))
        assert errs[0] > errs[1] > errs[2]

    def test_fitted_coefficient_equals_2d_squared(self, rho_grid, rho):
        basis = micro_acceleration(rho, 1.0).components[0] / 2.0
        for D in (0.25, 0.5, 1.0):
            cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16, D=D)
            acc = averaged_acceleration(rho, cfg).components[0]
            c_fit = float(np.dot(acc, basis) / np.dot(basis, basis))
            assert abs(c_fit - 2 * D * D) / (2 * D * D) <= 5e-3

    def test_sigma_tracking_constant_stable_across_resolutions(self):
        consts = []
        for npts in (256, 512):
            grid = GridSpec.centered(12.0, npts)
            rho = periodic_gaussian_density(grid, 1.0)
            dt = 5e-5
            sigma = fluid2_microstep(rho, dt / 2, D_DEFAULT)
            sigma = fluid2_microstep(sigma, dt / 2, D_DEFAULT)
            h = grid.spacing[0]
            lap_inf = np.abs(
                np.gradient(np.gradient(rho.values, h), h)
            ).max()
            c = np.abs(sigma.values - rho.values).max() / (
                D_DEFAULT * dt * lap_inf
            )
            consts.append(c)
        assert abs(consts[0] - 1.0) <= 0.05
        assert abs(consts[1] - 1.0) <= 0.05
        assert abs(consts[0] - consts[1]) <= 0.02

    def test_window_mass_conservation(self, rho_grid, rho):
        cfg = TwoFluidConfig.make(delta_t=1e-4, N_micro=16, micro_substeps=2)
        mass0 = integrate(rho)
        sigma = rho
        for _ in range(cfg.micro_substeps):
            sigma = fluid2_microstep(sigma, cfg.dt_sub, cfg.D)
            assert abs(integrate(sigma) - mass0) <= 1e-9
