"""Polar decomposition, quantum potential, residuals and the direct integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import field_l2, phase_aligned_l2
from qfluid.errors import StabilityError
from qfluid import grids, madelung
from qfluid.grids import GridSpec, ScalarField, WaveField, fd_derivative
from qfluid.madelung import (
    MadelungState,
    cfl_limit,
    decompose,
    madelung_step,
    quantum_potential,
    recompose,
    residuals_from_snapshots,
    velocity_from_wave,
)
from qfluid.oracle import (
    Potential,
    PropagatorState,
    coherent_state,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    probability_current,
    split_step_evolve,
    stationary_states,
)


def periodized_log_derivatives(x, s, length, n_images=3):
    """Log-derivatives of the periodized Gaussian, analytic image sums."""
    sig = np.zeros_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    for n in range(-n_images, n_images + 1):
        u = x - n * length
        e = np.exp(-(u**2) / (2 * s * s))
        sig += e
        d1 += -(u / s**2) * e
        d2 += (u**2 / s**4 - 1 / s**2) * e
    g1 = d1 / sig
    g2 = d2 / sig - g1**2
    return sig, g1, g2


class TestDecompose:
    def test_plane_wave(self, grid512):
        mode = 5
        psi = plane_wave(grid512, mode)
        state = decompose(psi)
        k = 2 * np.pi * mode / grid512.extent[0]
        assert np.ptp(state.rho.values) <= 1e-15
        assert np.abs(state.v.components[0] - k).max() <= 1e-10

    def test_real_gaussian_has_zero_phase(self, grid512):
        psi = gaussian_packet(grid512, 1.0)
        state = decompose(psi)
        assert np.abs(state.S.values).max() == 0.0
        assert np.abs(state.v.components[0]).max() == 0.0

    def test_coherent_state_velocity(self, grid512):
        # the flow of a displaced ground state is the classical momentum,
        # uniform across the packet
        t = 0.7
        psi = coherent_state(grid512, 1.0, 2.0, t)
        state = decompose(psi)
        pc = -2.0 * np.sin(t)
        region = state.rho.values > 1e-6 * state.rho.values.max()
        err = np.sqrt(np.mean((state.v.components[0][region] - pc) ** 2))
        assert err <= 1e-6

    def test_velocity_is_current_over_floored_density(self, grid512):
        assert madelung.DENSITY_FLOOR_FRACTION is grids.DENSITY_FLOOR_FRACTION
        # the first excited state's node puts points under the floor
        pairs = stationary_states(Potential.harmonic(grid512, 1.0), 2)
        for psi in (coherent_state(grid512, 1.0, 2.0, 0.4), pairs[1][1]):
            rho = np.abs(psi.values) ** 2
            floored = np.hypot(rho, grids.DENSITY_FLOOR_FRACTION * rho.max())
            j = probability_current(psi, 1.3, 0.7).components[0]
            assert np.array_equal(velocity_from_wave(psi, 1.3, 0.7).components[0],
                                  j / floored)

    def test_round_trip_up_to_global_phase(self, grid512):
        psi = coherent_state(grid512, 1.0, 2.0, 0.4)
        back = recompose(decompose(psi))
        assert phase_aligned_l2(back.values, psi.values, grid512) <= 1e-8

    def test_node_mask_flags_deep_tail(self, grid512):
        state = decompose(harmonic_ground_state(grid512, 1.0))
        assert state.node_mask is not None
        assert state.node_mask.any()
        assert not state.node_mask[grid512.points[0] // 2]

    def test_2d_decompose_recompose(self):
        # periodic-phase state with a fully periodized amplitude, so the
        # density stays above the floor everywhere and the line-integrated
        # phase is exact
        from qfluid.oracle import periodic_gaussian_density

        grid = GridSpec.centered((8.0, 8.0), (64, 64))
        line = grid.axis_line(0)
        amp1d = np.sqrt(periodic_gaussian_density(line, 1.2).values)
        xx, _ = grid.meshgrid()
        psi = WaveField(
            grid,
            np.outer(amp1d, amp1d) * np.exp(0.35j * np.sin(2 * np.pi * xx / 8)),
        ).normalized()
        state = decompose(psi)
        back = recompose(state)
        assert phase_aligned_l2(back.values, psi.values, grid) <= 1e-8

    @pytest.mark.parametrize("phase", [
        lambda x, y: 0.7 * x - 1.3 * y,             # mean flow
        lambda x, y: 0.3 * (x**2 + y**2 / 2),        # chirp
    ], ids=["mean-flow", "chirp"])
    def test_2d_decompose_unwraps_vortex_free_phase(self, phase):
        # neither phase is periodic, so S must carry the mean flow and the chirp
        grid = GridSpec.centered((20.0, 20.0), (128, 128))
        xx, yy = grid.meshgrid()
        psi = WaveField(grid, np.exp(-(xx**2 + yy**2) / 4 + 1j * phase(xx, yy))).normalized()
        state = decompose(psi)
        region = state.rho.values > 1e-6 * state.rho.values.max()
        for axis in (0, 1):
            from_s = fd_derivative(state.S.values, grid, axis)
            assert np.abs(from_s - state.v.components[axis])[region].max() <= 1e-8
        assert phase_aligned_l2(recompose(state).values, psi.values, grid) <= 1e-12


class TestQuantumPotential:
    def test_uniform_density(self, grid512):
        q = quantum_potential(ScalarField.full(grid512, 1.0 / 24.0))
        assert np.abs(q.values).max() <= 1e-12

    def test_gaussian_interior_formula(self):
        grid = GridSpec.centered(16.0, 512)
        x = grid.axis(0)
        s = 1.0
        rho = ScalarField(grid, np.exp(-(x**2) / (2 * s * s)))
        q = quantum_potential(rho)
        exact = -0.5 * (x**2 / (4 * s**4) - 1 / (2 * s**2))
        inner = np.abs(x) <= 4.0
        assert np.abs(q.values - exact)[inner].max() <= 1e-7
        assert q.values[np.argmax(rho.values)] == pytest.approx(1 / (4 * s**2), abs=1e-8)

    def test_eigenstate_balance(self, grid512, harmonic512, ground512):
        # Q + U is flat at the ground energy over the whole retained region
        state = decompose(ground512)
        q = quantum_potential(state.rho)
        total = q.values + harmonic512.values
        region = state.rho.values > 1e-12 * state.rho.values.max()
        assert np.var(total[region]) <= 1e-8
        assert np.mean(total[region]) == pytest.approx(0.5, abs=1e-4)

    def test_hbar_scaling(self, grid512, ground512):
        rho = ground512.density()
        q1 = quantum_potential(rho, hbar=1.0)
        q2 = quantum_potential(rho, hbar=2.0)
        assert np.allclose(q2.values, 4.0 * q1.values, rtol=0, atol=1e-12)

    def test_mass_scaling(self, grid512, ground512):
        rho = ground512.density()
        q1 = quantum_potential(rho, m=1.0)
        q2 = quantum_potential(rho, m=2.0)
        assert np.allclose(q2.values, 0.5 * q1.values, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(1e-6, 1e6, allow_nan=False))
def test_quantum_potential_density_scale_invariance(scale):
    # well-conditioned field: the identity is exact, so the comparison
    # measures input rounding of scale*rho amplified by the Laplacian's
    # k^2; a wide smooth density keeps that amplification under 1e-12
    from qfluid.oracle import periodic_gaussian_density

    grid = GridSpec.centered(12.0, 64)
    rho = periodic_gaussian_density(grid, 2.0)
    q1 = quantum_potential(rho)
    q2 = quantum_potential(ScalarField(grid, scale * rho.values))
    assert np.abs(q1.values - q2.values).max() <= 1e-12 * np.abs(q1.values).max()


class TestResiduals:
    def test_stationary_eigenstate(self, grid512, harmonic512, ground512):
        mid = split_step_evolve(PropagatorState(ground512, 0.0, 1e-3), harmonic512, 1)
        nxt = split_step_evolve(mid, harmonic512, 1)
        res = residuals_from_snapshots(ground512, mid.psi, nxt.psi, harmonic512, 1e-3)
        assert res.continuity <= 1e-6
        assert res.momentum <= 1e-6

    def test_free_spreading_gaussian_and_refinement(self):
        errs = []
        for npts, dt in ((256, 1e-3), (512, 5e-4)):
            grid = GridSpec.centered(24.0, npts)
            potential = Potential.free(grid)
            psi = gaussian_packet(grid, 1.0, momentum=2.0)
            mid = split_step_evolve(PropagatorState(psi, 0.0, dt), potential, 1)
            nxt = split_step_evolve(mid, potential, 1)
            res = residuals_from_snapshots(psi, mid.psi, nxt.psi, potential, dt)
            assert res.continuity <= 1e-3
            assert res.momentum <= 1e-3
            errs.append(max(res.continuity, res.momentum))
        assert errs[1] <= 0.5 * errs[0], f"no halving: {errs}"

    def test_coherent_state_over_period(self, grid512, harmonic512):
        state = PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, 1e-3)
        worst = 0.0
        for _ in range(4):
            prev = state
            mid = split_step_evolve(prev, harmonic512, 1)
            nxt = split_step_evolve(mid, harmonic512, 1)
            res = residuals_from_snapshots(
                prev.psi, mid.psi, nxt.psi, harmonic512, 1e-3
            )
            worst = max(worst, res.continuity, res.momentum)
            state = split_step_evolve(nxt, harmonic512, round(np.pi / 2 / 1e-3))
        assert worst <= 1e-3


class TestMadelungStep:
    def test_cfl_guard(self, grid256):
        psi = gaussian_packet(grid256, 1.0)
        state = decompose(psi)
        with pytest.raises(StabilityError):
            madelung_step(state, Potential.free(grid256), 10 * cfl_limit(grid256))

    def test_ground_state_fixed_point(self, grid512, harmonic512, ground512):
        state = decompose(ground512)
        dt = 1e-3  # a fifth of the stability limit
        renorm = 0.0
        for _ in range(round(2 * np.pi / dt)):
            state = madelung_step(state, harmonic512, dt)
            renorm = max(renorm, state.last_renorm)
        drift = field_l2(state.rho.values - ground512.density().values, grid512)
        assert drift <= 1e-6
        assert renorm <= 1e-8

    def test_free_gaussian_tracks_oracle(self, grid256):
        potential = Potential.free(grid256)
        psi0 = gaussian_packet(grid256, 1.0)
        dt = 1e-4
        steps = round(0.5 / dt)
        state = decompose(psi0)
        for _ in range(steps):
            state = madelung_step(state, potential, dt)
        oracle = split_step_evolve(PropagatorState(psi0, 0.0, dt), potential, steps)
        err = field_l2(state.rho.values - oracle.psi.density().values, grid256)
        assert err <= 1e-3
        # recompose the evolved hydro state and compare wave functions
        back = recompose(state)
        assert phase_aligned_l2(back.values, oracle.psi.values, grid256) <= 5e-3


class TestGaugeFreedom:
    def test_constant_phase_shift(self, grid512):
        psi = gaussian_packet(grid512, 1.0, momentum=1.0)
        base = decompose(psi)
        shifted = MadelungState(
            rho=base.rho,
            S=ScalarField(grid512, base.S.values + 3.7),
            v=base.v,
            hbar=base.hbar,
            m=base.m,
        )
        # observables identical bit for bit
        assert np.array_equal(base.rho.values, shifted.rho.values)
        assert np.array_equal(base.v.components[0], shifted.v.components[0])
        q1 = quantum_potential(base.rho)
        q2 = quantum_potential(shifted.rho)
        assert np.array_equal(q1.values, q2.values)
        # recompose differs only by the global phase exp(i c / hbar)
        w1 = recompose(base)
        w2 = recompose(shifted)
        assert np.abs(w2.values - np.exp(3.7j) * w1.values).max() <= 1e-12

    def test_derived_v_from_rho_S(self, grid512):
        rho = gaussian_packet(grid512, 1.0).density()
        x = grid512.axis(0)
        s_vals = 0.3 * np.sin(2 * np.pi * x / 24.0)
        state = MadelungState.from_rho_S(rho, ScalarField(grid512, s_vals))
        exact = 0.3 * (2 * np.pi / 24.0) * np.cos(2 * np.pi * x / 24.0)
        assert np.abs(state.v.components[0] - exact).max() <= 1e-8


def test_potential_flow_consistency(grid512):
    """v from the wave field equals grad(S)/m on a periodic-phase state.

    The ratio Im(grad psi / psi) amplifies the spectral noise floor by
    1/|psi|, so the 1e-10 agreement is asserted where the density is above
    1e-7 of its peak; beyond that the error grows like noise over density.
    """
    from qfluid.grids import WaveField

    x = grid512.axis(0)
    psi = WaveField(
        grid512,
        np.exp(-(x**2) / 4) * np.exp(0.5j * np.sin(2 * np.pi * x / 24.0)),
    ).normalized()
    state = decompose(psi)
    exact = 0.5 * (2 * np.pi / 24.0) * np.cos(2 * np.pi * x / 24.0)
    region = state.rho.values > 1e-7 * state.rho.values.max()
    assert np.abs(state.v.components[0] - exact)[region].max() <= 1e-10
