"""Conditional slices of two-particle states and per-particle guidance."""

import tracemalloc

import numpy as np
import pytest

from qfluid.errors import ConditionalUndefinedError, ConfigError
from qfluid.grids import GridSpec, ScalarField, WaveField, _interp_values, complex_gradient
from qfluid.oracle import Potential, gaussian_packet, stationary_states
from qfluid.ensemble import (
    NodeEvents,
    OracleTimeline,
    TrajectoryEnsemble,
    WaveTimeline,
    equivariance_distance,
    propagate_ensemble,
    sample_equilibrium,
)
from qfluid import conditional
from qfluid.conditional import (
    ConfigWaveField,
    ParticlePair,
    conditional_guiding_velocity,
    conditional_guiding_velocities,
    conditional_wavefunction,
    configuration_velocity,
)
from qfluid.measurement import joint_grid


@pytest.fixture(scope="module")
def line():
    return GridSpec.centered(16.0, 128)


@pytest.fixture(scope="module")
def packets(line):
    a = gaussian_packet(line, 0.7, center=-2.5, momentum=0.8)
    b = gaussian_packet(line, 0.7, center=2.5, momentum=-0.4)
    return a, b


@pytest.fixture(scope="module")
def entangled(line, packets):
    a, b = packets
    grid2 = joint_grid(line, line)
    vals = (np.outer(a.values, b.values) + np.outer(b.values, a.values)) / np.sqrt(2)
    return ConfigWaveField(WaveField(grid2, vals).normalized())


@pytest.fixture(scope="module")
def product(line, packets):
    a, b = packets
    grid2 = joint_grid(line, line)
    return ConfigWaveField(WaveField(grid2, np.outer(a.values, b.values)).normalized())


class TestConditionalSlice:
    def test_product_state_conditional_is_own_factor(self, product, packets):
        a, _ = packets
        reference = None
        for x2 in np.linspace(-3.0, 3.0, 9):
            cond = conditional_wavefunction(product, 0, float(x2))
            normalized = cond.normalized().values
            if reference is None:
                reference = normalized
            phase = np.vdot(normalized, reference)
            phase /= abs(phase)
            assert np.abs(normalized * phase - reference).max() <= 1e-8
        overlap = abs(np.vdot(reference, a.values)) * product.grid.spacing[0]
        assert overlap >= 1 - 1e-8

    def test_entangled_slice_picks_the_co_located_branch(self, entangled, packets, line):
        a, b = packets
        x2_star = line.axis(0)[np.argmax(np.abs(b.values) ** 2)]
        cond = conditional_wavefunction(entangled, 0, float(x2_star))
        overlap = abs(np.vdot(cond.normalized().values, a.values)) * line.spacing[0]
        assert overlap >= 0.99

    def test_exchange_symmetric_state_mirrors(self, entangled):
        c0 = conditional_wavefunction(entangled, 0, 1.3)
        c1 = conditional_wavefunction(entangled, 1, 1.3)
        assert np.abs(c0.psi.values - c1.psi.values).max() <= 1e-14
        assert c0.norm == pytest.approx(c1.norm, rel=1e-12)

    def test_norm_reported_unnormalized(self, entangled):
        cond = conditional_wavefunction(entangled, 0, 0.0)
        assert cond.psi.norm() == pytest.approx(cond.norm, rel=1e-12)
        assert cond.norm < 1.0

    def test_negligible_slice_rejected(self, line):
        a = gaussian_packet(line, 0.4, center=-3.0)
        b = gaussian_packet(line, 0.4, center=3.0)
        grid2 = joint_grid(line, line)
        state = ConfigWaveField(
            WaveField(grid2, np.outer(a.values, b.values)).normalized()
        )
        with pytest.raises(ConditionalUndefinedError):
            conditional_wavefunction(state, 0, -7.9)

    def test_bad_particle_index(self, entangled):
        with pytest.raises(ConfigError):
            conditional_wavefunction(entangled, 2, 0.0)


def inline_guiding_velocity(state, pair, particle, events=None):
    """Conditional guidance as an inline formula on the slice, the form it
    had before going through VelocityField: the same node floor (1e-12 of
    the slice's largest |phi|^2), Nyquist cap and event counts."""
    own = pair.x1 if particle == 0 else pair.x2
    other = pair.x2 if particle == 0 else pair.x1
    phi = conditional_wavefunction(state, particle, other).psi
    dphi = complex_gradient(phi)[0]
    phi_here = _interp_values(phi.values, phi.grid, np.array([own]))[0]
    dphi_here = _interp_values(dphi, phi.grid, np.array([own]))[0]
    m_i = state.masses[particle]
    floor = 1e-12 * np.max(np.abs(phi.values) ** 2)
    if abs(phi_here) ** 2 < floor:
        if events is not None:
            events.capped += 1
            events.evaluations += 1
        v_max = state.hbar * np.pi / (m_i * phi.grid.spacing[0])
        raw = (state.hbar / m_i) * np.imag(dphi_here * np.conj(phi_here)) / floor
        return float(np.clip(raw, -v_max, v_max))
    if events is not None:
        events.evaluations += 1
    return float((state.hbar / m_i) * np.imag(dphi_here / phi_here))


class TestGuidanceIdentity:
    def test_matches_the_inline_formula(self, entangled):
        ens = sample_equilibrium(entangled.psi.density(), 1000, seed=9)
        events, expected_events = NodeEvents(), NodeEvents()
        for x1, x2 in ens.positions:
            pair = ParticlePair(float(x1), float(x2))
            for particle in (0, 1):
                v = conditional_guiding_velocity(entangled, pair, particle, events)
                ref = inline_guiding_velocity(entangled, pair, particle,
                                              expected_events)
                assert abs(v - ref) <= 1e-13
        assert events == expected_events == NodeEvents(evaluations=2000, capped=0)

    def test_node_capped_like_the_inline_formula(self, line):
        # particle 0 sits 1e-7 of a cell past an exact node of its slice
        x = line.axis(0)
        node = x[60]
        a = (x - node) * np.exp(-(x**2) / 2 + 1.5j * x)
        b = gaussian_packet(line, 0.8, center=1.0).values
        state = ConfigWaveField(
            WaveField(joint_grid(line, line), np.outer(a, b)).normalized()
        )
        pair = ParticlePair(float(node + 1e-7 * line.spacing[0]), 1.0)
        events = NodeEvents()
        v = conditional_guiding_velocity(state, pair, 0, events)
        assert v == inline_guiding_velocity(state, pair, 0)
        assert events == NodeEvents(evaluations=1, capped=1)
        assert abs(v) == np.pi / line.spacing[0]  # clipped at the Nyquist velocity

    def test_slice_equals_configuration_gradient(self, entangled):
        ens = sample_equilibrium(entangled.psi.density(), 1000, seed=9)
        full = configuration_velocity(entangled).at(ens.positions)
        worst = 0.0
        for (x1, x2), v in zip(ens.positions, full):
            pair = ParticlePair(float(x1), float(x2))
            worst = max(
                worst,
                abs(conditional_guiding_velocity(entangled, pair, 0) - v[0]),
                abs(conditional_guiding_velocity(entangled, pair, 1) - v[1]),
            )
        assert worst <= 1e-6

    def test_product_of_plane_waves(self, line):
        grid2 = joint_grid(line, line)
        x = line.axis(0)
        k1 = 2 * np.pi * 3 / 16.0
        k2 = 2 * np.pi * 5 / 16.0
        psi = WaveField(
            grid2, np.outer(np.exp(1j * k1 * x), np.exp(1j * k2 * x))
        ).normalized()
        state = ConfigWaveField(psi)
        pair = ParticlePair(0.37, -1.21)
        assert conditional_guiding_velocity(state, pair, 0) == pytest.approx(k1, abs=1e-10)
        assert conditional_guiding_velocity(state, pair, 1) == pytest.approx(k2, abs=1e-10)

    def test_two_real_gaussians_are_static(self, line):
        grid2 = joint_grid(line, line)
        a = gaussian_packet(line, 0.8, center=-1.0)
        b = gaussian_packet(line, 0.8, center=1.0)
        state = ConfigWaveField(
            WaveField(grid2, np.outer(a.values, b.values)).normalized()
        )
        pair = ParticlePair(-1.0, 1.0)
        assert conditional_guiding_velocity(state, pair, 0) == 0.0
        assert conditional_guiding_velocity(state, pair, 1) == 0.0


def nodal_state(line):
    """Particle 0's slices all have an exact node at x node 60."""
    x = line.axis(0)
    a = (x - x[60]) * np.exp(-(x**2) / 2 + 1.5j * x)
    b = gaussian_packet(line, 0.8, center=1.0).values
    return ConfigWaveField(
        WaveField(joint_grid(line, line), np.outer(a, b)).normalized(), m1=0.7, m2=1.3
    )


class TestBatchedGuidance:
    @pytest.mark.parametrize("particle", [0, 1])
    def test_matches_per_pair_guidance_and_configuration_velocity(self, entangled,
                                                                  particle):
        positions = sample_equilibrium(entangled.psi.density(), 500, seed=4).positions
        events, pair_events = NodeEvents(), NodeEvents()
        batched = conditional_guiding_velocities(entangled, positions, particle, events)
        per_pair = np.array([
            conditional_guiding_velocity(entangled, ParticlePair(*xy), particle,
                                         pair_events)
            for xy in positions
        ])
        full = configuration_velocity(entangled).at(positions)[:, particle]
        assert batched.shape == (500,)
        assert np.abs(batched - per_pair).max() <= 1e-13
        assert np.abs(batched - full).max() <= 1e-13
        assert events == pair_events == NodeEvents(evaluations=500, capped=0)

    def test_capped_rows_match_per_pair_guidance(self, line):
        state = nodal_state(line)
        node = line.axis(0)[60]
        h = line.spacing[0]
        positions = np.array([[node + 1e-7 * h, 1.0], [node, -0.4], [-1.3, 0.9],
                              [node + 0.5 * h, 2.0], [node - 1e-12, 1.0]])
        # particle 1's slice at x1 on the node is zero, so it takes rows 2, 3
        for particle, rows in ((0, slice(None)), (1, slice(2, 4))):
            events, pair_events = NodeEvents(), NodeEvents()
            batched = conditional_guiding_velocities(state, positions[rows], particle,
                                                     events)
            per_pair = [conditional_guiding_velocity(state, ParticlePair(*xy), particle,
                                                     pair_events)
                        for xy in positions[rows]]
            assert np.abs(batched - per_pair).max() <= 1e-13
            assert events == pair_events
            if particle == 0:
                # three points sit on or next to the node of their slices
                assert events == NodeEvents(evaluations=5, capped=3)
                assert np.abs(batched).max() <= np.pi / (0.7 * h)

    def test_one_negligible_slice_raises_and_names_its_position(self, line):
        a = gaussian_packet(line, 0.4, center=-3.0)
        b = gaussian_packet(line, 0.4, center=3.0)
        state = ConfigWaveField(
            WaveField(joint_grid(line, line), np.outer(a.values, b.values)).normalized()
        )
        positions = np.array([[-3.0, 3.0], [-2.9, 3.1], [-3.1, -7.9], [-3.0, 2.9]])
        with pytest.raises(ConditionalUndefinedError, match="-7.9"):
            conditional_guiding_velocities(state, positions, 0)
        assert conditional_guiding_velocities(state, positions[[0, 1, 3]], 0).shape == (3,)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 500])
    def test_blocks_equal_one_block_of_every_pair(self, line, monkeypatch, n):
        # 64 slices of 128 points per block; particle 0's slices all carry the
        # node, and every seventh row sits on or next to it
        state = nodal_state(line)
        positions = sample_equilibrium(state.psi.density(), n, seed=5).positions
        node, h = line.axis(0)[60], line.spacing[0]
        near = positions.copy()
        near[::7, 0] = node + np.resize([0.0, 1e-7 * h, 0.5 * h, -1e-12], len(near[::7]))
        for particle, rows in ((0, near), (1, positions)):
            blocked_events, whole_events = NodeEvents(), NodeEvents()
            blocked = conditional_guiding_velocities(state, rows, particle, blocked_events)
            with monkeypatch.context() as patch:
                patch.setattr(conditional, "_BLOCK", 128 * max(n, 1))
                whole = conditional_guiding_velocities(state, rows, particle, whole_events)
            assert np.array_equal(blocked, whole)
            assert blocked_events == whole_events
            assert blocked_events.evaluations == n
            # row 0 of particle 0 sits on the node, so it is capped
            assert (blocked_events.capped > 0) == (particle == 0 and n > 0)

    def test_working_set_does_not_grow_with_the_batch(self, entangled):
        # one block at a time: 20 000 pairs held all at once would need about
        # 120 MB of slices, derivatives and their temporaries
        positions = sample_equilibrium(entangled.psi.density(), 20_000, seed=6).positions
        conditional_guiding_velocities(entangled, positions[:10], 0)
        tracemalloc.start()
        try:
            for particle in (0, 1):
                conditional_guiding_velocities(entangled, positions, particle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_empty_batch(self, entangled):
        events = NodeEvents()
        assert conditional_guiding_velocities(entangled, np.zeros((0, 2)), 1,
                                              events).shape == (0,)
        assert events == NodeEvents()


class TestPairTransport:
    def test_product_pair_matches_independent_singles(self, line, packets, product):
        a, b = packets
        omega = 1.0
        u1 = Potential.harmonic(line, omega)
        grid2 = product.grid
        joint_pot = Potential(ScalarField(grid2, u1.values[:, None] + u1.values[None, :]))
        steps = 400
        dt = 2 * np.pi / steps
        timeline2 = OracleTimeline(product.psi, joint_pot, dt)
        pair = propagate_ensemble(
            TrajectoryEnsemble(grid=grid2, positions=np.array([[-2.2, 2.8]])),
            timeline2, steps,
        ).ensemble

        singles = []
        for psi0, x0 in ((a, -2.2), (b, 2.8)):
            tl = OracleTimeline(psi0, u1, dt)
            ens = TrajectoryEnsemble(grid=line, positions=np.array([x0]))
            singles.append(
                propagate_ensemble(ens, tl, steps,
                                   record_history=False).ensemble.positions[0]
            )
        assert abs(pair.positions[0, 0] - singles[0]) <= 1e-6
        assert abs(pair.positions[0, 1] - singles[1]) <= 1e-6
        assert pair.history.shape == (steps + 1, 1, 2)

    def test_stationary_two_particle_eigenstate_static(self, line):
        u1 = Potential.harmonic(line, 1.0)
        pairs1 = stationary_states(u1, 1)
        grid2 = joint_grid(line, line)
        psi = WaveField(
            grid2, np.outer(pairs1[0][1].values, pairs1[0][1].values)
        ).normalized()
        # frozen timeline: a real eigenstate product generates no flow
        tl = WaveTimeline(0.005, [psi] * 41)
        ens = TrajectoryEnsemble(grid=grid2, positions=np.array([[-0.8, 0.5]]))
        moved = propagate_ensemble(ens, tl, 20).ensemble.positions[0]
        assert moved[0] == pytest.approx(-0.8, abs=1e-12)
        assert moved[1] == pytest.approx(0.5, abs=1e-12)

    def test_joint_density_tracks_wave_density(self, line):
        # 2D equivariance of a pair ensemble over one trap period
        omega = 2.0
        u1 = Potential.harmonic(line, omega)
        pairs1 = stationary_states(u1, 2)
        mix = (pairs1[0][1].values + pairs1[1][1].values) / np.sqrt(2)
        grid2 = joint_grid(line, line)
        psi0 = WaveField(grid2, np.outer(mix, mix)).normalized()
        joint_pot = Potential(ScalarField(grid2, u1.values[:, None] + u1.values[None, :]))
        period = 2 * np.pi / omega
        steps = 400
        dt = period / steps
        ens = sample_equilibrium(psi0.density(), 10000, seed=77)
        timeline = OracleTimeline(psi0, joint_pot, dt)
        res = propagate_ensemble(ens, timeline, steps, record_history=False)
        l1 = equivariance_distance(res.ensemble, timeline.at(period), 32)
        assert l1 <= 0.05
        assert not res.degraded
