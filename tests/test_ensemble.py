"""Guided-ensemble transport, equilibrium sampling and relaxation metrics."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfluid.errors import ConfigError, NonFiniteFieldError
from qfluid.grids import (
    GridSpec,
    ScalarField,
    VectorField,
    WaveField,
    complex_gradient,
    divergence,
    sample_at,
)
from qfluid.madelung import velocity_from_wave
from qfluid.oracle import (
    Potential,
    coherent_state,
    gaussian_packet,
    plane_wave,
    probability_current,
    stationary_states,
)
from qfluid import ensemble as ensemble_module
from qfluid.ensemble import (
    NodeEvents,
    OracleTimeline,
    TrajectoryEnsemble,
    VelocityField,
    WaveTimeline,
    bootstrap_coarse_H,
    coarse_grained_H,
    equivariance_distance,
    ks_statistic,
    propagate_ensemble,
    sample_equilibrium,
)


def static_timeline(psi, dt, steps):
    """Timeline of a frozen wave field (exact stationary dynamics)."""
    return WaveTimeline(dt / 2, [psi] * (2 * steps + 1))


class TestGuidingVelocity:
    def test_real_gaussian_is_zero(self, grid512):
        psi = gaussian_packet(grid512, 1.0)
        v = VelocityField(psi).at(np.array([-3.0, 0.1, 2.7]))
        assert np.abs(v).max() == 0.0

    def test_plane_wave_uniform_drift(self, grid512):
        mode = 3
        psi = plane_wave(grid512, mode)
        k = 2 * np.pi * mode / grid512.extent[0]
        v = VelocityField(psi).at(np.array([-5.0, 0.0, 4.4, 11.9]))
        assert np.abs(v - k).max() <= 1e-12

    def test_coherent_state_velocity(self, grid512):
        # at the classical turning point the packet is momentarily at rest
        psi = coherent_state(grid512, 1.0, 2.0, t=0.0)
        v = VelocityField(psi).at(np.array([2.0, 1.5, 2.5]))
        assert np.abs(v).max() <= 1e-4
        t = 0.9
        psi_t = coherent_state(grid512, 1.0, 2.0, t=t)
        pc = -2.0 * np.sin(t)
        v_t = VelocityField(psi_t).at(np.array([2.0 * np.cos(t)]))
        assert abs(v_t[0] - pc) <= 5e-3  # interpolation-order agreement

    def test_matches_decomposed_velocity_field(self, grid512):
        psi = coherent_state(grid512, 1.0, 2.0, t=0.4)
        field = velocity_from_wave(psi)
        pts = np.linspace(-3.0, 3.0, 11)
        direct = VelocityField(psi).at(pts)
        sampled = sample_at(field, pts)[..., 0]
        # interpolation-order agreement between the two evaluation routes
        assert np.abs(direct - sampled).max() <= 5e-3

    def test_node_capping_and_events(self, grid512):
        # first excited state has a node at the origin
        pairs = stationary_states(Potential.harmonic(grid512, 1.0), 2)
        psi = pairs[1][1]
        events = NodeEvents()
        v = VelocityField(psi).at(np.array([0.0]), events)
        v_max = np.pi / grid512.spacing[0]
        assert abs(v[0]) <= v_max + 1e-12
        assert events.capped >= 1


class TestPropagation:
    def test_stationary_state_positions_static(self, grid512, ground512):
        tl = static_timeline(ground512, 0.01, 40)
        ens = sample_equilibrium(ground512.density(), 50, seed=3)
        res = propagate_ensemble(ens, tl, 40)
        assert np.abs(res.ensemble.positions - ens.positions).max() <= 1e-10
        assert not res.degraded

    def test_plane_wave_uniform_translation(self, grid512):
        mode = 2
        psi = plane_wave(grid512, mode)
        k = 2 * np.pi * mode / grid512.extent[0]
        steps, dt = 100, 0.01
        tl = static_timeline(psi, dt, steps)
        # a frozen plane wave is its own evolution up to a global phase,
        # so the drift velocity is exact
        x0 = np.array([-5.0, 0.0, 3.3])
        ens = TrajectoryEnsemble(grid=grid512, positions=x0)
        res = propagate_ensemble(ens, tl, steps)
        expected = grid512.wrap(x0 + k * steps * dt, 0)
        assert np.abs(res.ensemble.positions - expected).max() <= 1e-9

    def test_history_shape_and_determinism(self, grid512, harmonic512):
        pairs = stationary_states(harmonic512, 2)
        psi0 = WaveField(
            grid512, (pairs[0][1].values + pairs[1][1].values) / np.sqrt(2)
        ).normalized()
        tl = WaveTimeline.from_oracle(psi0, harmonic512, 0.02, 50)
        ens = sample_equilibrium(psi0.density(), 200, seed=11)
        r1 = propagate_ensemble(ens, tl, 50)
        r2 = propagate_ensemble(ens, tl, 50)
        assert r1.ensemble.history.shape == (51, 200)
        assert np.array_equal(r1.ensemble.history, r2.ensemble.history)

    def test_no_crossing_in_1d(self, grid512, harmonic512):
        # fine steps: the velocity grows like 1/distance ahead of the moving
        # node, so order preservation is a limit statement
        pairs = stationary_states(harmonic512, 2)
        psi0 = WaveField(
            grid512, (pairs[0][1].values + pairs[1][1].values) / np.sqrt(2)
        ).normalized()
        steps = 16000
        dt = 2 * np.pi / steps
        tl = OracleTimeline(psi0, harmonic512, dt)
        rho = psi0.density()
        h = grid512.spacing[0]
        cdf = np.concatenate([[0.0], np.cumsum(rho.values) * h])
        cdf /= cdf[-1]
        edges = grid512.origin[0] + h * (np.arange(grid512.points[0] + 1) - 0.5)
        x0 = np.interp((np.arange(64) + 0.5) / 64, cdf, edges)
        ens = TrajectoryEnsemble(grid=grid512, positions=x0)
        res = propagate_ensemble(ens, tl, steps)
        for row in res.ensemble.history[:: steps // 100]:
            assert (np.diff(row) > 0).all(), "trajectory ordering broke"

    def test_run_degraded_when_many_trajectories_cap(self, grid512, harmonic512):
        # all trajectories parked on the node of the first excited state
        pairs = stationary_states(harmonic512, 2)
        psi = pairs[1][1]
        tl = static_timeline(psi, 0.001, 3)
        ens = TrajectoryEnsemble(grid=grid512, positions=np.zeros(10))
        res = propagate_ensemble(ens, tl, 3)
        assert res.events.capped > 0
        assert res.degraded

    @staticmethod
    def _midpoint_on_node(grid512, harmonic512):
        """A drifting field, a step dt and a start x0 clear of the density
        floor whose first midpoint stage lands on the node of the first
        excited state (x = 0, a grid node); a uniform phase twist gives the
        state its drift."""
        psi1 = stationary_states(harmonic512, 2)[1][1]
        k = 2 * np.pi * 4 / grid512.extent[0]
        psi = WaveField(grid512, psi1.values * np.exp(1j * k * grid512.axis(0)))
        dt = 0.5
        field = VelocityField(psi)

        def stage(x0):
            return x0 + 0.5 * dt * field.at(np.array([x0]))[0]

        lo, hi = -0.5, -0.05  # bisect for stage(x0) = 0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if stage(mid) < 0 else (lo, mid)
        assert abs(stage(hi)) <= 1e-15
        clear = NodeEvents()
        field.at(np.array([hi]), clear)
        assert clear.capped == 0
        return psi, dt, hi

    def test_stage_caps_mark_the_trajectory(self, grid512, harmonic512):
        psi, dt, x0 = self._midpoint_on_node(grid512, harmonic512)
        ens = TrajectoryEnsemble(grid=grid512, positions=np.array([x0]))
        res = propagate_ensemble(ens, static_timeline(psi, dt, 1), 1)
        assert res.events.capped >= 1
        assert res.capped_trajectories == 1
        assert res.degraded

    def test_mid_step_stage_cap_alone_marks_its_trajectory(self, grid512, harmonic512):
        # between clear neighbours, only the first midpoint stage of the
        # middle trajectory is capped: the other stages of the batch flag
        # nothing, and the one capped stage still marks that trajectory
        psi, dt, x0 = self._midpoint_on_node(grid512, harmonic512)
        x = np.array([-2.0, x0, 1.5])
        events = ensemble_module._TrajectoryEvents(ever_capped=np.zeros(3, dtype=bool))
        ensemble_module._rk4(x, [slice(0, 3)], static_timeline(psi, dt, 1), 1, 0.0,
                             events)
        assert events.ever_capped.tolist() == [False, True, False]
        assert (events.evaluations, events.capped) == (12, 1)

    def test_misaligned_t_start_rejected(self, grid512, ground512):
        tl = static_timeline(ground512, 0.01, 10)
        ens = sample_equilibrium(ground512.density(), 10, seed=0)
        with pytest.raises(ConfigError, match="half-step lattice"):
            propagate_ensemble(ens, tl, 5, t_start=0.0125)
        # the step comes from the timeline: a call that still passes dt
        # before the step count reads dt as the count
        with pytest.raises(ConfigError, match="steps must be an integer"):
            propagate_ensemble(ens, tl, 0.01, 5)

    def test_streaming_timeline_matches_stored(self, grid512, harmonic512):
        psi0 = coherent_state(grid512, 1.0, 1.0)
        dt, steps = 0.02, 25
        stored = WaveTimeline.from_oracle(psi0, harmonic512, dt, steps)
        streaming = OracleTimeline(psi0, harmonic512, dt)
        ens = sample_equilibrium(psi0.density(), 100, seed=5)
        r1 = propagate_ensemble(ens, stored, steps)
        r2 = propagate_ensemble(ens, streaming, steps)
        assert np.array_equal(r1.ensemble.positions, r2.ensemble.positions)

    def test_checkpoint_calls_build_each_stored_field_once(self, monkeypatch, grid512,
                                                           harmonic512):
        built = []
        init = VelocityField.__init__

        def counting_init(self, psi, *args, **kwargs):
            built.append(id(psi))
            init(self, psi, *args, **kwargs)

        monkeypatch.setattr(VelocityField, "__init__", counting_init)
        psi0 = coherent_state(grid512, 1.0, 1.0)
        dt, chunk = 0.02, 3
        tl = WaveTimeline.from_oracle(psi0, harmonic512, dt, 10 * chunk)
        ens = sample_equilibrium(psi0.density(), 200, seed=3)
        for c in range(10):
            ens = propagate_ensemble(ens, tl, chunk, record_history=False,
                                     t_start=c * chunk * dt).ensemble
        assert built == [id(f) for f in tl.fields]

    def test_history_neither_bool_nor_count_rejected(self, grid512, ground512):
        tl = static_timeline(ground512, 0.01, 2)
        ens = sample_equilibrium(ground512.density(), 10, seed=0)
        # a numpy bool is no int: read as a count it would keep one history
        for n in (-1, 11, 2.0, np.True_):
            with pytest.raises(ConfigError, match="record_history"):
                propagate_ensemble(ens, tl, 2, record_history=n)

    def test_bad_steps_rejected(self, grid512, ground512):
        tl = static_timeline(ground512, 0.01, 2)
        ens = sample_equilibrium(ground512.density(), 10, seed=0)
        # unchecked, -2 returns the positions untouched and 2.5 escapes from
        # range() as a TypeError
        for steps in (-2, 2.5, True):
            with pytest.raises(ConfigError, match="steps must be an integer >= 0"):
                propagate_ensemble(ens, tl, steps)

    def test_streaming_cannot_rewind(self, grid512, harmonic512):
        psi0 = coherent_state(grid512, 1.0, 1.0)
        tl = OracleTimeline(psi0, harmonic512, 0.02)
        tl.at(1.0)
        with pytest.raises(ConfigError):
            tl.at(0.0)


class TestSampling:
    def test_uniform_ks_across_seeds(self):
        grid = GridSpec.regular(16.0, 256)
        uniform = ScalarField.full(grid, 1.0 / 16.0)
        n = 2000
        threshold = 1.63 / np.sqrt(n)
        fails = sum(
            ks_statistic(sample_equilibrium(uniform, n, seed=1000 + s).positions,
                         uniform) > threshold
            for s in range(100)
        )
        assert fails <= 2, f"{fails} of 100 seeds exceeded the 99% KS bound"

    def test_delta_density_lands_in_hot_cell(self):
        grid = GridSpec.regular(16.0, 256)
        vals = np.zeros(256)
        vals[100] = 1.0
        ens = sample_equilibrium(ScalarField(grid, vals).normalized(), 500, seed=1)
        center = grid.axis(0)[100]
        half = grid.spacing[0] / 2
        assert (np.abs(ens.positions - center) <= half).all()

    def test_gaussian_sample_mean_clt_bound(self):
        grid = GridSpec.centered(24.0, 512)
        x = grid.axis(0)
        s = 1.0
        rho = ScalarField(grid, np.exp(-((x - 0.7) ** 2) / (2 * s * s))).normalized()
        n = 100000
        ens = sample_equilibrium(rho, n, seed=8)
        assert abs(ens.positions.mean() - 0.7) <= 4 * s / np.sqrt(n)

    def test_2d_multinomial_sampling(self):
        grid = GridSpec.centered((8.0, 8.0), (64, 64))
        xx, yy = grid.meshgrid()
        rho = ScalarField(grid, np.exp(-(xx**2 + yy**2) / 2)).normalized()
        ens = sample_equilibrium(rho, 20000, seed=4)
        assert ens.positions.shape == (20000, 2)
        assert np.abs(ens.positions.mean(axis=0)).max() <= 0.05

    def test_determinism(self):
        grid = GridSpec.regular(16.0, 256)
        rho = ScalarField.full(grid, 1.0 / 16.0)
        a = sample_equilibrium(rho, 1000, seed=77)
        b = sample_equilibrium(rho, 1000, seed=77)
        assert np.array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("points", [(256,), (32, 32)])
    def test_degenerate_density_rejected(self, points):
        # unchecked, 1D drew NaN positions and 2D raised a bare ValueError
        grid = GridSpec.regular((16.0,) * len(points), points)
        with pytest.raises(ConfigError, match="no positive value"):
            sample_equilibrium(ScalarField(grid, np.zeros(points)), 10, seed=0)
        with pytest.raises(NonFiniteFieldError):
            sample_equilibrium(ScalarField(grid, np.full(points, np.nan)), 10, seed=0)


class TestEquivariance:
    def test_sampling_noise_level(self, grid512, harmonic512):
        pairs = stationary_states(harmonic512, 2)
        psi = WaveField(
            grid512, (pairs[0][1].values + pairs[1][1].values) / np.sqrt(2)
        ).normalized()
        ens = sample_equilibrium(psi.density(), 100000, seed=21)
        assert equivariance_distance(ens, psi, 64) <= 0.02

    def test_quantile_placement_is_sharp(self, grid512, ground512):
        rho = ground512.density()
        h = grid512.spacing[0]
        cdf = np.concatenate([[0.0], np.cumsum(rho.values) * h])
        cdf /= cdf[-1]
        edges = grid512.origin[0] + h * (np.arange(grid512.points[0] + 1) - 0.5)
        n = 100000
        quantiles = (np.arange(n) + 0.5) / n
        positions = np.interp(quantiles, cdf, edges)
        ens = TrajectoryEnsemble(grid=grid512, positions=positions)
        assert equivariance_distance(ens, ground512, 64) <= 64 / n + 1e-3

    def test_wrong_ensemble_far_from_density(self):
        grid = GridSpec.centered(16.0, 512)
        x = grid.axis(0)
        s = 1.0
        psi = gaussian_packet(grid, s)
        rng = np.random.default_rng(0)
        uniform_positions = rng.uniform(-8.0, 8.0, 100000)
        ens = TrajectoryEnsemble(grid=grid, positions=uniform_positions)
        l1 = equivariance_distance(ens, psi, 64)
        # quadrature value of the L1 gap between the two explicit densities
        mid = grid.axis(0)
        gauss = np.exp(-(mid**2) / (2 * s * s)) / np.sqrt(2 * np.pi * s * s)
        expected = np.sum(np.abs(gauss - 1.0 / 16.0)) * grid.spacing[0]
        assert l1 >= 0.5
        assert abs(l1 - expected) <= 0.05

    def test_bins_must_divide_points(self, grid512, ground512):
        ens = sample_equilibrium(ground512.density(), 100, seed=0)
        with pytest.raises(ConfigError):
            equivariance_distance(ens, ground512, 60)


class TestCoarseGrainedH:
    def test_equilibrium_histogram_is_near_zero(self, grid512, ground512):
        # exact quantile placement gives the flattest possible sample
        rho = ground512.density()
        h = grid512.spacing[0]
        cdf = np.concatenate([[0.0], np.cumsum(rho.values) * h])
        cdf /= cdf[-1]
        edges = grid512.origin[0] + h * (np.arange(grid512.points[0] + 1) - 0.5)
        n = 200000
        positions = np.interp((np.arange(n) + 0.5) / n, cdf, edges)
        ens = TrajectoryEnsemble(grid=grid512, positions=positions)
        assert coarse_grained_H(ens, ground512, 8) <= 1e-3

    def test_gibbs_inequality(self, grid512, ground512):
        rng = np.random.default_rng(5)
        ens = TrajectoryEnsemble(
            grid=grid512, positions=rng.uniform(-4, 4, 20000)
        )
        assert coarse_grained_H(ens, ground512, 8) > 0.1

    def test_cell_size_floor(self, grid512, ground512):
        ens = sample_equilibrium(ground512.density(), 100, seed=0)
        with pytest.raises(ConfigError):
            coarse_grained_H(ens, ground512, 2)

    @pytest.mark.parametrize("cell_size", [15, 30])
    def test_cell_size_that_does_not_divide_the_grid_rejected(self, cell_size):
        # on 128-point axes, 15 used to run as cells of 16 and 30 as 32
        grid = GridSpec.centered((20.0, 20.0), (128, 128))
        psi = _band_limited_wave(grid, seed=1, real=False)
        ens = TrajectoryEnsemble(grid=grid, positions=np.zeros((10, 2)))
        for statistic in (coarse_grained_H, bootstrap_coarse_H):
            with pytest.raises(ConfigError, match="do not divide 128"):
                statistic(ens, psi, cell_size)

    def test_bootstrap_band_brackets_value(self, grid512, ground512):
        ens = sample_equilibrium(ground512.density(), 5000, seed=12)
        h, lo, hi = bootstrap_coarse_H(ens, ground512, 8, n_boot=100, seed=1)
        assert lo <= h <= hi
        assert hi - lo <= 0.05

    def test_empty_ensemble_rejected(self, grid512, ground512):
        # unchecked, H read 0.0 (equilibrium) and the L1 distance nan
        ens = TrajectoryEnsemble(grid=grid512, positions=np.zeros(0))
        for statistic, arg in ((coarse_grained_H, 8), (bootstrap_coarse_H, 8),
                               (equivariance_distance, 64)):
            with pytest.raises(ConfigError, match="none of 0 positions"):
                statistic(ens, ground512, arg)


def _rehistogram(grid, pos, bins):
    """Reference: histogram density of positions on node-centered bins, by
    np.histogram / np.histogram2d, and the bin volume."""
    lows = [grid.origin[i] - grid.spacing[i] / 2 for i in range(grid.dims)]
    edges = [lows[i] + (grid.extent[i] / bins[i]) * np.arange(bins[i] + 1)
             for i in range(grid.dims)]
    if grid.dims == 1:
        wrapped = lows[0] + np.mod(pos - lows[0], grid.extent[0])
        counts, _ = np.histogram(wrapped, bins=edges[0])
    else:
        wx = lows[0] + np.mod(pos[:, 0] - lows[0], grid.extent[0])
        wy = lows[1] + np.mod(pos[:, 1] - lows[1], grid.extent[1])
        counts, _, _ = np.histogram2d(wx, wy, bins=edges)
    counts = counts.astype(float)
    bin_volume = float(np.prod([L / b for L, b in zip(grid.extent, bins)]))
    return counts / (counts.sum() * bin_volume), bin_volume


def _bin_mean(psi, bins):
    """Reference: |psi|^2 averaged over the bins."""
    grid, rho = psi.grid, psi.density().values
    if grid.dims == 1:
        return rho.reshape(bins[0], -1).mean(axis=1)
    return rho.reshape(bins[0], grid.points[0] // bins[0],
                       bins[1], grid.points[1] // bins[1]).mean(axis=(1, 3))


def _bootstrap_by_rehistogram(ens, psi, cell_size, n_boot, seed):
    """Reference: the bootstrap as a full re-histogram of every resample."""
    grid = ens.grid
    bins = tuple(n // cell_size for n in grid.points)
    rho_bar = _bin_mean(psi, bins)

    def coarse_H(pos):
        p_bar, bin_volume = _rehistogram(grid, pos, bins)
        mask = p_bar > 0
        ratio = p_bar[mask] / np.maximum(rho_bar[mask], 1e-300)
        return float(np.sum(p_bar[mask] * np.log(ratio)) * bin_volume)

    rng = np.random.default_rng(seed)
    n = ens.size
    samples = [coarse_H(ens.positions[rng.integers(0, n, size=n)])
               for _ in range(n_boot)]
    lo, hi = np.percentile(samples, [2.5, 97.5])
    return coarse_H(ens.positions), float(lo), float(hi)


def _l1_by_rehistogram(ens, psi, bins):
    """Reference: equivariance_distance by np.histogram."""
    p_bar, bin_volume = _rehistogram(ens.grid, ens.positions, bins)
    return float(np.sum(np.abs(p_bar - _bin_mean(psi, bins))) * bin_volume)


def _on_last_edge(grid, axis):
    """A position that wraps exactly onto the upper edge of the last bin."""
    low = grid.origin[axis] - grid.spacing[axis] / 2
    x = np.nextafter(low, -np.inf)
    assert low + np.mod(x - low, grid.extent[axis]) == low + grid.extent[axis]
    return x


def test_bootstrap_matches_rehistogram_1d(grid512, ground512):
    rng = np.random.default_rng(3)
    positions = rng.normal(0.0, 1.3, 3000)
    positions[:3] = [_on_last_edge(grid512, 0), 40.0, -30.0]
    positions[3:8] = -12.0 - grid512.spacing[0] / 2 + 3.0 * np.arange(1, 6)  # bin edges
    ens = TrajectoryEnsemble(grid=grid512, positions=positions)
    got = bootstrap_coarse_H(ens, ground512, 8, n_boot=60, seed=4)
    ref = _bootstrap_by_rehistogram(ens, ground512, 8, 60, 4)
    assert got == ref
    assert coarse_grained_H(ens, ground512, 8) == ref[0]
    assert equivariance_distance(ens, ground512, 64) == _l1_by_rehistogram(ens, ground512, (64,))


def test_bootstrap_matches_rehistogram_2d():
    grid = GridSpec.centered((20.0, 20.0), (128, 128))
    xx, yy = grid.meshgrid()
    psi = WaveField(grid, np.exp(-(xx**2 + yy**2) / 4 + 0.5j * xx)).normalized()
    rng = np.random.default_rng(5)
    positions = rng.uniform(-3.0, 3.0, (3000, 2))
    positions[0] = (_on_last_edge(grid, 0), 0.3)
    positions[1] = (-0.7, _on_last_edge(grid, 1))
    positions[2] = (12.5, -31.0)
    positions[3:8, 0] = -10.0 - grid.spacing[0] / 2 + 1.25 * np.arange(5, 10)  # bin edges
    positions[3:8, 1] = -10.0 - grid.spacing[1] / 2 + 1.25 * np.arange(6, 11)
    ens = TrajectoryEnsemble(grid=grid, positions=positions)
    got = bootstrap_coarse_H(ens, psi, 8, n_boot=60, seed=6)
    ref = _bootstrap_by_rehistogram(ens, psi, 8, 60, 6)
    assert got == ref
    assert coarse_grained_H(ens, psi, 8) == ref[0]
    assert equivariance_distance(ens, psi, (16, 8)) == _l1_by_rehistogram(ens, psi, (16, 8))


def test_histogram_density_normalized():
    grid = GridSpec.regular(16.0, 256)
    rng = np.random.default_rng(9)
    volume = 16.0 / 64
    bin_of = ensemble_module._bin_index(grid, rng.uniform(0, 16, 5000), (64,))
    total = ensemble_module._density(bin_of, 64, volume).sum() * volume
    assert total == pytest.approx(1.0, abs=1e-9)


def test_liouville_flux_matches_probability_current(grid512):
    """div(rho v) which transports the ensemble equals div j of the wave."""
    psi = coherent_state(grid512, 1.0, 2.0, t=0.3)
    j = probability_current(psi)
    v = velocity_from_wave(psi)
    rho = psi.density().values
    flux = VectorField(grid512, tuple(rho * c for c in v.components))
    gap = np.abs(divergence(flux).values - divergence(j).values)
    assert np.sqrt(np.mean(gap**2)) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(n=st.integers(100, 2000), seed=st.integers(0, 100))
def test_sampled_ensembles_stay_in_domain(n, seed):
    grid = GridSpec.centered(16.0, 128)
    x = grid.axis(0)
    rho = ScalarField(grid, np.exp(-(x**2) / 2)).normalized()
    ens = sample_equilibrium(rho, n, seed)
    assert (ens.positions >= -8.0).all() and (ens.positions < 8.0).all()


def _reference_velocity(psi, positions, hbar, m):
    """Im(grad psi / psi) from sample_at on psi and complex_gradient(psi),
    floored and capped at near-node points the way VelocityField is."""
    grid = psi.grid
    here = sample_at(psi, positions)
    rho = np.abs(here) ** 2
    floor = 1e-12 * (np.abs(psi.values) ** 2).max()
    flagged = rho < floor
    comps = []
    for i, g in enumerate(complex_gradient(psi)):
        v = (hbar / m) * np.imag(sample_at(WaveField(grid, g), positions)
                                 * np.conj(here)) / np.maximum(rho, floor)
        v_max = hbar * np.pi / (m * grid.spacing[i])
        comps.append(np.where(flagged, np.clip(v, -v_max, v_max), v))
    v = comps[0] if grid.dims == 1 else np.stack(comps, axis=-1)
    return v, int(np.count_nonzero(flagged))


def _band_limited_wave(grid, seed, real):
    """A smooth periodic field from a few random low Fourier modes."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    low = tuple(slice(0, 4) for _ in range(grid.dims))
    coeffs[low] = rng.normal(size=coeffs[low].shape) + 1j * rng.normal(size=coeffs[low].shape)
    values = np.fft.ifftn(coeffs)
    return WaveField(grid, values.real if real else values)


_LINE = GridSpec.centered(24.0, 256)
_PLANE = GridSpec.centered((20.0, 16.0), (64, 32))


def _coordinates(grid, axis):
    """Generic points plus nodes, the last representable in-domain point
    and points outside the domain on both sides."""
    lo, L, h = grid.origin[axis], grid.extent[axis], grid.spacing[axis]
    return st.one_of(
        st.floats(lo - 2 * L, lo + 3 * L, allow_nan=False),
        st.integers(0, grid.points[axis] - 1).map(lambda j: lo + j * h),
        st.just(float(np.nextafter(lo + L, -np.inf))),
        st.just(lo),
        st.floats(lo - L, lo, exclude_max=True),
        st.floats(lo + L, lo + 2 * L),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.sampled_from([1.0, 0.7]), real=st.booleans(),
       xs=st.lists(_coordinates(_LINE, 0), min_size=1, max_size=40))
def test_fused_lookup_matches_reference_1d(seed, m, real, xs):
    psi = _band_limited_wave(_LINE, seed, real)
    positions = np.array(xs)
    events = NodeEvents()
    got = VelocityField(psi, m=m).at(positions, events)
    want, capped = _reference_velocity(psi, positions, 1.0, m)
    if real:  # a real field is exactly static
        assert np.all(got == 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
    assert (events.evaluations, events.capped) == (positions.size, capped)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.sampled_from([1.0, 0.7]), real=st.booleans(),
       pts=st.lists(st.tuples(_coordinates(_PLANE, 0), _coordinates(_PLANE, 1)),
                    min_size=1, max_size=40))
def test_fused_lookup_matches_reference_2d(seed, m, real, pts):
    psi = _band_limited_wave(_PLANE, seed, real)
    positions = np.array(pts)
    events = NodeEvents()
    got = VelocityField(psi, m=m).at(positions, events)
    want, capped = _reference_velocity(psi, positions, 1.0, m)
    assert got.shape == positions.shape
    if real:
        assert np.all(got == 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
    assert (events.evaluations, events.capped) == (len(pts), capped)


def test_fused_lookup_node_cap_and_events(grid512, harmonic512):
    # the first excited state has its node on the grid node at the origin;
    # points at and next to it are flagged and capped as before
    psi = stationary_states(harmonic512, 2)[1][1]
    twisted = WaveField(grid512, psi.values * np.exp(0.5j * grid512.axis(0)))
    h = grid512.spacing[0]
    positions = np.array([0.0, 1e-12, -1e-12, 0.3 * h, 2.0, -3.0])
    for field in (psi, twisted):
        events = NodeEvents()
        got = VelocityField(field).at(positions, events)
        want, capped = _reference_velocity(field, positions, 1.0, 1.0)
        assert capped >= 3
        assert (events.evaluations, events.capped) == (positions.size, capped)
        assert np.abs(got).max() <= np.pi / h
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("grid", [_LINE, _PLANE], ids=["1d", "2d"])
@pytest.mark.parametrize("unit", [1.0, 1j, -1j], ids=["real", "imaginary", "minus-imaginary"])
def test_single_part_field_velocity_is_exactly_zero(grid, unit):
    psi = _band_limited_wave(grid, seed=4, real=True)
    field = VelocityField(WaveField(grid, unit * psi.values), m=0.7)
    rng = np.random.default_rng(1)
    lo, hi = np.array(grid.origin), np.array(grid.origin) + np.array(grid.extent)
    positions = rng.uniform(lo, hi, size=(200, grid.dims))
    if grid.dims == 1:
        positions = positions[:, 0]
    assert np.all(field.at(positions) == 0.0)


def _nodal_plane_wave(kind, seed, grid=_PLANE):
    """A field on grid (_PLANE by default) for the few-point lookup checks.

    - "complex": band-limited, both parts non-zero;
    - "real-lines": real except for one imaginary value at node (5, 7), so
      the lines through most cells are real while the field is complex;
    - "nodal": complex with a node line on x node 20, where points cap.
    """
    psi = _band_limited_wave(grid, seed, real=kind == "real-lines")
    values = psi.values.copy()
    if kind == "real-lines":
        values[5, 7] += 0.5j
    elif kind == "nodal":
        x = grid.axis(0)
        values *= (x - x[20])[:, None]
    return WaveField(grid, values)


def _plane_points(grid):
    """_coordinates on both axes, plus points on and next to the node line
    of _nodal_plane_wave."""
    x_node = grid.axis(0)[20]
    near_node = st.sampled_from([x_node, x_node + 1e-12, x_node - 1e-9,
                                 x_node + 1e-6 * grid.spacing[0]])
    return st.tuples(st.one_of(_coordinates(grid, 0), near_node), _coordinates(grid, 1))


def _whole_grid_field(psi, **kwargs):
    """A VelocityField whose spans were filled over the whole grid first, by
    a lookup at the first and the last node."""
    grid = psi.grid
    field = VelocityField(psi, **kwargs)
    field.at(np.array([[grid.axis(0)[0], grid.axis(1)[0]],
                       [grid.axis(0)[-1], grid.axis(1)[-1]]]))
    assert field._spans == [(0, n + 1) for n in grid.points]
    return field


# more x than y points, fewer, and unequal extents: the row-major planes
# step by ny + 1 and the column-major ones by nx + 1, so swapping the two
# shows only on a non-square grid
_SPAN_GRIDS = [_PLANE, GridSpec.centered((12.0, 9.0), (32, 24)),
               GridSpec.centered((10.0, 18.0), (24, 40))]


@settings(max_examples=90, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["complex", "real-lines", "nodal"]),
       grid=st.sampled_from(_SPAN_GRIDS), data=st.data())
def test_span_2d_lookup_equals_whole_grid_lookup(seed, kind, grid, data):
    psi = _nodal_plane_wave(kind, seed, grid)
    positions = np.array(data.draw(st.lists(_plane_points(grid), min_size=1, max_size=12)))
    masses = (0.7, 1.3)
    few, few_events = VelocityField(psi, masses=masses), NodeEvents()
    got = few.at(positions, few_events)
    whole, whole_events = _whole_grid_field(psi, masses=masses), NodeEvents()
    want = whole.at(positions, whole_events)
    assert got.tobytes() == want.tobytes()
    assert few_events == whole_events


def test_span_2d_lookup_caps_on_the_node_line():
    psi = _nodal_plane_wave("nodal", seed=3)
    x_node = _PLANE.axis(0)[20]
    events = NodeEvents()
    field = VelocityField(psi)
    v = field.at(np.array([[x_node, 0.3], [x_node + 1e-12, -2.0]]), events)
    assert field._spans[0] == (20, 22)  # the two rows through the node line
    assert events == NodeEvents(evaluations=2, capped=2)
    assert np.all(np.abs(v[:, 0]) <= np.pi / _PLANE.spacing[0])


def test_2d_lines_transformed_once_per_field(monkeypatch):
    psi = _band_limited_wave(_PLANE, seed=5, real=False)
    transformed = [0, 0]  # lines differentiated along x, along y
    derivative = ensemble_module._spectral_derivative

    def counting(values, grid, axis, *args):
        transformed[axis] += values.shape[1 - axis]
        return derivative(values, grid, axis, *args)

    monkeypatch.setattr(ensemble_module, "_spectral_derivative", counting)
    field = VelocityField(psi)
    point = np.array([[0.25, -1.5]])
    first = field.at(point)
    assert transformed == [2, 2]
    for _ in range(5):
        assert field.at(point).tobytes() == first.tobytes()
    assert transformed == [2, 2]
    # a wider lookup transforms only the lines its span adds, once each
    h = np.array(_PLANE.spacing)
    field.at(point + np.array([[-3.0, 4.0], [2.0, -1.0]]) * h)
    spans = field._spans
    assert transformed == [spans[1][1] - spans[1][0], spans[0][1] - spans[0][0]]
    assert field.at(point).tobytes() == first.tobytes()


def test_2d_one_point_lookup_writes_one_run_per_plane():
    # each plane group stores its lines contiguously, so a one-point lookup
    # writes two whole padded lines of every plane, d0 psi's columns too,
    # and nothing else
    grid = GridSpec.centered((24.0, 20.0), (128, 96))
    field = VelocityField(_band_limited_wave(grid, seed=2, real=False))
    field._block.fill(np.nan)
    field.at(np.array([[0.3, -1.1]]))
    for group, line in zip(field._planes, (grid.points[1] + 1, grid.points[0] + 1)):
        for plane in group:
            written = np.flatnonzero(~np.isnan(plane.ravel()))
            assert written.size == 2 * line
            assert np.array_equal(written, written[0] + np.arange(2 * line))


def test_streaming_2d_fields_equal_stored_over_a_full_window():
    grid = GridSpec.centered((24.0, 24.0), (128, 128))
    line = grid.axis_line(0)
    psi0 = WaveField(grid, np.outer(gaussian_packet(line, 1.0, momentum=1.0).values,
                                    gaussian_packet(line, 1.3, momentum=-0.5).values))
    potential = Potential.harmonic(grid, 1.0)
    dt, steps = 0.02, 8
    stored = WaveTimeline.from_oracle(psi0, potential, dt, steps)
    streaming = OracleTimeline(psi0, potential, dt)
    # hold every streamed field past the window: none may share a buffer
    held = [streaming.at(j * dt / 2) for j in range(2 * steps + 1)]
    assert len(held) > ensemble_module._RK4_FIELDS
    for got, want in zip(held, stored.fields):
        assert got.values.tobytes() == want.values.tobytes()
    assert len({id(f.values) for f in held}) == len(held)


class _WatchedStream(OracleTimeline):
    """A streaming timeline that records the most fields and velocity
    fields it ever held at once."""

    held = 0

    def velocity(self, t):
        v = super().velocity(t)
        self.held = max(self.held, len(self._fields), len(self._velocities))
        return v


def test_streaming_2d_transport_holds_one_step_of_fields():
    grid = GridSpec.centered((16.0, 16.0), (32, 32))
    line = grid.axis_line(0)
    psi0 = WaveField(grid, np.outer(gaussian_packet(line, 1.0, momentum=1.0).values,
                                    gaussian_packet(line, 1.3, momentum=-0.5).values))
    potential = Potential.harmonic(grid, 1.0)
    dt, chunk, calls = 0.05, 3, 4
    stored = WaveTimeline.from_oracle(psi0, potential, dt, chunk * calls)
    streaming = _WatchedStream(psi0, potential, dt)
    start = np.random.default_rng(4).uniform(-3.0, 3.0, (300, 2))
    ens = TrajectoryEnsemble(grid=grid, positions=start)
    want = propagate_ensemble(ens, stored, chunk * calls, record_history=False)
    for c in range(calls):
        ens = propagate_ensemble(ens, streaming, chunk, record_history=False,
                                 t_start=c * chunk * dt).ensemble
    assert streaming.held == 3
    assert ens.positions.tobytes() == want.ensemble.positions.tobytes()


class _WatchedStore(WaveTimeline):
    """A stored timeline that records the most velocity fields it ever held
    at once."""

    held = 0

    def velocity(self, t):
        v = super().velocity(t)
        self.held = max(self.held, len(self._velocities))
        return v


def test_stored_transport_holds_one_step_of_velocity_fields(grid512, harmonic512):
    psi0 = coherent_state(grid512, 1.0, 1.0)
    dt, chunk, calls = 0.02, 3, 4
    stored = WaveTimeline.from_oracle(psi0, harmonic512, dt, chunk * calls)
    watched = _WatchedStore(stored.half_dt, stored.fields)
    ens = sample_equilibrium(psi0.density(), 300, seed=6)
    want = propagate_ensemble(ens, stored, chunk * calls, record_history=False)
    for c in range(calls):
        ens = propagate_ensemble(ens, watched, chunk, record_history=False,
                                 t_start=c * chunk * dt).ensemble
    assert watched.held == ensemble_module._RK4_FIELDS
    assert ens.positions.tobytes() == want.ensemble.positions.tobytes()


def test_velocity_field_rejects_nan_psi():
    values = _band_limited_wave(_PLANE, seed=2, real=False).values.copy()
    values[5, 7] = complex(np.nan, 0.0)
    with pytest.raises(NonFiniteFieldError):
        VelocityField(WaveField(_PLANE, values))


def _whole_array_rk4(ens, timeline, dt, steps):
    """propagate_ensemble as one pass over the whole ensemble per RK4 stage,
    the loop before blocking: final positions, history and events."""
    grid = ens.grid
    x = np.array(ens.positions, dtype=float)
    events = ensemble_module._TrajectoryEvents(ever_capped=np.zeros(ens.size, dtype=bool))
    history = [x.copy()]
    t = 0.0
    shift_in = ensemble_module._shift_in
    for _ in range(steps):
        v0 = timeline.velocity(t)
        vh = timeline.velocity(t + dt / 2.0)
        v1 = timeline.velocity(t + dt)
        k1 = v0.at(x, events)
        k2 = vh.at(shift_in(x + 0.5 * dt * k1, grid), events)
        k3 = vh.at(shift_in(x + 0.5 * dt * k2, grid), events)
        k4 = v1.at(shift_in(x + dt * k3, grid), events)
        x = shift_in(x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), grid, exact=True)
        t += dt
        history.append(x.copy())
    return x, np.array(history), events


def _node_timeline(dims, dt, steps):
    """A twisted field with a node at x = 0 (a grid node) that moves with
    the split-step propagator in 1D and stays static in 2D."""
    if dims == 1:
        grid = GridSpec.centered(24.0, 128)
        x = grid.axis(0)
        psi = WaveField(grid, x * np.exp(-x**2 / 2 + 0.5j * x)).normalized()
        return WaveTimeline.from_oracle(psi, Potential.harmonic(grid, 1.0), dt, steps)
    grid = GridSpec.centered((16.0, 12.0), (32, 24))
    x, y = grid.meshgrid()
    psi = WaveField(grid, x * np.exp(-(x**2 + y**2) / 2 + 1j * (0.5 * x + 0.3 * y)))
    return WaveTimeline(dt / 2, [psi] * (2 * steps + 1))


B = ensemble_module._BLOCK


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 2 * B + 5])
def test_blocked_transport_equals_whole_array_loop(dims, size):
    dt, steps = 0.05, 3
    timeline = _node_timeline(dims, dt, steps)
    grid = timeline.grid
    rng = np.random.default_rng(size + dims)
    lo = np.array(grid.origin)
    positions = rng.uniform(lo, lo + np.array(grid.extent), size=(size, dims))
    # trajectories on the node line, on both sides of each block boundary
    on_node = [i for i in (0, B - 1, B, 2 * B + 4) if i < size]
    positions[on_node, 0] = 0.0
    if dims == 1:
        positions = positions[:, 0]
    ens = TrajectoryEnsemble(grid=grid, positions=positions)
    res = propagate_ensemble(ens, timeline, steps)
    x, history, events = _whole_array_rk4(ens, timeline, dt, steps)
    assert np.array_equal(res.ensemble.positions, x)
    assert np.array_equal(res.ensemble.history, history)
    assert (res.events.evaluations, res.events.capped) == (events.evaluations, events.capped)
    assert res.capped_trajectories == int(events.ever_capped.sum())
    assert res.capped_trajectories >= len(on_node)
    assert res.events.evaluations == 4 * steps * size


def test_lookup_near_mid_cell_node_matches_long_double_lerp():
    # a twisted field whose node sits halfway between two grid nodes; the
    # vertex-form denominator keeps the digits an expanded quadratic loses
    grid = GridSpec.centered(24.0, 512)
    h = grid.spacing[0]
    x0 = grid.origin[0] + 256.5 * h
    x = grid.axis(0)
    psi = WaveField(grid, (x - x0) * np.exp(-(x - x0)**2 / 2 + 0.5j * x))
    (g,) = complex_gradient(psi)
    distances = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    positions = np.concatenate([x0 - distances * h, x0 + distances * h])
    events = NodeEvents()
    got = VelocityField(psi).at(positions, events)
    assert events.capped == 0

    u = positions - grid.origin[0]
    u /= h
    i0 = np.floor(u).astype(np.int64)
    w = (u - i0).astype(np.longdouble)
    i1 = (i0 + 1) % grid.points[0]

    def lerp(values):
        values = values.astype(np.clongdouble)
        return (1 - w) * values[i0] + w * values[i1]

    here, slope = lerp(psi.values), lerp(g)
    want = (slope.imag * here.real - slope.real * here.imag) / (here.real**2 + here.imag**2)
    rel = np.abs((got - want) / want).astype(float)
    assert rel.max() <= 1e-13, rel


@pytest.mark.parametrize("shape", ["constant", "plateau"])
def test_flat_cells_give_finite_velocity_without_warnings(shape):
    # a constant field is flat in every cell (on a power-of-two grid its
    # spectral derivative is exactly zero); the plateau has flat cells next
    # to a smooth rise
    grid = GridSpec.centered(24.0, 128)
    x = grid.axis(0)
    if shape == "constant":
        values = np.full(x.shape, 0.3 + 0.4j)
    else:
        values = (0.3 + 0.4j) * np.where(x < 0, 1.0, 1.0 + np.sin(x / 2)**2 * np.exp(0.2j * x))
    psi = WaveField(grid, values)
    positions = np.linspace(grid.origin[0], grid.origin[0] + grid.extent[0], 997,
                            endpoint=False)
    with np.errstate(all="raise"):
        got = VelocityField(psi).at(positions)
    assert np.all(np.isfinite(got))
    if shape == "constant":
        assert np.all(got == 0.0)
    else:
        want, _ = _reference_velocity(psi, positions, 1.0, 1.0)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


def test_step_wrap_leaves_in_domain_points_untouched():
    # two points more than a period outside need the mod fallback; the
    # points already inside keep their bits, whatever else is in the batch
    grid = GridSpec.centered(24.0, 128)
    inside = np.random.default_rng(0).normal(0.0, 3.0, 200)
    batch = np.concatenate([inside, [40.3, -37.9]])
    out = ensemble_module._shift_in(batch.copy(), grid, exact=True)
    assert np.array_equal(out[:200], inside)
    assert np.all((out >= -12.0) & (out < 12.0))
    assert out[200:] == pytest.approx([-7.7, -13.9 + 24.0], abs=1e-12)


def _masked_shift_in(pos, grid, exact=False):
    """_shift_in without its all-inside early-out: both masked passes on
    every column, then the mod for the points still outside."""
    columns = (pos,) if grid.dims == 1 else (pos[:, 0], pos[:, 1])
    for i, col in enumerate(columns):
        lo, period = grid.origin[i], grid.extent[i]
        np.subtract(col, period, out=col, where=col >= lo + period)
        np.add(col, period, out=col, where=col < lo)
        if exact:
            outside = (col < lo) | (col >= lo + period)
            col[outside] = grid.wrap(col[outside], i)
    return pos


@pytest.mark.parametrize("dims", [1, 2])
def test_shift_in_skips_an_all_inside_batch(dims):
    # a read-only batch shows that no masked pass writes into it
    grid = _LINE if dims == 1 else _PLANE
    lo = np.array(grid.origin)
    inside = np.random.default_rng(dims).uniform(lo, lo + np.array(grid.extent), (500, dims))
    inside[0] = lo
    inside[1] = np.nextafter(lo + np.array(grid.extent), -np.inf)
    batch = inside[:, 0].copy() if dims == 1 else inside.copy()
    want = batch.copy()
    batch.setflags(write=False)
    for exact in (False, True):
        assert ensemble_module._shift_in(batch, grid, exact=exact) is batch
        assert batch.tobytes() == want.tobytes()
    assert ensemble_module._shift_in(np.zeros((0,) + (dims,) * (dims - 1)), grid).size == 0


@settings(max_examples=60, deadline=None)
@given(exact=st.booleans(),
       xs=st.lists(_coordinates(_LINE, 0), min_size=0, max_size=30),
       pts=st.lists(st.tuples(_coordinates(_PLANE, 0), _coordinates(_PLANE, 1)),
                    min_size=0, max_size=30))
def test_shift_in_equals_the_masked_path(exact, xs, pts):
    for grid, batch in ((_LINE, np.array(xs, dtype=float)),
                        (_PLANE, np.array(pts, dtype=float).reshape(-1, 2))):
        got = ensemble_module._shift_in(batch.copy(), grid, exact=exact)
        assert got.tobytes() == _masked_shift_in(batch.copy(), grid, exact=exact).tobytes()


def _flag_array_ratios(numerators, rho, rho_floor, v_max):
    """_floored_ratios without its all-clear early-out: an explicit flag
    array for every batch, all False when no point is under the floor."""
    flagged = rho < rho_floor
    np.maximum(rho, rho_floor, out=rho)
    for v, cap in zip(numerators, v_max):
        v /= rho
        np.clip(v, -cap, cap, out=v, where=flagged)
    return flagged


def _event_batch(dims, kind):
    """Positions for a _node_timeline field: none, some or no point on the
    node line x = 0."""
    grid = _node_timeline(dims, 0.05, 1).grid
    size = {"clear": 300, "some": 300, "empty": 0}[kind]
    rng = np.random.default_rng(dims)
    positions = rng.uniform(1.0, 3.0, (size, dims)) * rng.choice([-1.0, 1.0], (size, dims))
    if kind == "some":
        positions[::7, 0] = 0.0
    return positions[:, 0].copy() if dims == 1 else positions


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("kind", ["clear", "some", "empty"])
def test_node_events_equal_the_flag_array_path(monkeypatch, dims, kind):
    timeline = _node_timeline(dims, 0.05, 3)
    positions = _event_batch(dims, kind)
    n = len(positions)

    def counts():
        events = ensemble_module._TrajectoryEvents(ever_capped=np.zeros(n, dtype=bool))
        plain = NodeEvents()
        field = timeline.velocity(0.0)
        v = field.at(positions, events)
        field.at(positions, plain)
        res = propagate_ensemble(TrajectoryEnsemble(timeline.grid, positions), timeline, 3)
        return (v.tobytes(), (events.evaluations, events.capped), events.ever_capped.tobytes(),
                plain, res.ensemble.positions.tobytes(), res.events, res.capped_trajectories)

    got = counts()
    monkeypatch.setattr(ensemble_module, "_floored_ratios", _flag_array_ratios)
    assert got == counts()
    assert got[1] == (n, n // 7 + 1 if kind == "some" else 0)
    assert got[5].evaluations == 12 * n
    assert (got[6] > 0) == (kind == "some")


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_start_rejected_before_the_first_step(dims, bad):
    timeline = _node_timeline(dims, 0.05, 3)
    positions = _event_batch(dims, "clear")
    positions.reshape(-1)[17] = bad
    ens = TrajectoryEnsemble(timeline.grid, positions)
    with pytest.raises(NonFiniteFieldError, match="start positions") as info:
        propagate_ensemble(ens, timeline, 3)
    assert info.value.first_index == 17


def _forked_case(dims):
    """Four blocks on a small stored timeline with a node, some trajectories
    started on the node line so that evaluations get capped."""
    dt, steps = 0.05, 3
    if dims == 1:
        grid = GridSpec.centered(24.0, 64)
        x = grid.axis(0)
        psi = WaveField(grid, x * np.exp(-x**2 / 2 + 0.5j * x)).normalized()
        timeline = WaveTimeline.from_oracle(psi, Potential.harmonic(grid, 1.0), dt, steps)
    else:
        timeline = _node_timeline(2, dt, steps)
        grid = timeline.grid
    rng = np.random.default_rng(dims)
    lo = np.array(grid.origin)
    positions = rng.uniform(lo, lo + np.array(grid.extent), size=(4 * B, dims))
    positions[::997, 0] = 0.0
    if dims == 1:
        positions = positions[:, 0]
    return TrajectoryEnsemble(grid=grid, positions=positions), timeline, dt, steps


def _on_cpus(monkeypatch, cpus):
    """Pretend the affinity mask holds `cpus` CPUs; count the forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _outcome(res):
    return (res.ensemble.positions.tobytes(), res.events, res.capped_trajectories,
            res.degraded)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("dims", [1, 2])
def test_forked_transport_is_bit_identical_to_serial(monkeypatch, dims):
    ens, timeline, dt, steps = _forked_case(dims)
    forks = _on_cpus(monkeypatch, 1)
    serial = propagate_ensemble(ens, timeline, steps, record_history=False)
    assert not forks
    assert serial.capped_trajectories > 0
    forks = _on_cpus(monkeypatch, 2)
    forked = propagate_ensemble(ens, timeline, steps, record_history=False)
    assert len(forks) == 1
    assert _outcome(forked) == _outcome(serial)
    # a history is recorded in the serial loop, with the same positions
    with_history = propagate_ensemble(ens, timeline, steps)
    assert len(forks) == 1
    assert _outcome(with_history) == _outcome(serial)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("dims", [1, 2])
def test_forked_transport_records_the_first_histories(monkeypatch, dims):
    ens, timeline, dt, steps = _forked_case(dims)
    _on_cpus(monkeypatch, 1)
    serial = propagate_ensemble(ens, timeline, steps)
    forks = _on_cpus(monkeypatch, 2)
    # the parent's share holds at least two blocks and records them
    for n in (1, 100, 2 * B):
        forked = propagate_ensemble(ens, timeline, steps, record_history=n)
        want = serial.ensemble.history[:, :n]
        assert forked.ensemble.history.shape == want.shape
        assert forked.ensemble.history.tobytes() == want.tobytes()
        assert _outcome(forked) == _outcome(serial)
    assert len(forks) == 3
    # a longer history stays in one process
    longer = propagate_ensemble(ens, timeline, steps, record_history=2 * B + 1)
    assert len(forks) == 3
    assert longer.ensemble.history.tobytes() == serial.ensemble.history[:, :2 * B + 1].tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _WorkerFails(WaveTimeline):
    """A stored timeline whose lookups raise in every process but its maker."""

    def velocity(self, t):
        if os.getpid() != self.maker:
            raise RuntimeError("worker-only failure")
        return super().velocity(t)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_worker_share_is_rerun_by_the_parent(monkeypatch):
    ens, timeline, dt, steps = _forked_case(1)
    _on_cpus(monkeypatch, 1)
    serial = propagate_ensemble(ens, timeline, steps, record_history=False)
    failing = _WorkerFails(timeline.half_dt, timeline.fields)
    failing.maker = os.getpid()
    forks = _on_cpus(monkeypatch, 2)
    rerun = propagate_ensemble(ens, failing, steps, record_history=False)
    assert len(forks) == 1
    assert _outcome(rerun) == _outcome(serial)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_transport_past_the_timeline_raises_and_leaves_no_child(monkeypatch):
    ens, timeline, dt, steps = _forked_case(1)
    _on_cpus(monkeypatch, 1)
    with pytest.raises(ConfigError) as serial:
        propagate_ensemble(ens, timeline, steps + 1, record_history=False)
    forks = _on_cpus(monkeypatch, 2)
    with pytest.raises(ConfigError) as forked:
        propagate_ensemble(ens, timeline, steps + 1, record_history=False)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
