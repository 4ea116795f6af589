"""Reference propagator and eigensolver checks against analytic solutions."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from conftest import field_l2
from qfluid import oracle
from qfluid.errors import ConfigError, EigensolverError, UnitarityError
from qfluid.grids import GridSpec, ScalarField, WaveField
from qfluid.oracle import (
    Potential,
    PropagatorState,
    coherent_state,
    energy_expectation,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    split_step_evolve,
    stationary_states,
)


class TestPotential:
    def test_kinds(self, grid512):
        assert Potential.free(grid512).values.max() == 0.0
        har = Potential.harmonic(grid512, 2.0)
        x = grid512.axis(0)
        assert np.allclose(har.values, 0.5 * 4.0 * x**2)

    def test_non_finite_rejected(self, grid512):
        vals = np.zeros(grid512.shape)
        vals[0] = np.inf
        with pytest.raises(ConfigError):
            Potential(ScalarField(grid512, vals))


class TestSplitStep:
    def test_harmonic_ground_state_density_static(self, grid512, harmonic512, ground512):
        # ten periods; the density of a stationary state must not move
        dt = 1e-3
        steps = round(10 * 2 * np.pi / dt)
        out = split_step_evolve(PropagatorState(ground512, 0.0, dt), harmonic512, steps)
        err = field_l2(out.psi.density().values - ground512.density().values, grid512)
        assert err <= 1e-8

    def test_free_gaussian_spreading_width(self):
        grid = GridSpec.centered(32.0, 512)
        s0 = 1.0
        t_end = 2 * s0**2  # hbar = m = 1
        dt = 1e-3
        out = split_step_evolve(
            PropagatorState(gaussian_packet(grid, s0), 0.0, dt),
            Potential.free(grid), round(t_end / dt),
        )
        x = grid.axis(0)
        var = np.sum(x**2 * out.psi.density().values) * grid.cell_volume
        expected = s0 * np.sqrt(1 + (t_end / (2 * s0**2)) ** 2)
        assert abs(np.sqrt(var) - expected) / expected <= 1e-3

    def test_plane_wave_phase_advance(self, grid512):
        mode = 3
        psi0 = plane_wave(grid512, mode)
        k = 2 * np.pi * mode / grid512.extent[0]
        t_end = 0.1
        out = split_step_evolve(PropagatorState(psi0, 0.0, 1e-3),
                                Potential.free(grid512), 100)
        ratio = out.psi.values / psi0.values
        assert np.abs(np.abs(ratio) - 1.0).max() <= 1e-12
        assert np.abs(ratio - np.exp(-1j * k**2 * t_end / 2)).max() <= 1e-10

    def test_unitarity_drift_over_1e4_steps(self, grid512, harmonic512):
        state = PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, 1e-3)
        out = split_step_evolve(state, harmonic512, 10000)
        assert abs(out.psi.norm() - 1.0) <= 1e-9

    def test_energy_conservation(self, grid512, harmonic512):
        state = PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, 1e-3)
        e0 = energy_expectation(state, harmonic512)
        out = split_step_evolve(state, harmonic512, 10000)
        e1 = energy_expectation(out, harmonic512)
        assert abs(e1 - e0) / abs(e0) <= 1e-6

    def test_second_order_dt_convergence(self, grid512, harmonic512):
        period = 2 * np.pi
        errs, dts = [], [2e-2, 1e-2, 5e-3, 2.5e-3]
        for dt in dts:
            steps = round(period / dt)
            out = split_step_evolve(
                PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, period / steps),
                harmonic512, steps,
            )
            ref = coherent_state(grid512, 1.0, 2.0, period)
            errs.append(field_l2(out.psi.values - ref.values, grid512))
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(order - 2.0) <= 0.2, f"fitted order {order:.3f}"

    def test_grid_mismatch_rejected(self, grid512, grid256):
        with pytest.raises(ConfigError):
            split_step_evolve(
                PropagatorState(harmonic_ground_state(grid256, 1.0), 0.0, 1e-3),
                Potential.free(grid512), 1,
            )

    def test_norm_abort_on_corrupted_state(self, grid512, harmonic512):
        bad = WaveField(grid512, 1e-4 * harmonic_ground_state(grid512, 1.0).values)
        with pytest.raises(UnitarityError):
            split_step_evolve(PropagatorState(bad, 0.0, 1e-3), harmonic512, 1)


    def test_grid_mismatch_rejected_after_cached_use(self, grid512, grid256):
        potential = Potential.free(grid512)
        split_step_evolve(
            PropagatorState(harmonic_ground_state(grid512, 1.0), 0.0, 1e-3),
            potential, 1,
        )
        with pytest.raises(ConfigError):
            split_step_evolve(
                PropagatorState(harmonic_ground_state(grid256, 1.0), 0.0, 1e-3),
                potential, 1,
            )

    def test_one_step_calls_equal_one_long_call(self, grid512, harmonic512):
        state = PropagatorState(gaussian_packet(grid512, 1.0, momentum=1.0), 0.0, 1e-3)
        stepped = state
        for _ in range(20):
            stepped = split_step_evolve(stepped, harmonic512, 1)
        whole = split_step_evolve(state, harmonic512, 20)
        assert np.array_equal(stepped.psi.values, whole.psi.values)
        assert stepped.t == pytest.approx(whole.t)

    def test_cached_phases_equal_fresh_builds(self, grid256):
        harmonic = Potential.harmonic(grid256, 1.0)
        x = grid256.axis(0)
        barrier = Potential(ScalarField(grid256, np.where(np.abs(x) <= 0.5, 3.0, 0.0)))
        psi = gaussian_packet(grid256, 1.0, momentum=1.5)
        keys = [(harmonic, 1e-3, 1.0), (barrier, 2e-3, 1.0), (harmonic, 2e-3, 1.0),
                (barrier, 1e-3, 1.0), (harmonic, 1e-3, 0.5), (barrier, 5e-4, 1.0)]
        for potential, dt, m in keys + keys[::-1] + keys:
            state = PropagatorState(psi, 0.0, dt, 1.0, m)
            out = split_step_evolve(state, potential, 3)
            assert np.array_equal(out.psi.values, fresh_split_step(state, potential, 3))

    def test_input_field_is_only_read(self, grid512, harmonic512):
        psi = gaussian_packet(grid512, 1.0, momentum=1.0)
        before = psi.values.copy()
        split_step_evolve(PropagatorState(psi, 0.0, 1e-3), harmonic512, 3)
        assert psi.values.tobytes() == before.tobytes()

    def test_one_step_calls_return_arrays_of_their_own(self, grid512, harmonic512):
        state = PropagatorState(gaussian_packet(grid512, 1.0, momentum=1.0), 0.0, 1e-3)
        first = split_step_evolve(state, harmonic512, 1)
        kept = first.psi.values.copy()
        second = split_step_evolve(first, harmonic512, 1)
        assert not np.shares_memory(first.psi.values, second.psi.values)
        assert first.psi.values.tobytes() == kept.tobytes()
        assert not second.psi.values.flags.writeable

    def test_zero_steps_return_the_input_values(self, grid512, harmonic512):
        state = PropagatorState(gaussian_packet(grid512, 1.0), 0.0, 1e-3)
        out = split_step_evolve(state, harmonic512, 0)
        assert out.psi.values.tobytes() == state.psi.values.tobytes()
        assert out.t == state.t and not out.psi.values.flags.writeable

    @pytest.mark.parametrize("steps", [-3, 2.5, True, "2"])
    def test_bad_steps_rejected(self, grid512, harmonic512, steps):
        # unchecked, -3 returns psi unchanged but stamped 3 dt early, and 2.5
        # escapes from range() as a TypeError
        state = PropagatorState(gaussian_packet(grid512, 1.0), 0.0, 1e-3)
        with pytest.raises(ConfigError, match="steps must be an integer >= 0"):
            split_step_evolve(state, harmonic512, steps)


class TestSplitStep2D:
    """The 1D bit-identity checks on a 128x128 harmonic trap: 2D results
    go through fftn over two axes, where an in-place rewrite of the loop
    can change bits that the 1D checks never see."""

    @pytest.fixture(scope="class")
    def grid2(self):
        return GridSpec.centered((24.0, 24.0), (128, 128))

    @staticmethod
    def packet(grid2, momentum=(1.0, -0.5)):
        line = grid2.axis_line(0)
        a = gaussian_packet(line, 1.0, center=1.0, momentum=momentum[0]).values
        b = gaussian_packet(line, 1.3, center=-0.5, momentum=momentum[1]).values
        return WaveField(grid2, np.outer(a, b))

    def test_one_step_calls_equal_one_long_call(self, grid2):
        harmonic = Potential.harmonic(grid2, 1.0)
        state = PropagatorState(self.packet(grid2), 0.0, 1e-3)
        stepped = state
        for _ in range(20):
            stepped = split_step_evolve(stepped, harmonic, 1)
        whole = split_step_evolve(state, harmonic, 20)
        assert np.array_equal(stepped.psi.values, whole.psi.values)
        assert stepped.t == pytest.approx(whole.t)

    def test_one_step_equals_out_of_place_formula(self, grid2):
        harmonic = Potential.harmonic(grid2, 1.0)
        state = PropagatorState(self.packet(grid2), 0.0, 1e-3)
        before = state.psi.values.copy()
        out = split_step_evolve(state, harmonic, 1)
        assert out.psi.values.tobytes() == fresh_split_step(state, harmonic, 1).tobytes()
        assert state.psi.values.tobytes() == before.tobytes()

    def test_cached_phases_equal_fresh_builds(self, grid2):
        harmonic = Potential.harmonic(grid2, 1.0)
        shifted = Potential.harmonic(grid2, 1.3, center=(0.5, -0.5))
        psi = self.packet(grid2, momentum=(1.5, 0.5))
        keys = [(harmonic, 1e-3, 1.0), (shifted, 2e-3, 1.0), (harmonic, 2e-3, 1.0),
                (shifted, 1e-3, 1.0), (harmonic, 1e-3, 0.5), (shifted, 5e-4, 1.0)]
        for potential, dt, m in keys + keys[::-1] + keys:
            state = PropagatorState(psi, 0.0, dt, 1.0, m)
            out = split_step_evolve(state, potential, 3)
            assert np.array_equal(out.psi.values, fresh_split_step(state, potential, 3))


def fresh_split_step(state, potential, steps):
    """Strang steps with both phase factors built anew on each call.

    The kinetic product takes the transform first: complex products round
    by operand order, and split_step_evolve multiplies in this order."""
    grid = state.psi.grid
    dt, hbar, m = state.dt, state.hbar, state.m
    k2 = np.zeros(grid.shape)
    for axis in range(grid.dims):
        shape = [1] * grid.dims
        shape[axis] = -1
        k2 = k2 + grid.wavenumbers(axis).reshape(shape) ** 2
    half_v = np.exp(-0.5j * potential.values * dt / hbar)
    kin = np.exp(-1j * hbar * k2 * dt / (2.0 * m))
    psi = state.psi.values
    for _ in range(steps):
        psi = half_v * psi
        psi = np.fft.ifftn(np.fft.fftn(psi) * kin)
        psi = half_v * psi
    return psi


# the potentials whose states the scenarios and demos use: equivariance
# (24/512), relaxation's two axes (20/128 at omega and at the golden ratio
# times omega, modes up to 7), measurement and demo 05 (24/256) and the
# brute-force measurement grid (24/128)
SCENARIO_POTENTIALS = [
    (24.0, 512, 1.0, 2),
    (20.0, 128, 1.0, 8),
    (20.0, 128, 0.5 * (1 + np.sqrt(5.0)), 8),
    (24.0, 256, 1.0, 3),
    (24.0, 256, 1.0, 4),
    (24.0, 128, 1.0, 2),
]


class TestStationaryStates:
    def test_harmonic_spectrum(self, eigenpairs512):
        for k, (energy, _) in enumerate(eigenpairs512):
            exact = k + 0.5
            assert abs(energy - exact) / exact <= 1e-3

    def test_orthonormality(self, eigenpairs512, grid512):
        h = grid512.spacing[0]
        vecs = [phi.values for _, phi in eigenpairs512]
        overlaps = np.array(
            [[abs(np.vdot(a, b)) * h for b in vecs] for a in vecs]
        )
        assert np.abs(overlaps - np.eye(len(vecs))).max() <= 1e-8

    def test_free_particle_degenerate_ladder(self, grid512):
        pairs = stationary_states(Potential.free(grid512), 7)
        energies = np.array([e for e, _ in pairs])
        # doubly degenerate above the constant mode, quadratic in the mode number
        assert energies[0] == pytest.approx(0.0, abs=1e-12)
        assert energies[1] == pytest.approx(energies[2], rel=1e-10)
        assert energies[3] == pytest.approx(energies[4], rel=1e-10)
        h = grid512.spacing[0]
        for j, idx in ((1, 1), (2, 3), (3, 5)):
            k = 2 * np.pi * j / grid512.extent[0]
            exact = (2.0 / h**2) * (1 - np.cos(k * h)) / 2  # FD dispersion
            assert abs(energies[idx] - exact) / exact <= 1e-10
            assert abs(energies[idx] - k**2 / 2) / (k**2 / 2) <= 1e-3

    def test_ground_state_node_free_even(self, eigenpairs512, grid512):
        phi = eigenpairs512[0][1].values.real
        assert (phi > -1e-12).all() or (phi < 1e-12).all()
        # parity partner of x_j on a centered periodic grid is index -j mod n
        mirrored = np.roll(phi[::-1], 1)
        assert np.abs(phi - mirrored).max() <= np.abs(phi).max() * 1e-6

    @pytest.mark.parametrize("count", [2.5, True, 0, 129, np.float64(2.0)])
    def test_count_must_be_an_integer_in_range(self, count):
        with pytest.raises(ConfigError, match="count must be an integer"):
            stationary_states(Potential.harmonic(GridSpec.centered(24.0, 128), 1.0), count)

    def test_numpy_integer_count_accepted(self):
        pairs = stationary_states(Potential.harmonic(GridSpec.centered(24.0, 128), 1.0),
                                  np.int64(128))
        assert len(pairs) == 128

    @pytest.mark.parametrize("extent, points, omega, count", SCENARIO_POTENTIALS)
    def test_lowest_pairs_match_the_full_solve(self, extent, points, omega, count):
        # the largest-sample sign rule is not tie-proof on odd states, so the
        # subset solve must pick the sign the full solve picked
        potential = Potential.harmonic(GridSpec.centered(extent, points), omega)
        energies, vectors = scipy.linalg.eigh(
            oracle._fd_hamiltonian(potential, 1.0, 1.0).T, overwrite_a=True)
        vectors = vectors[:, :count] / np.sqrt(potential.grid.spacing[0])
        signs = np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(count)])
        pairs = stationary_states(potential, count)
        assert len(pairs) == count
        for k, (energy, phi) in enumerate(pairs):
            assert abs(energy - energies[k]) <= 1e-12 * abs(energies[k])
            assert np.abs(phi.values - signs[k] * vectors[:, k]).max() <= 1e-12

    @pytest.mark.parametrize("extent, points, omega, count",
                             SCENARIO_POTENTIALS + [(24.0, 512, 1.0, 512)])
    def test_driver_gives_the_bytes_of_eigh(self, extent, points, omega, count):
        # dsyevr called with eigh's arguments: the same eigenpairs to the bit
        potential = Potential.harmonic(GridSpec.centered(extent, points), omega)
        energies, vectors = oracle._lowest_eigenpairs(
            oracle._fd_hamiltonian(potential, 1.0, 1.0).T, count)
        ref_energies, ref_vectors = scipy.linalg.eigh(
            oracle._fd_hamiltonian(potential, 1.0, 1.0).T, overwrite_a=True,
            subset_by_index=[0, count - 1])
        assert energies.tobytes() == ref_energies.tobytes()
        assert vectors.shape == ref_vectors.shape == (points, count)
        assert vectors.tobytes() == ref_vectors.tobytes()

    def test_odd_modes_keep_their_positive_lobe(self):
        # the sign tie on odd states is settled by dsyevr's rounding, which
        # depends on the BLAS thread count, so the lobes are pinned at the
        # one thread the benchmark runs with; a solver or BLAS change that
        # flips a mode fails here with the potential and the mode named
        lobes = json.loads(run_python("""
import json
import numpy as np
from qfluid.grids import GridSpec
from qfluid.oracle import Potential, stationary_states
lobes = {}
for extent, points, omega, count in %r:
    grid = GridSpec.centered(extent, points)
    x = grid.axis(0)
    states = [phi.values.real for _, phi in
              stationary_states(Potential.harmonic(grid, omega), count)]
    lobes[f"{extent}/{points} omega {omega:.3f}, {count} states"] = {
        k: "left" if phi[np.argmax(np.abs(phi) * (x < 0))] > 0 else "right"
        for k, phi in enumerate(states) if k %% 2}
print(json.dumps(lobes))
""" % SCENARIO_POTENTIALS, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1"))
        assert lobes == {
            "24.0/512 omega 1.000, 2 states": {"1": "left"},
            "20.0/128 omega 1.000, 8 states":
                {"1": "left", "3": "left", "5": "right", "7": "left"},
            "20.0/128 omega 1.618, 8 states":
                {"1": "right", "3": "right", "5": "right", "7": "right"},
            "24.0/256 omega 1.000, 3 states": {"1": "left"},
            "24.0/256 omega 1.000, 4 states": {"1": "left", "3": "left"},
            "24.0/128 omega 1.000, 2 states": {"1": "left"},
        }

    @staticmethod
    def patch_driver(monkeypatch, **wrappers):
        """oracle's LAPACK extension with the output of each named routine
        passed through its wrapper."""
        real = oracle._flapack()

        def wrapped(name):
            routine, wrap = getattr(real, name), wrappers.get(name)
            return routine if wrap is None else lambda *a, **kw: wrap(*routine(*a, **kw))

        monkeypatch.setattr(oracle, "_flapack", lambda: SimpleNamespace(
            dsyevr=wrapped("dsyevr"), dsyevr_lwork=wrapped("dsyevr_lwork")))

    def test_corrupted_eigenpair_raises(self, monkeypatch):
        def corrupted(energies, vectors, found, isuppz, info):
            vectors[:, found - 1] += 1e-3 * vectors[:, 0]
            return energies, vectors, found, isuppz, info

        self.patch_driver(monkeypatch, dsyevr=corrupted)
        with pytest.raises(EigensolverError, match="eigenpair 1 residual"):
            stationary_states(Potential.harmonic(GridSpec.centered(24.0, 128), 1.0), 2)

    @pytest.mark.parametrize("routine, result, message", [
        ("dsyevr", lambda w, z, found, isuppz, info: (w, z, found, isuppz, 3),
         "dsyevr info 3, 2 of 2 eigenpairs found"),
        ("dsyevr", lambda w, z, found, isuppz, info: (w, z, 1, isuppz, info),
         "dsyevr info 0, 1 of 2 eigenpairs found"),
        ("dsyevr_lwork", lambda work, iwork, info: (work, iwork, -1),
         "workspace query failed: info -1"),
    ], ids=["info", "too-few-pairs", "workspace-query"])
    def test_driver_failure_raises(self, monkeypatch, routine, result, message):
        self.patch_driver(monkeypatch, **{routine: result})
        with pytest.raises(EigensolverError, match=message):
            stationary_states(Potential.harmonic(GridSpec.centered(24.0, 128), 1.0), 2)

    def test_missing_extension_is_named(self, monkeypatch):
        monkeypatch.setattr(oracle.importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ModuleNotFoundError, match="scipy/linalg/_flapack was not found"):
            oracle._flapack.__wrapped__()


def run_python(code: str, **env) -> str:
    """Standard output of code run in a fresh interpreter that imports the
    package from src/, with env added to the environment."""
    env = {**os.environ, **env}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_eigensolve_imports_neither_scipy_linalg_nor_f2py():
    # scipy.linalg's __init__ (and numpy.f2py, which it pulls in) is the
    # largest import cost the package would pay; the driver is loaded from
    # its extension file instead, and scipy.linalg still imports after that
    result = json.loads(run_python("""
import json, sys
import qfluid.cli
from qfluid import oracle
from qfluid.grids import GridSpec
potential = oracle.Potential.harmonic(GridSpec.centered(24.0, 128), 1.0)
before = [phi.values.tobytes() for _, phi in oracle.stationary_states(potential, 3)]
loaded = [name for name in ("scipy.linalg", "numpy.f2py") if name in sys.modules]
import scipy.linalg
ours = oracle._lowest_eigenpairs(oracle._fd_hamiltonian(potential, 1.0, 1.0).T, 3)
eigh = scipy.linalg.eigh(oracle._fd_hamiltonian(potential, 1.0, 1.0).T,
                         overwrite_a=True, subset_by_index=[0, 2])
after = [phi.values.tobytes() for _, phi in oracle.stationary_states(potential, 3)]
print(json.dumps({"loaded": loaded, "same_states": before == after,
                  "same_as_eigh": all(a.tobytes() == b.tobytes()
                                      for a, b in zip(ours, eigh))}))
"""))
    assert result == {"loaded": [], "same_states": True, "same_as_eigh": True}


def test_coherent_state_matches_fine_split_step(grid512, harmonic512):
    dt = 1e-4
    out = split_step_evolve(
        PropagatorState(coherent_state(grid512, 1.0, 2.0), 0.0, dt),
        harmonic512, round(1.0 / dt),
    )
    ref = coherent_state(grid512, 1.0, 2.0, 1.0)
    assert field_l2(out.psi.values - ref.values, grid512) <= 1e-7
