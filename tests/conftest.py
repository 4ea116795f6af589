import os

import numpy as np
import pytest

from qfluid.grids import GridSpec
from qfluid.oracle import Potential, harmonic_ground_state, stationary_states


@pytest.fixture(scope="session")
def grid512():
    return GridSpec.centered(24.0, 512)


@pytest.fixture(scope="session")
def grid256():
    return GridSpec.centered(24.0, 256)


@pytest.fixture(scope="session")
def harmonic512(grid512):
    return Potential.harmonic(grid512, 1.0)


@pytest.fixture(scope="session")
def ground512(grid512):
    return harmonic_ground_state(grid512, 1.0)


@pytest.fixture(scope="session")
def eigenpairs512(harmonic512):
    return stationary_states(harmonic512, 4)


def rel_l2(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def field_l2(values, grid):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume))


def phase_aligned_l2(psi_values, ref_values, grid):
    """L2 distance after removing the best global phase."""
    overlap = np.vdot(psi_values, ref_values)
    phase = overlap / abs(overlap)
    return field_l2(psi_values * phase - ref_values, grid)


def on_cpus(monkeypatch, cpus):
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
