"""Numerical laboratory for quantum hydrodynamics.

Cross-validates three routes to the same dynamics on periodic grids: a
split-operator spectral propagator (the reference), direct integration of
the amplitude-phase fluid equations with their quantum potential, and a
diffusion-with-jumps micro-model of a second fluid whose window-averaged
acceleration reproduces the quantum-potential force. On top of those sit
guided trajectory ensembles (equivariance, relaxation to the equilibrium
distribution), two-particle conditional wave functions, and a pointer
measurement model.
"""

from .errors import (
    ConditionalUndefinedError,
    ConfigError,
    DomainSizeError,
    EigensolverError,
    GridError,
    GridMismatchError,
    NonFiniteFieldError,
    QFluidError,
    StabilityError,
    UnitarityError,
)
from .grids import (
    GridSpec,
    ScalarField,
    VectorField,
    WaveField,
    divergence,
    gradient,
    integrate,
    laplacian,
    sample_at,
)
from .oracle import (
    Potential,
    PropagatorState,
    coherent_state,
    energy_expectation,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    probability_current,
    split_step_evolve,
    stationary_states,
)
from .madelung import (
    MadelungState,
    decompose,
    madelung_residual,
    madelung_step,
    quantum_potential,
    recompose,
)
from .twofluid import (
    TwoFluidConfig,
    averaged_acceleration,
    fluid2_microstep,
    fluid2_velocity,
    micro_acceleration,
    reaction_force,
)
from .ensemble import (
    OracleTimeline,
    TrajectoryEnsemble,
    WaveTimeline,
    coarse_grained_H,
    equivariance_distance,
    propagate_ensemble,
    sample_equilibrium,
)
from .conditional import (
    ConfigWaveField,
    ParticlePair,
    conditional_guiding_velocity,
    conditional_guiding_velocities,
    conditional_wavefunction,
)
from .measurement import (
    pointer_marginal,
    pointer_measurement_brute,
    pointer_measurement_evolve,
)
from .experiments import ExperimentConfig, RunManifest, report, run, sweep

__version__ = "0.1.0"
