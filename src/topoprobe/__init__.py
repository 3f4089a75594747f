"""Anyonic interferometry: models, probe channels, loop calculus, gates.

The package splits along the physics:

- :mod:`topoprobe.model`: anyon theory data (fusion, F/R, twists, modular
  matrices) with full axiom verification; Ising built in, others from JSON.
- :mod:`topoprobe.interferometer`: the untwisted Mach-Zehnder measurement
  channel, seeded probe streams, outcome statistics, and collapse classes.
- :mod:`topoprobe.surgery`: omega/tau loop calculus and solid-torus
  boundary operators evaluated in closed form from S and T.
- :mod:`topoprobe.gates`: the doubly twisted measurement on the Ising
  qubit, magic states, and the pi/8-phase-gate protocol.
- :mod:`topoprobe.cli`: reproducible command-line runs (`topoprobe ...`).
"""

from .errors import (
    ConsistencyViolation,
    DegenerateTuning,
    ForbiddenConnectingCharge,
    InvalidCore,
    MissingVacuum,
    NonAbelianSlide,
    NonMultiplicityFree,
    ParseError,
    TopoprobeError,
    UnitarityViolation,
    UnsupportedBasisChange,
    ZeroProbability,
)
from .model import (
    AnyonModel,
    ConsistencyReport,
    build_model,
    ising,
    load_model,
    monodromy,
    verify_consistency,
)
from .interferometer import (
    AnyonicDensityMatrix,
    ChargeClass,
    EquivalenceClass,
    InterferometerConfig,
    ProbeOutcome,
    ProbeTrajectory,
    apply_probe,
    asymptotic_measure,
    density_matrix,
    equivalence_classes,
    fixed_state,
    outcome_distribution,
    p_factor,
    simulate_stream,
)
from .surgery import (
    DiagonalLoopOperator,
    ModularMatrices,
    TorusVector,
    loop_around_line,
    modular_matrices,
    omega_vector,
    slide_omega,
    solid_torus_operator,
    tau_operator,
    twisted_operator,
)
from .gates import (
    QubitDensity,
    QubitState,
    align_global_phase,
    clifford_library,
    magic_state,
    protocol_check,
    protocol_residual,
    protocol_unitary,
    sample_twisted,
    state_fidelity,
    synthesize_magic_state,
    twisted_measure,
)

__version__ = "0.1.0"

__all__ = [
    "AnyonModel",
    "AnyonicDensityMatrix",
    "ChargeClass",
    "ConsistencyReport",
    "ConsistencyViolation",
    "DegenerateTuning",
    "DiagonalLoopOperator",
    "EquivalenceClass",
    "ForbiddenConnectingCharge",
    "InterferometerConfig",
    "InvalidCore",
    "MissingVacuum",
    "ModularMatrices",
    "NonAbelianSlide",
    "NonMultiplicityFree",
    "ParseError",
    "ProbeOutcome",
    "ProbeTrajectory",
    "QubitDensity",
    "QubitState",
    "TopoprobeError",
    "TorusVector",
    "UnitarityViolation",
    "UnsupportedBasisChange",
    "ZeroProbability",
    "align_global_phase",
    "apply_probe",
    "asymptotic_measure",
    "build_model",
    "clifford_library",
    "density_matrix",
    "equivalence_classes",
    "fixed_state",
    "ising",
    "load_model",
    "loop_around_line",
    "magic_state",
    "modular_matrices",
    "monodromy",
    "omega_vector",
    "outcome_distribution",
    "p_factor",
    "protocol_check",
    "protocol_residual",
    "protocol_unitary",
    "sample_twisted",
    "simulate_stream",
    "slide_omega",
    "solid_torus_operator",
    "state_fidelity",
    "synthesize_magic_state",
    "tau_operator",
    "twisted_measure",
    "twisted_operator",
    "verify_consistency",
]
