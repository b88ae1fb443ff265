"""Damped, harmonically forced quantum oscillator under Lindblad dynamics.

Two independent engines over one parameter set: a brute-force
truncated-Fock-space RK4 integrator and the full family of closed-form
solutions (operator series, Gaussian flow, mean values, non-Hermitian
equivalent).  Each side is the oracle for the other; the `validation`
module wires the cross-checks together.
"""

from .fock_core import (
    DensityMatrix,
    TruncationError,
    TruncationWarning,
    coherent_state,
    density_diagnostics,
    required_dim,
    trace_distance,
)
from .freeform_solutions import (
    coherent_free_evolution,
    efg,
    fujii_density,
    thermal_from_ground,
)
from .gaussian_class import (
    GaussianState,
    entropy,
    entropy_infinity,
    gaussian_flow,
    husimi_grid,
    husimi_value,
    limit_cycle_state,
    materialize,
    solve_u,
)
from .lindblad_engine import (
    DriveFn,
    IntegrationDivergedError,
    IntegratorOptions,
    LindbladParams,
    Trajectory,
    default_dt,
    evolve,
    lindblad_rhs,
    steady_state,
)
from .nonhermitian import (
    NHParams,
    abc,
    nh_expectations,
)
from .observables import (
    limit_cycle_alpha,
    mean_a,
    mean_n,
    mean_n_limit_cycle,
    quantum_lc,
    resonance_amplitude,
    resonance_frequency,
    resonance_scan,
)
from .validation import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DensityMatrix",
    "DriveFn",
    "GaussianState",
    "IntegrationDivergedError",
    "IntegratorOptions",
    "LindbladParams",
    "NHParams",
    "Trajectory",
    "TruncationError",
    "TruncationWarning",
    "abc",
    "coherent_free_evolution",
    "coherent_state",
    "default_dt",
    "density_diagnostics",
    "efg",
    "entropy",
    "entropy_infinity",
    "evolve",
    "fujii_density",
    "gaussian_flow",
    "husimi_grid",
    "husimi_value",
    "limit_cycle_alpha",
    "limit_cycle_state",
    "lindblad_rhs",
    "materialize",
    "mean_a",
    "mean_n",
    "mean_n_limit_cycle",
    "nh_expectations",
    "quantum_lc",
    "required_dim",
    "resonance_amplitude",
    "resonance_frequency",
    "resonance_scan",
    "run_all",
    "solve_u",
    "steady_state",
    "thermal_from_ground",
    "trace_distance",
    "__version__",
]
