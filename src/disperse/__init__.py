"""Dispersion and Landau damping of charged quantum gases with the Bohm
quantum-pressure correction.

Library entry points:

- quantum_stats: species description, statistics sums, equilibrium scales
- dispersion_core: exact residuals and closed-form branch frequencies
- root_solver: Newton root finding and k sweeps (continuation; at T = 0 all k at once)
- kinetic_oracle: time-domain kinetic cross-check (independent of the above)
- cli: the `disperse` command

The package namespace holds what the README examples and `scripts/` use;
everything else is imported from its submodule.
"""

from .dispersion_core import (
    BranchId,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_zero_sound,
)
from .errors import (
    DisperseError,
    FitAmbiguous,
    NumericalBlowup,
    QuadratureFailure,
)
from .kinetic_oracle import OracleConfig, evolve_mode
from .quantum_stats import SpeciesParams, Statistics, derive_scales
from .root_solver import SolverConfig, dominant_root, first_point_seeds, solve_at_k, sweep

__version__ = "0.1.0"

__all__ = [
    "BranchId",
    "DisperseError",
    "FitAmbiguous",
    "NumericalBlowup",
    "OracleConfig",
    "QuadratureFailure",
    "SolverConfig",
    "SpeciesParams",
    "Statistics",
    "derive_scales",
    "dominant_root",
    "evolve_mode",
    "first_point_seeds",
    "omega_degenerate_bohm_gross",
    "omega_quantum_langmuir",
    "omega_zero_sound",
    "solve_at_k",
    "sweep",
    "__version__",
]
