"""Dispersion and Landau damping of charged quantum gases with the Bohm
quantum-pressure correction.

Library entry points:

- quantum_stats: species description, statistics sums, equilibrium scales
- dispersion_core: exact residuals and closed-form branch frequencies
- root_solver: Newton root finding and k sweeps with continuation
- kinetic_oracle: time-domain kinetic cross-check (independent of the above)
- cli: the `disperse` command
"""

from .dispersion_core import (
    CLOSED_FORM_BRANCHES,
    DEGENERATE_BRANCHES,
    EXACT_BRANCHES,
    WEAK_BRANCHES,
    BranchId,
    ComplexRate,
    ResidualValue,
    coefficient_C1,
    omega_c1_corrected,
    omega_degenerate_bohm_gross,
    omega_quantum_langmuir,
    omega_weak_biquadratic,
    omega_weak_simple,
    omega_zero_sound,
    residual_degenerate,
    residual_quadrature,
    residual_weak,
)
from .errors import (
    DegeneracyOutOfRange,
    DisperseError,
    FitAmbiguous,
    GridResonanceUnderresolved,
    NoConvergence,
    NonConvergent,
    NumericalBlowup,
    QuadratureFailure,
    SeedFailure,
    SingularInput,
    SingularJacobian,
)
from .kinetic_oracle import (
    InitShape,
    OracleConfig,
    OracleRun,
    evolve_mode,
    fit_omega_eta,
)
from .quantum_stats import (
    DerivedScales,
    SpeciesParams,
    Statistics,
    characteristic_velocity,
    degeneracy_parameter,
    derive_scales,
    fugacity_from_density,
    plasma_frequency,
    reduced_fz,
    reduced_fz_derivative,
    scaled_erfc,
    thermal_velocity_sq,
    zeta_pm,
)
from .root_solver import (
    DispersionResult,
    SolverConfig,
    check_branch_species,
    dominant_root,
    first_point_seeds,
    solve_at_k,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BranchId",
    "CLOSED_FORM_BRANCHES",
    "ComplexRate",
    "DEGENERATE_BRANCHES",
    "DegeneracyOutOfRange",
    "DerivedScales",
    "DispersionResult",
    "DisperseError",
    "EXACT_BRANCHES",
    "FitAmbiguous",
    "GridResonanceUnderresolved",
    "InitShape",
    "NoConvergence",
    "NonConvergent",
    "NumericalBlowup",
    "OracleConfig",
    "OracleRun",
    "QuadratureFailure",
    "ResidualValue",
    "SeedFailure",
    "SingularInput",
    "SingularJacobian",
    "SolverConfig",
    "SpeciesParams",
    "Statistics",
    "WEAK_BRANCHES",
    "characteristic_velocity",
    "check_branch_species",
    "coefficient_C1",
    "degeneracy_parameter",
    "derive_scales",
    "dominant_root",
    "evolve_mode",
    "first_point_seeds",
    "fit_omega_eta",
    "fugacity_from_density",
    "omega_c1_corrected",
    "omega_degenerate_bohm_gross",
    "omega_quantum_langmuir",
    "omega_weak_biquadratic",
    "omega_weak_simple",
    "omega_zero_sound",
    "plasma_frequency",
    "reduced_fz",
    "reduced_fz_derivative",
    "residual_degenerate",
    "residual_quadrature",
    "residual_weak",
    "scaled_erfc",
    "solve_at_k",
    "sweep",
    "thermal_velocity_sq",
    "zeta_pm",
    "__version__",
]
