"""Exception hierarchy shared across the package.

Everything raised on purpose derives from DisperseError so callers can
catch one base type at the CLI boundary.  Solver exceptions may carry a
``result`` attribute holding the last iterate as a partial DispersionResult;
it is attached at raise time by the solver, not declared here.
"""


class DisperseError(Exception):
    """Base class for all deliberate failures."""


class NonConvergent(DisperseError):
    """A series or iteration hit its term/iteration budget before the tolerance."""


class DegeneracyOutOfRange(DisperseError):
    """Density/temperature combination outside the reach of the fugacity solve."""


class SingularInput(DisperseError):
    """Residual evaluated exactly on a non-removable singularity."""


class QuadratureFailure(DisperseError):
    """Gauss-Legendre rules of 256 and 512 nodes per panel still disagree."""


class NoConvergence(DisperseError):
    """Root iteration exhausted max_iter or stalled (step rejected 20 times)."""


class SingularJacobian(DisperseError):
    """Complex derivative of the residual zero or non-finite at the current iterate."""


class SeedFailure(DisperseError):
    """No initial guess converged at the first point of a sweep."""


class GridResonanceUnderresolved(DisperseError):
    """Velocity grid too coarse for the requested integration time."""


class NumericalBlowup(DisperseError):
    """Time integration left the linear regime (density grew by > 1e6)."""


class FitAmbiguous(DisperseError):
    """Recorded density trace holds no single clear damped mode near the guess."""
