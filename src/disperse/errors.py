"""Exception hierarchy shared across the package.

Everything raised on purpose derives from DisperseError so callers can
catch one base type at the CLI boundary.  NoConvergence from the Newton
iteration carries ``result``, its last iterate as a non-converged
DispersionResult.
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
    """Gauss-Legendre rules of 256 and 512 nodes on [-1, 1] still disagree."""


class NoConvergence(DisperseError):
    """Root iteration exhausted max_iter, stalled (step rejected 20 times),
    or met a zero or non-finite derivative."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class SeedFailure(DisperseError):
    """No initial guess converged at the first point of a sweep."""


class NumericalBlowup(DisperseError):
    """Time integration left the linear regime (density grew by > 1e6)."""


class FitAmbiguous(DisperseError):
    """Recorded density trace holds no single clear damped mode near the guess."""
