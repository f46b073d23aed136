"""Exception types raised by the library.

Every domain-specific failure derives from :class:`HS2Error` so callers can
catch the whole family at once.  Precondition violations that have a natural
builtin analogue also derive from ``ValueError``.
"""


class HS2Error(Exception):
    """Base class for all library-specific errors."""


class ConfigError(HS2Error, ValueError):
    """Malformed configuration: a bad flag, config file line or input file."""


class GridMismatchError(HS2Error, ValueError):
    """Operands that must share one grid live on grids of different sizes."""


class NonZeroMeanError(HS2Error, ValueError):
    """Input to the inverse Laplacian has a mean above tolerance."""


class NotMonotoneError(HS2Error, ValueError):
    """A circle map expected to be an increasing diffeomorphism is not."""


class NotUnitNormError(HS2Error, ValueError):
    """A sphere point is too far from unit L2 norm to be renormalized."""


class NotTangentError(HS2Error, ValueError):
    """A vector fails the tangency condition at its base point."""


class VanishingModulusError(HS2Error, ValueError):
    """A complex function that must be nowhere zero has a near-zero value."""


class UnwrapAmbiguityError(HS2Error, ValueError):
    """Adjacent-node phase jump exceeds pi/2; unwrapping is ill-posed."""


class ZeroTangentError(HS2Error, ValueError):
    """Exponential map called on a (numerically) zero tangent vector."""


class AntipodalOrIdentityError(HS2Error, ValueError):
    """A log map has no unique preimage: at +-1 on the sphere, which the
    isometry Phi maps (id, 0) and (id, 2pi) of the group to."""


class ZeroDataError(HS2Error, ValueError):
    """Initial data with zero energy defines no geodesic."""


class NonFiniteDataError(HS2Error, ValueError):
    """Initial data whose energy is not finite (overflow or NaN samples)."""


class BeyondBlowupError(HS2Error, ValueError):
    """Evaluation time at or past the maximal existence time."""


class StepBlowupError(HS2Error, RuntimeError):
    """Time stepping halted because the solution gradient exploded.

    Carries the partial trajectory and the last stable time so callers can
    inspect the run up to the halt.
    """

    def __init__(self, message, trajectory, halt_time):
        super().__init__(message)
        self.trajectory = trajectory
        self.halt_time = halt_time


class DegeneratePlaneError(HS2Error, ValueError):
    """Sectional curvature requested for linearly dependent vectors."""


class ZeroAtBasePointError(HS2Error, ValueError):
    """Projective canonicalization needs f(0) != 0."""


class BaseMismatchError(HS2Error, ValueError):
    """Two tangent vectors expected at the same base point are not."""
