"""Exception types shared across the package."""


class MTCoverError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MTCoverError):
    """Operands live on tori of different dimensions."""


class SingularJacobian(MTCoverError):
    """A Jacobian needed for an implicit inverse is numerically singular."""


class NoConvergence(MTCoverError):
    """Newton iteration failed to reach the requested tolerance."""


class NotDiffeotopy(MTCoverError):
    """A candidate isotopy has a slice that is not a diffeomorphism."""


class EndpointMismatch(MTCoverError):
    """Isotopy endpoints do not match the required maps."""


class UnsupportedForm(MTCoverError):
    """Operation requires a map of a different structural form."""


class NonIntegral(MTCoverError):
    """A quantity that must be an integer matrix deviates beyond tolerance."""


class MissingPreimage(MTCoverError):
    """Fewer distinct preimages found than the covering degree requires."""


class DuplicatePreimage(MTCoverError):
    """Two refined preimage candidates collapsed to the same point."""


class FinslerDegenerate(MTCoverError):
    """The Finsler constant is not usable (zero, negative, or non-finite)."""


class NotExpanding(MTCoverError):
    """The adapted-metric construction found no expansion factor above 1."""


class BoundViolation(MTCoverError):
    """A measured quantity fell below a lower bound it must respect."""


class NonFiniteSlice(MTCoverError):
    """A parameter slice of a sweep gave a non-finite value or failed to factor."""


class UnboundedSelection(MTCoverError):
    """Parameter search exceeded its configured cap."""


class ConfigError(MTCoverError):
    """Run configuration is malformed or inconsistent."""
