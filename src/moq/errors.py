"""Exception types shared across the package."""

__all__ = [
    "MoqError", "NonPositiveParameter", "LengthMismatch", "DomainError", "ConditionViolated",
    "Nonconvergence", "ToleranceNotMet", "EnvelopeViolation", "SpecError",
]


class MoqError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(MoqError):
    """A parameter that must be strictly positive is zero, negative, or non-finite."""


class LengthMismatch(MoqError):
    """A parameter list does not have the declared length."""


class DomainError(MoqError):
    """An argument lies outside the domain of the requested operation."""


class ConditionViolated(MoqError):
    """A parameter-regime condition required by the requested operation fails."""


class Nonconvergence(MoqError):
    """An iterative computation hit its term or iteration budget before converging."""


class ToleranceNotMet(MoqError):
    """Quadrature exhausted its refinement budget above the requested tolerance."""


class EnvelopeViolation(MoqError):
    """An accept-reject ratio exceeded one: the dominating constant is wrong."""


class SpecError(MoqError):
    """A distribution spec file failed to parse or validate."""
