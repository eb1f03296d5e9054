"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "TieRuleRequiredError",
    "UnattainableTargetError",
    "InfeasibleCovarianceError",
    "NotConvergedError",
    "IntegrationFailureError",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class TieRuleRequiredError(DomainError):
    """A strict majority is undefined for even group sizes without a tie rule."""


class UnattainableTargetError(DomainError):
    """The requested group competence exceeds what the profile can reach."""


class InfeasibleCovarianceError(DomainError):
    """The requested covariances cannot be realized by any vote distribution."""


class NotConvergedError(RuntimeError):
    """A trajectory has not settled enough for its outcome to be classified."""


class IntegrationFailureError(RuntimeError):
    """Numerical integration produced a non-finite state."""
