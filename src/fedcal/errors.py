"""Exception types shared across the package.

The CLI maps every one of these to a nonzero exit status; library callers
can catch them individually.
"""


class FedcalError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(FedcalError, ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(FedcalError):
    """A guarded computation would exceed its configured size cap."""


class InfeasibleError(FedcalError):
    """No parameter choice satisfies the requested coverage constraint."""


class InternalError(FedcalError):
    """A numeric invariant failed mid-computation; results were discarded."""


class ProtocolViolationError(FedcalError):
    """A simulated protocol run broke the one-message-per-agent rule."""


def check_alpha(alpha: float) -> None:
    """Reject a miscoverage level outside the open interval (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")
