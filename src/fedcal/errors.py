"""Exception types and argument checks shared across the package.

The CLI maps every one of these to a nonzero exit status; library callers
can catch them individually.
"""

import numbers
import operator


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


def check_alpha(alpha: float) -> float:
    """``alpha`` as a Python float; a miscoverage level that is not a real
    number, or that lies outside the open interval (0, 1), is refused."""
    alpha = check_real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")
    return alpha


def check_real(value, name: str) -> float:
    """``value`` as a Python float; a value that is not a real number, or is
    a bool, is refused."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_integer(value, name: str) -> int:
    """``value`` as an int; a bool, a float or any other non-integer is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
