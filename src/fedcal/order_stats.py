"""Order-statistic primitives shared by every calibration method.

The agents' scores are validated once, as an (m, n) block (:func:`as_block`),
and every k-th smallest in the package is taken by one kernel,
:func:`_kth_smallest`. Ranks are 1-based throughout: rank 1 is the minimum.
A rank past the end of a sample yields ``math.inf``, the out-of-range
sentinel that compares greater than every finite score. All functions are
pure and never mutate their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, check_alpha, check_integer

__all__ = [
    "as_sample",
    "as_block",
    "split_rank",
    "quantile_of_quantiles",
]


def _as_float(values) -> np.ndarray:
    """``values`` as a float64 array. numpy reads a complex array as its real
    part with only a warning, so this raises TypeError for one, as numpy
    does for a complex Python number."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise TypeError(f"dtype {arr.dtype} is not real")
    return arr if arr.dtype == np.float64 else np.asarray(values, dtype=float)


def as_sample(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a score sample: a nonempty 1-d array of finite reals."""
    try:
        arr = _as_float(values)
    except (TypeError, ValueError) as exc:  # a string or complex number numpy cannot read
        raise InvalidArgumentError(f"score sample must hold real numbers ({exc})") from None
    if arr.ndim != 1:
        raise InvalidArgumentError(f"score sample must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidArgumentError("score sample must not be empty")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("score sample contains NaN or infinite entries")
    return arr


def as_block(agents: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """The agents' scores as one (m, n) float64 array, row j agent j's.

    Needs m >= 1 agents holding the same n >= 1 finite scores each. A 2-d
    input is checked in one pass; anything else agent by agent, so that the
    error names what is wrong.
    """
    try:
        block = _as_float(agents)
    except (TypeError, ValueError):  # unequal rows, or a score that is not a real
        block = None
    if block is None or block.ndim != 2 or block.size == 0:
        try:
            count = len(agents)
        except TypeError:
            raise InvalidArgumentError(
                f"scores must be a sequence of agents, got {type(agents).__name__}"
            ) from None
        if count == 0:
            raise InvalidArgumentError("a score matrix needs at least one agent")
        sizes = sorted({as_sample(a).size for a in agents})  # raises on a bad agent
        raise InvalidArgumentError(f"balanced score matrix required, got local sizes {sizes}")
    if not np.isfinite(block).all():
        raise InvalidArgumentError("score sample contains NaN or infinite entries")
    return block


def split_rank(n: int, alpha: float) -> int:
    """Order-statistic rank ceil((n + 1) * (1 - alpha)) used by split calibration.

    The smallest r with r / (n + 1) >= 1 - alpha, computed in exact rationals
    from the float alpha: rounding (n + 1) * (1.0 - alpha) in floats can land
    one rank off either way, as at (n, alpha) = (9, 0.3) and (299, 0.19).
    n = 0 gives rank 1, past the end of the empty sample.
    """
    if check_integer(n, "n") < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    return math.ceil((n + 1) * (1 - Fraction(check_alpha(alpha))))


def _kth_smallest(values: np.ndarray, rank: int) -> np.ndarray:
    """The ``rank``-th smallest (``rank >= 1``) along the last axis of
    ``values`` by a partial sort, or ``inf`` past the end of the axis."""
    if rank > values.shape[-1]:
        return np.full(values.shape[:-1], math.inf)
    return np.partition(values, rank - 1, axis=-1)[..., rank - 1]


def quantile_of_quantiles(
    agents: Sequence[Sequence[float]] | np.ndarray,
    local_rank: int,
    server_rank: int,
) -> float:
    """The paper's two-level order statistic over a balanced (m, n) block.

    Each agent contributes its ``local_rank``-th smallest score, and the
    result is the ``server_rank``-th smallest of those m contributions, so
    ``server_rank`` must be <= m. This is the reduction the ``fedcp_qq``
    round performs. The result is a score held by some agent, or ``inf``
    when ``local_rank`` exceeds n.
    """
    block = as_block(agents)
    if check_integer(local_rank, "local rank") < 1:
        raise InvalidArgumentError(f"local rank must be >= 1, got {local_rank}")
    if not 1 <= check_integer(server_rank, "server rank") <= len(block):
        raise InvalidArgumentError(
            f"server rank must be in [1, {len(block)}], got {server_rank}"
        )
    return float(_kth_smallest(_kth_smallest(block, local_rank), server_rank))
