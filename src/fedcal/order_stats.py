"""Order-statistic primitives shared by every calibration method.

The agents' scores are validated once, as an (m, n) block (:func:`as_block`),
and every k-th smallest in the package is taken by one kernel. Ranks are
1-based throughout: ``order_statistic(sample, 1)`` is the minimum. A rank
past the end of a sample yields ``math.inf``, the out-of-range sentinel
that compares greater than every finite score. All functions are pure and
never mutate their inputs, so they are safe to call concurrently.
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
    "order_statistic",
    "quantile_of_quantiles",
]


def as_sample(values: Sequence[float] | np.ndarray, *, allow_empty: bool = True) -> np.ndarray:
    """Validate a score sample: a 1-d array of finite reals."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"score sample must be one-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise InvalidArgumentError("score sample must not be empty")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidArgumentError("score sample contains NaN or infinite entries")
    return arr


def _samples(agents: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """Each agent's validated, nonempty sample; there must be at least one."""
    if len(agents) == 0:
        raise InvalidArgumentError("a score matrix needs at least one agent")
    return [as_sample(a, allow_empty=False) for a in agents]


def as_block(agents: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """The agents' scores as one (m, n) float64 array, row j agent j's.

    Needs m >= 1 agents holding the same n >= 1 finite scores each. A 2-d
    input is checked in one pass; anything else agent by agent, so that the
    error names what is wrong.
    """
    try:
        block = np.asarray(agents, dtype=float)
    except ValueError:  # numpy refuses rows of unequal shapes
        block = None
    if block is None or block.ndim != 2 or block.size == 0:
        sizes = sorted({a.size for a in _samples(agents)})  # raises on a bad agent
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


def order_statistic(sample: Sequence[float] | np.ndarray, rank: int) -> float:
    """The ``rank``-th smallest value of ``sample``, or ``inf`` past the end.

    Duplicates occupy distinct ranks; the cost is linear in the sample size.
    """
    if check_integer(rank, "rank") < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {rank}")
    return float(_kth_smallest(as_sample(sample), rank))


def quantile_of_quantiles(
    agents: Sequence[Sequence[float]],
    local_rank: int,
    server_rank: int,
) -> float:
    """Two-level order statistic over per-agent samples of any sizes.

    Each agent contributes its ``local_rank``-th smallest score (``inf`` when
    the rank exceeds its sample size), and the result is the
    ``server_rank``-th smallest of those m contributions, so ``server_rank``
    must be <= m. The result is a score held by some agent, or ``inf`` when
    enough agents overflow.
    """
    samples = _samples(agents)
    m = len(samples)
    if check_integer(local_rank, "local rank") < 1:
        raise InvalidArgumentError(f"local rank must be >= 1, got {local_rank}")
    if not 1 <= check_integer(server_rank, "server rank") <= m:
        raise InvalidArgumentError(f"server rank must be in [1, {m}], got {server_rank}")
    # short agents are padded with the sentinel, which a rank past their end selects
    sizes = np.array([a.size for a in samples])
    block = np.full((m, sizes.max()), math.inf)
    block[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(samples)
    return float(_kth_smallest(_kth_smallest(block, local_rank), server_rank))
