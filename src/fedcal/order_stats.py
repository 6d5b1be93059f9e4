"""Order-statistic primitives shared by every calibration method.

Ranks are 1-based throughout: ``order_statistic(sample, 1)`` is the minimum.
A rank past the end of a sample yields ``math.inf``, the out-of-range
sentinel that compares greater than every finite score. All functions are
pure and never mutate their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "as_sample",
    "as_matrix",
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
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("score sample contains NaN or infinite entries")
    return arr


def as_matrix(agents: Sequence[Sequence[float]], *, balanced: bool = False) -> list[np.ndarray]:
    """Validate per-agent score samples (at least one agent, each nonempty)."""
    if len(agents) == 0:
        raise InvalidArgumentError("a score matrix needs at least one agent")
    out = [as_sample(a, allow_empty=False) for a in agents]
    if balanced:
        sizes = {a.size for a in out}
        if len(sizes) != 1:
            raise InvalidArgumentError(f"balanced score matrix required, got local sizes {sorted(sizes)}")
    return out


def order_statistic(sample: Sequence[float] | np.ndarray, rank: int) -> float:
    """The ``rank``-th smallest value of ``sample``, or ``inf`` past the end.

    Duplicates occupy distinct ranks (multiset semantics). Selection uses a
    partial sort, so the cost is linear in the sample size.
    """
    if rank < 1:
        raise InvalidArgumentError(f"rank must be >= 1, got {rank}")
    arr = as_sample(sample)
    if rank > arr.size:
        return math.inf
    return float(np.partition(arr, rank - 1)[rank - 1])


def quantile_of_quantiles(
    agents: Sequence[Sequence[float]],
    local_rank: int,
    server_rank: int,
) -> float:
    """Two-level order statistic over a decentralized score matrix.

    Each agent contributes its ``local_rank``-th smallest score (``inf`` when
    the rank exceeds its sample size), and the result is the
    ``server_rank``-th smallest of those m contributions.

    Parameters
    ----------
    agents : sequence of per-agent score samples
    local_rank : 1-based rank applied within each agent
    server_rank : 1-based rank applied across agents; must be <= m so that
        the aggregate always exists

    Returns
    -------
    float
        A score held by some agent, or ``inf`` when enough agents overflow.
    """
    validated = as_matrix(agents)
    m = len(validated)
    if local_rank < 1:
        raise InvalidArgumentError(f"local rank must be >= 1, got {local_rank}")
    if not 1 <= server_rank <= m:
        raise InvalidArgumentError(f"server rank must be in [1, {m}], got {server_rank}")
    local = np.array([order_statistic(a, local_rank) for a in validated])
    return float(np.partition(local, server_rank - 1)[server_rank - 1])
