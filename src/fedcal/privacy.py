"""The locally private federated calibrator and its quantile mechanism.

Each agent publishes one bin edge drawn from an exponential mechanism whose
utility counts how badly an edge misses the requested quantile of the
agent's discretized scores. The federated calibrator compensates for the
randomness in two ways: it targets a slightly inflated coverage level
(controlled by ``gamma``, which :func:`select_gamma` chooses) and asks agents
for a correspondingly deeper order statistic (the rank correction), so the
final guarantee is the plain 1 - alpha.

The mechanism runs on the whole (m, n) block of bin indices at once:
:func:`_logits` gives every agent's log-weights over the edges, from that
agent's row alone, and :func:`_release` samples one edge per agent by the
Gumbel-max trick. The weights are formed as ``utility / sensitivity``
directly, which stays finite even at the degenerate quantile q = 1 that the
rank correction can produce on small samples (there the weight reduces to
the count of scores above each edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conformal import CalibrationResult, _one_shot_round
from .coverage_table import (
    CoverageTable,
    RankPair,
    TableKey,
    _check_stored,
    _entry,
    _table_for,
    _walk_frontier,
)
from .errors import InfeasibleError, InvalidArgumentError, check_alpha, check_integer, check_real
from .order_stats import _kth_smallest, as_block

__all__ = [
    "BinGrid",
    "DpConfig",
    "DEFAULT_GAMMA_GRID",
    "rank_correction",
    "GammaSelection",
    "select_gamma",
    "fedcp2_qq_calibrate",
]

# 20 log-spaced mixing candidates; the search objective is flat enough that
# a coarse grid suffices. Python floats, so that messages print plain numbers
DEFAULT_GAMMA_GRID: tuple[float, ...] = tuple(np.geomspace(1e-3, 0.5, 20).tolist())


@dataclass(frozen=True)
class BinGrid:
    """Discretization edges 0 = e_0 < e_1 < ... < e_B = s_max.

    Bin b is the half-open interval (e_{b-1}, e_b]; a score is discretized
    to its bin's upper edge. Scores must lie in (0, s_max]: anything larger
    must be clipped by the caller *before* the scores reach the mechanism,
    because silent clipping here would invalidate the privacy accounting.
    """

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        edges = tuple(float(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) < 2:
            raise InvalidArgumentError("a bin grid needs at least two edges")
        if not all(math.isfinite(e) for e in edges):  # NaN passes every order test below
            raise InvalidArgumentError("bin edges must be finite")
        if edges[0] != 0.0:
            raise InvalidArgumentError(f"the first edge must be 0, got {edges[0]}")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise InvalidArgumentError("bin edges must be strictly increasing")
        object.__setattr__(self, "_array", np.array(edges))  # edges for numpy lookups

    @classmethod
    def uniform(cls, s_max: float, bins: int = 100) -> "BinGrid":
        if not (math.isfinite(check_real(s_max, "s_max")) and s_max > 0.0):
            raise InvalidArgumentError(f"s_max must be positive and finite, got {s_max}")
        if check_integer(bins, "bins") < 1:
            raise InvalidArgumentError(f"need at least one bin, got {bins}")
        return cls(edges=tuple(np.linspace(0.0, s_max, bins + 1)))

    @property
    def bins(self) -> int:
        return len(self.edges) - 1

    @property
    def s_max(self) -> float:
        return self.edges[-1]

    def bin_index(self, scores) -> np.ndarray:
        """1-based bin index of each score; rejects NaN and scores outside (0, s_max]."""
        arr = np.asarray(scores, dtype=float)
        if arr.size and not (arr.min() > 0.0 and arr.max() <= self.s_max):
            raise InvalidArgumentError(
                f"scores must lie in (0, {self.s_max}]; clip before calling, "
                f"got range [{np.min(arr)}, {np.max(arr)}]"
            )
        return np.searchsorted(self._array, arr, side="left")

    def discretize(self, scores) -> np.ndarray:
        """Each score replaced by the upper edge of its bin."""
        return self._array[self.bin_index(scores)]


def _check_epsilon(epsilon: float) -> None:
    # NaN fails every comparison, so test for the valid range rather than against it
    if not (math.isfinite(check_real(epsilon, "epsilon")) and epsilon > 0.0):
        raise InvalidArgumentError(f"epsilon must be positive and finite, got {epsilon}")


@dataclass(frozen=True)
class DpConfig:
    """Parameters of the private calibrator.

    ``epsilon`` is the budget each agent's mechanism spends; a caller whose
    secure shuffling or aggregation amplifies privacy passes the amplified
    budget. ``grid`` holds the bins the scores are released on. The mixing
    parameter gamma is not set here: :func:`select_gamma` chooses it.
    """

    epsilon: float
    grid: BinGrid

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)


def _logits(index: np.ndarray, q: float, epsilon: float, bins: int) -> np.ndarray:
    """Log-weights exp(-epsilon * utility / (2 * sensitivity)) of the B edges
    for each row of the (m, n) bin indices ``index``, from that row alone.

    The raw utility is max(#below/q, #above/(1-q)) with sensitivity
    max(1/q, 1/(1-q)); dividing through first avoids the 1/(1-q) blow-up
    near q = 1.
    """
    m, n = index.shape
    # row j counts into slots j*(B+1) + 1 .. j*(B+1) + B, one per bin
    slots = (index + np.arange(m)[:, None] * (bins + 1)).ravel()
    counts = np.bincount(slots, minlength=m * (bins + 1)).reshape(m, bins + 1)[:, 1:]
    at_or_below = np.cumsum(counts, axis=1)
    below = at_or_below - counts  # discretized scores strictly below each edge
    above = n - at_or_below  # strictly above each edge
    scale = -0.5 * epsilon
    if q >= 0.5:
        return scale * np.maximum(below * ((1.0 - q) / q), above)
    return scale * np.maximum(below, above * (q / (1.0 - q)))


def _release(index: np.ndarray, q: float, epsilon: float, grid: BinGrid, streams) -> np.ndarray:
    """The edge drawn for each row of bin indices ``index``, row j's noise from ``streams[j]``."""
    bins = grid.bins
    noise = np.empty((len(streams), bins))
    for j, stream in enumerate(streams):
        noise[j] = stream.gumbel(size=bins)
    noise += _logits(index, q, epsilon, bins)
    return grid._array[np.argmax(noise, axis=1) + 1]


def rank_correction(epsilon: float, bins: int, agents: int, gamma_alpha: float) -> int:
    """Extra order-statistic depth compensating the mechanism's downward slack.

    ceil((2/epsilon) * log(bins / (1 - (1 - gamma_alpha)^(1/agents)))); always
    at least 1 for finite inputs, decreasing in epsilon and increasing in the
    bin count.
    """
    _check_epsilon(epsilon)
    if min(check_integer(bins, "bins"), check_integer(agents, "agents")) < 1:
        raise InvalidArgumentError("bins and agents must both be >= 1")
    if not 0.0 < check_real(gamma_alpha, "gamma*alpha") < 1.0:
        raise InvalidArgumentError(f"gamma*alpha must be in (0, 1), got {gamma_alpha}")
    # 1 - (1-x)^(1/m) via expm1/log1p keeps precision for tiny gamma_alpha
    tail = -math.expm1(math.log1p(-gamma_alpha) / agents)
    if tail == 0.0:
        raise InvalidArgumentError(
            f"gamma*alpha = {gamma_alpha} is too small for {agents} agents: "
            "the correction would be infinite"
        )
    return math.ceil((2.0 / epsilon) * math.log(bins / tail))


@dataclass(frozen=True)
class GammaSelection:
    gamma: float
    local_rank: int
    server_rank: int
    correction: int
    corrected_coverage: float


def select_gamma(
    key: TableKey,
    alpha: float,
    epsilon: float,
    bins: int,
    *,
    table: CoverageTable | None = None,
) -> GammaSelection:
    """Grid search of ``DEFAULT_GAMMA_GRID`` for the mixing parameter of the
    private calibrator.

    For each candidate gamma the rank pair is selected at the inflated level
    (1 - alpha) / (1 - gamma * alpha) and the corrected local rank must still
    fit inside n. Among feasible candidates the one whose corrected-rank
    coverage is smallest wins (that coverage measures how much the
    compensation overshoots); ties go to the smaller gamma. Every coverage
    is read through ``table`` (a fresh one when none is given), which stores
    each corrected entry for the next search; every call searches the whole
    grid again. Each candidate's walk trusts the table; the winner's rank
    pair, on which the guarantee rests, is then recomputed as in
    :func:`fedcal.coverage_table.select_ranks`.

    Raises
    ------
    InfeasibleError
        If no candidate is feasible; the message names why the largest
        candidate failed.
    InvalidArgumentError
        If ``epsilon`` is not positive and finite or ``bins`` is below 1,
        both checked before any search, or if the winner's entry in
        ``table`` differs from its recomputed value.
    """
    alpha = check_alpha(alpha)
    _check_epsilon(epsilon)
    if check_integer(bins, "bins") < 1:
        raise InvalidArgumentError(f"need at least one bin, got {bins}")
    table = _table_for(table, key.m, key.n)
    best: GammaSelection | None = None
    reason = ""  # why the latest, so largest, candidate failed
    for gamma in DEFAULT_GAMMA_GRID:
        alpha_eff = 1.0 - (1.0 - alpha) / (1.0 - gamma * alpha)
        if alpha_eff <= 0.0:
            reason = "it leaves no attainable level"
            continue
        try:
            ranks, _ = _walk_frontier(table, alpha_eff)
        except InfeasibleError as exc:
            reason = str(exc)
            continue
        correction = rank_correction(epsilon, bins, key.m, gamma * alpha)
        total = ranks.local_rank + correction
        if total > key.n:
            reason = (
                f"corrected local rank {total} exceeds n = {key.n}; "
                f"n is too small for epsilon = {epsilon} with {bins} bins"
            )
            continue
        corrected = _entry(table, total, ranks.server_rank)
        if best is None or corrected < best.corrected_coverage:  # the grid ascends
            best = GammaSelection(
                float(gamma), ranks.local_rank, ranks.server_rank, correction, corrected
            )
    if best is None:
        raise InfeasibleError(
            f"no feasible gamma among {len(DEFAULT_GAMMA_GRID)} candidate(s); "
            f"gamma = {DEFAULT_GAMMA_GRID[-1]:g} fails because {reason}"
        )
    _check_stored(table, RankPair(best.local_rank, best.server_rank))
    return best


def fedcp2_qq_calibrate(
    scores: Sequence[Sequence[float]],
    alpha: float,
    config: DpConfig,
    rng: np.random.Generator,
    *,
    table: CoverageTable | None = None,
) -> CalibrationResult:
    """Private one-shot federated calibration.

    Every agent invokes the private quantile mechanism exactly once at level
    q = max((local_rank + correction) / n, 1/2) and sends the resulting bin
    edge; the server returns the server_rank-th smallest of the m edges.
    Agent j's noise comes from the j-th generator of ``rng.spawn(m)``,
    spawned once per call after the inputs are checked and gamma is chosen,
    so a seeded generator reproduces the whole run. The simulator binds the
    method once per experiment (see :data:`fedcal.federation.METHODS`), so
    gamma is chosen once, and seeds the same streams in bulk: in
    replication r, agent j's noise comes from ``substream(seed, r, m + 1,
    j)``, the j-th child of ``substream(seed, r, m + 1)``. Gamma and the
    ranks come from :func:`select_gamma`. The reported guarantee is
    1 - alpha.
    """
    return _bind_private(alpha, config, table)(scores, rng.spawn)


def _bind_private(alpha: float, config: DpConfig, table: CoverageTable | None):
    """:func:`fedcp2_qq_calibrate` at ``alpha`` as ``calibrate(scores,
    spawn)``, where ``spawn(m)`` gives the agents' m streams and is called
    once per call, after the checks and the gamma choice. Gamma is chosen
    at the first call of a shape and kept for later calls of that shape."""
    alpha = check_alpha(alpha)
    chosen: dict[tuple[int, int], GammaSelection] = {}

    def calibrate(scores: Sequence[Sequence[float]], spawn) -> CalibrationResult:
        binned = config.grid.bin_index(as_block(scores))  # checks the range before any search
        m, n = binned.shape
        if (m, n) not in chosen:
            chosen[m, n] = select_gamma(
                TableKey(m, n), alpha, config.epsilon, config.grid.bins, table=table
            )
        selection = chosen[m, n]
        q = max((selection.local_rank + selection.correction) / n, 0.5)
        k = selection.server_rank
        streams = spawn(m)
        q_hat, transcript = _one_shot_round(
            binned,
            dict(quantile=q, epsilon=config.epsilon, edges=config.grid.edges, server_rank=k),
            lambda binned: _release(binned, q, config.epsilon, config.grid, streams),
            lambda sent: _kth_smallest(sent, k),
        )
        return CalibrationResult(
            q_hat=q_hat,
            method="fedcp2_qq",
            guaranteed_coverage=1.0 - alpha,
            params=dict(
                m=m, n=n, alpha=alpha, epsilon=config.epsilon,
                bins=config.grid.bins, s_max=config.grid.s_max, gamma=selection.gamma,
                local_rank=selection.local_rank, server_rank=selection.server_rank,
                correction=selection.correction, quantile=q,
                corrected_coverage=selection.corrected_coverage,
            ),
            transcript=transcript,
        )

    return calibrate
