"""Exact coverage probabilities for the quantile-of-quantiles estimator.

For m agents holding n i.i.d. continuous scores each, the prediction set
built from the (local_rank, server_rank) quantile-of-quantiles covers a
fresh test point with a probability that depends on (m, n, local_rank,
server_rank) only. This module evaluates that probability exactly, selects
the rank pair whose coverage is the smallest one still above a requested
level, and handles agents with unequal sample sizes.

``coverage_probability`` evaluates the one-dimensional order-statistic
integral

    coverage(l, k) = 1 - integral over [0, 1] of I_{G(t)}(k, m - k + 1) dt,
    G(t) = I_t(l, n - l + 1),

where I is the regularized incomplete beta function: G(t) is the chance
that an agent's l-th smallest score falls below t, and the integrand the
chance that at least k agents' do, i.e. that the threshold falls below t.
The integrand is a polynomial of degree m*n in t, so Gauss-Legendre
quadrature with m*n/2 + 2 nodes integrates it exactly up to rounding (a few
units in the last place). Unequal sample sizes use the same integral with
one G_j per agent and a Poisson-Binomial count of covered agents. Where a
comparison with the level 1 - alpha is closer than that rounding can
decide, the coverage, a rational number, is settled exactly. Coverage is
nondecreasing in both ranks, which the rank search exploits so that only a
thin frontier of (local_rank, server_rank) entries is ever evaluated.

The same integrand is the exact law of the coverage given the calibration
set; ``conditional_miscoverage_quantile`` inverts it for the
training-conditional guarantee.

Tables are distribution-free, so they are cached keyed by (m, n) alone and
can be persisted to a small text file and reused across runs.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc, betaincinv

from .errors import (
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    ResourceLimitError,
    check_alpha,
)
from .order_stats import split_rank

__all__ = [
    "TableKey",
    "RankPair",
    "CoverageTable",
    "coverage_column",
    "coverage_probability",
    "unbalanced_coverage",
    "select_ranks",
    "select_ranks_unbalanced",
    "unbalanced_local_ranks",
    "conditional_miscoverage_quantile",
    "save_table",
    "load_table",
]

# m*n at most this: exact arithmetic and the quadrature rules stay tractable
CELL_CAP = 10**6

# stored entries are within rounding of the exact coverage, which is
# nondecreasing in both ranks
MONOTONE_TOL = 1e-12

CACHE_FORMAT_NAME = "fedcal-coverage-table"
CACHE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TableKey:
    """Problem size: m agents, n calibration scores per agent.

    Requires m, n >= 1 and m*n <= ``CELL_CAP``.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise InvalidArgumentError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if self.m * self.n > CELL_CAP:
            raise ResourceLimitError(
                f"m*n = {self.m * self.n} exceeds the exact-arithmetic cap {CELL_CAP}"
            )


@dataclass(frozen=True)
class RankPair:
    """A (local_rank, server_rank) index into a coverage table."""

    local_rank: int
    server_rank: int

    def validate(self, key: TableKey) -> None:
        if not 1 <= self.local_rank <= key.n:
            raise InvalidArgumentError(
                f"local rank must be in [1, {key.n}], got {self.local_rank}"
            )
        if not 1 <= self.server_rank <= key.m:
            raise InvalidArgumentError(
                f"server rank must be in [1, {key.m}], got {self.server_rank}"
            )


@dataclass
class CoverageTable:
    """Lazily filled map (local_rank, server_rank) -> coverage for one (m, n).

    Holds only the entries a search has read (about n + m of the m*n);
    they are level-independent, so one table serves every alpha. The rank
    and gamma searches keep their answers on the table (see
    :func:`_memoised`); those are neither compared nor saved.
    """

    key: TableKey
    entries: dict[tuple[int, int], float] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def validate(self) -> None:
        """Check every entry's ranks, its range [0, 1], and monotonicity in
        both ranks up to ``MONOTONE_TOL`` against its stored neighbours."""
        m, n, entries = self.key.m, self.key.n, self.entries
        for (l, k), value in entries.items():
            if not (1 <= l <= n and 1 <= k <= m):
                RankPair(l, k).validate(self.key)
            if not 0.0 <= value <= 1.0:
                raise InternalError(f"entry ({l}, {k}) = {value} outside [0, 1]")
            floor = value - MONOTONE_TOL
            for nbr, other in (((l + 1, k), "local"), ((l, k + 1), "server")):
                above = entries.get(nbr)
                if above is not None and above < floor:
                    raise InternalError(
                        f"coverage not nondecreasing in {other} rank at ({l}, {k})"
                    )


# ---------------------------------------------------------------------------
# production path: Gauss-Legendre quadrature of the order-statistic integral
# ---------------------------------------------------------------------------

# A comparison with 1 - alpha closer than this margin is settled exactly.
# Against exact rationals the quadrature erred by at most 4.8e-16 on the
# shapes measured, up to (m, n) = (200, 200), (1, 10^5) and (10^5, 1);
# _legendre_rule refuses a rule whose moment error exceeds half the margin.
LEVEL_MARGIN = 1e-11


@lru_cache(maxsize=8)
def _legendre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only.

    Newton's method on the three-term recurrence, from Tricomi's estimate
    of the roots x >= 0 of P_count, mirrored; O(count^2) vectorised flops.
    A last pass takes P' at the converged roots, because the weights
    1 / ((1 - x^2) P'(x)^2) are sensitive to it near the ends.
    """
    theta = np.pi * (np.arange(1, (count + 1) // 2 + 1) - 0.25) / (count + 0.5)
    x = np.cos(theta) * (1.0 - (count - 1) / (8.0 * count**3))
    step = np.inf
    for _ in range(10):
        previous, p = np.ones_like(x), x
        for j in range(1, count):
            previous, p = p, ((2 * j + 1) * x * p - j * previous) / (j + 1)
        slope = count * (previous - x * p) / ((1.0 - x) * (1.0 + x))  # P'(x)
        if step <= 1e-13:  # Newton converges quadratically: x is exact to rounding
            break
        step = float(np.abs(p / slope).max())
        x = x - p / slope
    w = 1.0 / ((1.0 - x) * (1.0 + x) * slope**2)
    t = np.concatenate([(1.0 - x) / 2.0, ((1.0 + x) / 2.0)[::-1][count % 2 :]])
    w = np.concatenate([w, w[::-1][count % 2 :]])
    moments = [j for j in (0, 1, 2, 5, 50, 500) if j < 2 * count]  # integrated exactly
    error = max(abs(w @ t**j - 1.0 / (j + 1)) for j in moments)
    if error > LEVEL_MARGIN / 2:
        raise InternalError(f"{count}-node Gauss-Legendre rule errs by {error:.2g}")
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _rule_for(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """A rule exact for polynomials of ``degree``: the smallest power of two
    >= degree // 2 + 2 nodes, so that a few cached rules serve every shape
    (building one costs time quadratic in its size)."""
    return _legendre_rule(1 << (degree // 2 + 1).bit_length())


@lru_cache(maxsize=4)
def _local_cdf(n: int, local_rank: int, count: int) -> np.ndarray:
    """G(t) = P(local order statistic <= t) at the nodes of a ``count`` rule."""
    g = betainc(local_rank, n - local_rank + 1, _legendre_rule(count)[0])
    g.flags.writeable = False
    return g


def _quadrature(m: int, n: int, local_rank: int, server_rank):
    """Coverage at one local rank for a server rank (a float) or a column of
    them (an array).

    Each server rank reduces its own row of nodes, so an entry evaluated
    alone is bit-identical to the same entry of a column.
    """
    t, w = _rule_for(m * n)
    g = _local_cdf(n, local_rank, t.size)
    k = server_rank
    coverage = 1.0 - (betainc(k, m - k + 1, g) * w).sum(axis=-1)
    if np.ndim(coverage) == 0:  # one entry: check and clip it as a float
        coverage = float(coverage)
        if coverage < -1e-9 or coverage > 1.0 + 1e-9:
            raise InternalError(f"coverage left [0, 1] for m={m}, n={n}, l={local_rank}")
        return min(max(coverage, 0.0), 1.0)
    if np.any(coverage < -1e-9) or np.any(coverage > 1.0 + 1e-9):
        raise InternalError(f"coverage left [0, 1] for m={m}, n={n}, l={local_rank}")
    return np.clip(coverage, 0.0, 1.0)


@lru_cache(maxsize=4096)
def _entry_engine(m: int, n: int, local_rank: int, server_rank: int) -> float:
    """One coverage entry, memoised for the process."""
    return _quadrature(m, n, local_rank, server_rank)


@lru_cache(maxsize=256)
def _settled(
    sizes: tuple[int, ...], local_ranks: tuple[int, ...], server_rank: int
) -> Fraction:
    """Exact coverage at ``server_rank``, as a rational.

    Agents whose local rank exceeds their size are never covered and drop
    out. When the remaining m agents share one (n, l), closed forms cover
    the shapes where exact ties are systematic: l / (n + 1) for a single
    agent, and :func:`_max_report_exact` for l = n (n = 1 included) and,
    mirrored, for l = 1. Otherwise the miss integral is
    sum_r Q[r] r! (T-r)! / (T+1)! over the integer coefficients Q of
    :func:`_miss_polynomial`, summed in integers.
    """
    agents = [(n, l) for n, l in zip(sizes, local_ranks) if l <= n]
    m, k = len(agents), server_rank
    if k > m:
        return Fraction(1)
    if len(set(agents)) == 1:
        n, l = agents[0]
        if m == 1:
            return Fraction(l, n + 1)
        if l == n:
            return _max_report_exact(m, n, k)
        if l == 1:
            return 1 - _max_report_exact(m, n, m - k + 1)
    total = sum(n for n, _ in agents)
    weight, numerator = math.factorial(total), 0  # weight = r! (T-r)!
    for r, coefficient in enumerate(_miss_polynomial(agents, k)):
        numerator += coefficient * weight
        if r < total:
            weight = weight * (r + 1) // (total - r)
    return 1 - Fraction(numerator, math.factorial(total + 1))


def _max_report_exact(m: int, n: int, k: int) -> Fraction:
    """Exact coverage when every agent reports its maximum (local rank n):
    prod_{i=k}^{m} n i / (n i + 1)."""
    coverage = Fraction(1)
    for i in range(k, m + 1):
        coverage *= Fraction(n * i, n * i + 1)
    return coverage


def _miss_polynomial(agents: list[tuple[int, int]], k: int) -> list[int]:
    """P(at least k agents covered) in the basis t^r (1-t)^(T-r), T = sum of sizes.

    ``agents`` holds (n_j, l_j) pairs with l_j <= n_j. In that basis G_j
    has the integer coefficients C(n_j, i) for i >= l_j and 1 - G_j those
    for i < l_j, and polynomials multiply by convolving their
    coefficients. Agents are added one at a time, tracking "j agents
    covered so far" for j < k and "at least k" together; states from which
    k is out of reach are dropped. The cost grows as
    m * min(k, m - k + 1) * T * max(n_j) big-integer operations.
    """
    m = len(agents)
    state = {0: np.array([1], dtype=object)}
    for a, (n_a, l_a) in enumerate(agents):
        coeffs = [1]  # C(n_a, i) by the ratio recurrence
        for i in range(n_a):
            coeffs.append(coeffs[-1] * (n_a - i) // (i + 1))
        zeros = [0] * (n_a + 1)
        branches = [
            (0, np.array(coeffs[:l_a] + zeros[l_a:], dtype=object)),
            (1, np.array(zeros[:l_a] + coeffs[l_a:], dtype=object)),
        ]
        new = {}
        for j, poly in state.items():
            for step, part in branches:
                to = min(j + step, k)
                if to + m - a - 1 >= k:
                    product = np.convolve(poly, part)
                    new[to] = new[to] + product if to in new else product
        state = new
    return state[k].tolist()


def _meets_level(value: float, alpha: float, settle) -> tuple[bool, float]:
    """Whether coverage ``value`` reaches 1 - alpha, and the value to keep.

    A value more than LEVEL_MARGIN from the level is decided as it is;
    otherwise ``settle()`` gives the exact coverage, which is compared with
    1 - alpha exactly and kept correctly rounded.
    """
    target = 1.0 - alpha
    if abs(value - target) > LEVEL_MARGIN:
        return value >= target, value
    exact = settle()
    return exact >= 1 - Fraction(alpha), float(exact)


def _table_for(table: CoverageTable | None, m: int, n: int) -> CoverageTable:
    """``table`` once checked to hold (m, n), or a fresh table for (m, n)."""
    if table is None:
        return CoverageTable(key=TableKey(m, n))
    if (table.key.m, table.key.n) != (m, n):
        raise InvalidArgumentError(
            f"table is for (m={table.key.m}, n={table.key.n}), not for (m={m}, n={n})"
        )
    return table


def _entry(table: CoverageTable, local_rank: int, server_rank: int) -> float:
    """Coverage at (local_rank, server_rank), read from ``table``.

    An entry the table lacks comes from the engine and is stored, so every
    later reader of the table finds it.
    """
    value = table.entries.get((local_rank, server_rank))
    if value is None:
        value = _entry_engine(table.key.m, table.key.n, local_rank, server_rank)
        table.entries[(local_rank, server_rank)] = value
    return value


def _reaches(table: CoverageTable, local_rank: int, server_rank: int, alpha: float) -> bool:
    """Whether the entry reaches 1 - alpha; a settled entry is stored exact."""
    m, n = table.key.m, table.key.n
    reached, value = _meets_level(
        _entry(table, local_rank, server_rank),
        alpha,
        lambda: _settled((n,) * m, (local_rank,) * m, server_rank),
    )
    table.entries[(local_rank, server_rank)] = value
    return reached


def coverage_column(key: TableKey, local_rank: int) -> np.ndarray:
    """Coverage at ``local_rank`` for every server rank 1..m.

    Quadrature values, never settled (see :func:`coverage_probability`).
    Server ranks are evaluated in blocks of at most 2^22 ``betainc`` values
    (32 MiB), so memory stays bounded at any shape.
    """
    RankPair(local_rank, 1).validate(key)
    ranks = np.arange(1, key.m + 1)[:, None]
    rows = max(1, (1 << 22) // _rule_for(key.m * key.n)[0].size)
    return np.concatenate(
        [
            _quadrature(key.m, key.n, local_rank, ranks[start : start + rows])
            for start in range(0, key.m, rows)
        ]
    )


def coverage_probability(key: TableKey, ranks: RankPair) -> float:
    """Coverage of the quantile-of-quantiles set at ``ranks``.

    The quadrature value, a few units in the last place from the exact
    coverage. This function compares with no level, so it never settles:
    where the rank search settled an entry against 1 - alpha it reports
    (and stores) the exact value correctly rounded, which can differ from
    this one in the last bits (0.9 against 0.8999999999999999 at
    (m, n) = (1, 19)).
    """
    ranks.validate(key)
    return _entry_engine(key.m, key.n, ranks.local_rank, ranks.server_rank)


def unbalanced_coverage(sizes: Sequence[int], local_ranks: Sequence[int]) -> np.ndarray:
    """Coverage for every server rank when agents hold unequal sample sizes.

    ``local_ranks[j]`` may exceed ``sizes[j]``; such an agent always reports
    the out-of-range sentinel and can never count as covered (G_j = 0).
    When the agents that can be covered share one (n, l), the column is the
    balanced one, padded with full coverage. Otherwise, at each node, the
    number of covered agents is Poisson-Binomial, built agent by agent in
    O(m^2) operations.

    Returns
    -------
    numpy.ndarray
        Coverage for server ranks 1..m, nondecreasing.
    """
    sizes = [int(s) for s in sizes]
    local_ranks = [int(r) for r in local_ranks]
    if len(sizes) != len(local_ranks) or not sizes:
        raise InvalidArgumentError("sizes and local_ranks must be equal-length and nonempty")
    if min(sizes) < 1 or min(local_ranks) < 1:
        raise InvalidArgumentError("sizes and local ranks must be positive")
    total = sum(sizes)
    if total > CELL_CAP:
        raise ResourceLimitError(f"total size {total} exceeds cap {CELL_CAP}")
    agents = [(n, l) for n, l in zip(sizes, local_ranks) if l <= n]
    if len(set(agents)) == 1:
        column = np.ones(len(sizes))
        column[: len(agents)] = coverage_column(TableKey(len(agents), agents[0][0]), agents[0][1])
        return column
    t, w = _rule_for(total)
    g = np.stack(
        [
            betainc(l, n - l + 1, t) if l <= n else np.zeros_like(t)
            for n, l in zip(sizes, local_ranks)
        ],
        axis=-1,
    )
    pmf = _poisson_binomial_pmf(g)  # pmf[i, j]: P(j agents covered) at node i
    tails = np.cumsum(pmf[:, :0:-1], axis=-1)[:, ::-1]  # tails[:, k - 1] = P(>= k)
    return np.clip(1.0 - w @ tails, 0.0, 1.0)


def _poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """Mass function of a sum of independent Bernoulli(p_j) by convolution.

    The sum runs over the last axis of ``p``; leading axes are batches.
    """
    pmf = np.ones(p.shape[:-1] + (1,))
    for j in range(p.shape[-1]):
        prob = p[..., j : j + 1]
        extended = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
        extended[..., :-1] = pmf * (1.0 - prob)
        extended[..., 1:] += pmf * prob
        pmf = extended
    return pmf


# ---------------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------------


def select_ranks(
    key: TableKey,
    alpha: float,
    table: CoverageTable | None = None,
) -> tuple[RankPair, float]:
    """Rank pair whose coverage is minimal among those >= 1 - alpha.

    Walks the feasibility frontier from (n, m) downward: as the local rank
    decreases the smallest feasible server rank can only grow, so each
    column's search starts where the previous one ended (see
    :func:`_first_reaching`). Entries are read through ``table`` (a fresh
    one when none is given). An entry within ``LEVEL_MARGIN`` of 1 - alpha
    is settled exactly and stored at its exact value, so every decision is
    the exact one and the search may probe in any order. Ties are broken
    toward the smallest local rank, then the smallest server rank. The
    chosen entry, on which the guarantee rests, is recomputed and must
    match the stored value (see :func:`_check_stored`); the stored value is
    the one returned.

    Raises
    ------
    InfeasibleError
        If even the all-maximum entry (n, m) sits below 1 - alpha, which
        happens exactly when alpha < 1 / (m*n + 1).
    InvalidArgumentError
        If the chosen entry of ``table`` differs from its recomputed value.
    """
    check_alpha(alpha)
    table = _table_for(table, key.m, key.n)
    ranks, value = _search_ranks(table, alpha)
    _check_stored(table, ranks)
    return ranks, value


def _memoised(table: CoverageTable, key: tuple, search: Callable):
    """``search()``, or its answer kept from an earlier call on ``table``.

    An answer is kept only when the search left the table's entries exactly
    as it found them, and reused only while the table still holds exactly
    those entries. A search reads nothing but the entries, so a reused
    answer is the one the search would give now. ``table._memo["entries"]``
    is the copy of the entries that the kept answers were found on.
    """
    memo, entries = table._memo, table.entries
    if memo and memo["entries"] != entries:
        memo.clear()
    if key in memo:
        return memo[key]
    before = dict(entries)
    answer = search()
    if entries == before:
        memo.setdefault("entries", before)
        memo[key] = answer
    return answer


def _search_ranks(table: CoverageTable, alpha: float) -> tuple[RankPair, float]:
    """The frontier walk of :func:`select_ranks`, trusting ``table``;
    memoised per level."""
    return _memoised(table, ("ranks", alpha), lambda: _walk_frontier(table, alpha))


def _walk_frontier(table: CoverageTable, alpha: float) -> tuple[RankPair, float]:
    m, n = table.key.m, table.key.n
    if not _reaches(table, n, m, alpha):
        raise InfeasibleError(
            f"coverage {table.entries[(n, m)]:.6f} at ranks ({n}, {m}) is below "
            f"{1.0 - alpha}; no rank pair reaches the requested level for m={m}, n={n}"
        )
    best: tuple[float, int, int] | None = None
    k_floor = 1
    for l in range(n, 0, -1):
        k = _first_reaching(table, l, k_floor, alpha)
        if k > m:
            break  # every smaller local rank is infeasible too
        k_floor = k
        candidate = (table.entries[(l, k)], l, k)
        if best is None or candidate < best:
            best = candidate
    assert best is not None  # the (n, m) probe above guarantees feasibility
    value, l, k = best
    return RankPair(l, k), value


def _check_stored(table: CoverageTable, ranks: RankPair) -> None:
    """Reject a stored entry that recomputing it does not confirm.

    A loaded cache passes :meth:`CoverageTable.validate`, which cannot
    catch a forged value that stays monotone. Quadrature and settled values
    agree to about 5e-16, so an accepted value lies within
    ``LEVEL_MARGIN / 2`` of the exact coverage. The search compared with
    the level by float only values more than ``LEVEL_MARGIN`` away from it
    and settled the rest exactly, so its verdict on an accepted entry is
    the exact one.
    """
    l, k = ranks.local_rank, ranks.server_rank
    stored = table.entries[(l, k)]
    computed = _entry_engine(table.key.m, table.key.n, l, k)
    if abs(stored - computed) > LEVEL_MARGIN / 2:
        raise InvalidArgumentError(
            f"coverage-table entry ({l}, {k}) holds {stored!r}, but recomputing it "
            f"gives {computed!r}; the table was altered"
        )


def _first_reaching(table: CoverageTable, local_rank: int, low: int, alpha: float) -> int:
    """Smallest server rank >= ``low`` whose entry reaches 1 - alpha, or m + 1.

    Gallops up from ``low`` (offsets 0, 1, 3, 7, ...) and bisects the last
    gap, so a gap of g server ranks costs O(log g) probes instead of g.
    """
    m = table.key.m
    failed, k, step = low - 1, low, 1
    while k <= m and not _reaches(table, local_rank, k, alpha):
        failed, k, step = k, k + step, 2 * step
    k = min(k, m + 1)
    while k - failed > 1:
        middle = (failed + k) // 2
        if _reaches(table, local_rank, middle, alpha):
            k = middle
        else:
            failed = middle
    return k


def unbalanced_local_ranks(sizes: Sequence[int], alpha: float) -> list[int]:
    """Per-agent ranks ceil((1 - alpha) * (n_j + 1)), capped at n_j.

    The cap keeps an undersized agent reporting its largest score instead of
    the useless out-of-range sentinel (with a single score per agent the
    uncapped rank would be 2 for every reasonable alpha).
    """
    check_alpha(alpha)
    return [min(int(n), split_rank(int(n), alpha)) for n in sizes]


def select_ranks_unbalanced(
    sizes: Sequence[int], alpha: float
) -> tuple[list[int], int, float]:
    """Fixed local ranks plus the smallest feasible server rank.

    Local ranks follow the split-calibration rule per agent; only the server
    rank is searched, which keeps the unequal-size case tractable.

    Returns
    -------
    (local_ranks, server_rank, coverage)
    """
    ranks = unbalanced_local_ranks(sizes, alpha)
    column = unbalanced_coverage(sizes, ranks)
    exact_key = (tuple(int(s) for s in sizes), tuple(ranks))
    for k, value in enumerate(column.tolist(), start=1):
        reached, value = _meets_level(value, alpha, lambda: _settled(*exact_key, k))
        if reached:
            return ranks, k, value
    raise InfeasibleError(
        f"no server rank reaches coverage {1.0 - alpha} for sizes {list(sizes)}"
    )


# ---------------------------------------------------------------------------
# training-conditional guarantee
# ---------------------------------------------------------------------------


def conditional_miscoverage_quantile(key: TableKey, ranks: RankPair, delta: float) -> float:
    """Level that the miscoverage given the calibration set exceeds with
    probability ``delta`` over calibration draws.

    With continuous scores F(local order statistic) is Beta(l, n - l + 1),
    independently across agents, so the threshold's F(q_hat) is their k-th
    smallest and P(F(q_hat) <= x) = I_{G(x)}(k, m - k + 1), with the
    engine's G(x) = I_x(l, n - l + 1); its mean is the table coverage.
    Inverting it gives 1 - I^-1(l, n - l + 1; I^-1(k, m - k + 1; delta)),
    exact at every rank pair. For other scores F(S) is stochastically at
    least uniform, so the value is still a (conservative) bound.
    """
    ranks.validate(key)
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta}")
    l, k = ranks.local_rank, ranks.server_rank
    g = betaincinv(k, key.m - k + 1, delta)
    return float(1.0 - betaincinv(l, key.n - l + 1, g))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_table(table: CoverageTable, path) -> None:
    """Write a table as self-describing text, 17 significant digits per value.

    The text goes to a temporary file beside ``path`` that then replaces it,
    so an interrupted write leaves any previous file intact.
    """
    lines = [
        f"{CACHE_FORMAT_NAME} {CACHE_FORMAT_VERSION}",
        f"m {table.key.m}",
        f"n {table.key.n}",
        f"entries {len(table.entries)}",
    ]
    for (l, k) in sorted(table.entries):
        lines.append(f"{l} {k} {table.entries[(l, k)]:.17g}")
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def load_table(path) -> CoverageTable:
    """Read a table written by :func:`save_table`; values round-trip exactly.

    The table must pass :meth:`CoverageTable.validate`. A file that is
    malformed or fails validation raises InvalidArgumentError naming it.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            table = _parse_table(handle)
        table.validate()
    # UnicodeDecodeError is a ValueError; an m*n over the cap a ResourceLimitError
    except (ValueError, InternalError, ResourceLimitError) as exc:
        raise InvalidArgumentError(f"coverage-table file {path}: {exc}") from None
    return table


def _parse_table(handle: io.TextIOBase) -> CoverageTable:
    """The table a cache file spells out, checked for syntax only: exactly
    the declared number of distinct entries and nothing after them."""
    header = handle.readline().split()
    if len(header) != 2 or header[0] != CACHE_FORMAT_NAME:
        raise InvalidArgumentError("missing format header")
    version = int(header[1])
    if version > CACHE_FORMAT_VERSION:
        raise InvalidArgumentError(
            f"file version {version} is newer than supported {CACHE_FORMAT_VERSION}"
        )
    if version < 1:
        raise InvalidArgumentError(f"file version {version} is not a valid version")
    fields: dict[str, int] = {}
    for name in ("m", "n", "entries"):
        parts = handle.readline().split()
        if len(parts) != 2 or parts[0] != name:
            raise InvalidArgumentError(f"expected '{name} <int>' line")
        fields[name] = int(parts[1])
    count = fields["entries"]
    if count < 0:
        raise InvalidArgumentError(f"entry count {count} is negative")
    table = CoverageTable(key=TableKey(fields["m"], fields["n"]))
    for index in range(count):
        parts = handle.readline().split()
        if len(parts) != 3:
            raise InvalidArgumentError(f"entry line {index + 1} malformed")
        table.entries[(int(parts[0]), int(parts[1]))] = float(parts[2])
    if len(table.entries) != count:
        raise InvalidArgumentError(
            f"{count - len(table.entries)} of {count} entries repeat a rank pair"
        )
    if handle.read().strip():
        raise InvalidArgumentError(f"text after the {count} declared entries")
    return table
