"""Exact coverage probabilities for the quantile-of-quantiles estimator.

For m agents holding n i.i.d. continuous scores each, the prediction set
built from the (local_rank, server_rank) quantile-of-quantiles covers a
fresh test point with a probability that depends on (m, n, local_rank,
server_rank) only. This module evaluates that probability exactly, selects
the rank pair whose coverage is the smallest one still above a requested
level, and handles agents with unequal sample sizes.

Two independent evaluation routes are provided. ``coverage_bruteforce``
enumerates the defining nested sum literally and is the reference for small
problems. ``coverage_probability`` factors the sum through rectangular
probabilities of a multivariate hypergeometric vector: conditionally on
their total r, the per-agent counts of scores below the test point behave
like independent binomials constrained to boxes, so each term becomes

    P(sum of box-truncated binomials = r) * prod P(box) / P(Binomial(mn) = r)

which reduces in our grouped form to a polynomial convolution of two
binomial slices, evaluated in log space (see ``logspace``). Coverage is
nondecreasing in both ranks, which the rank search exploits so that only a
thin frontier of the (local_rank, server_rank) grid is ever evaluated.

Tables are distribution-free, so they are cached keyed by (m, n) alone and
can be persisted to a small text file and reused across runs.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .errors import (
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    ResourceLimitError,
    check_alpha,
)
from .logspace import log_binom_pmf, log_convolve, suffix_logsumexp

__all__ = [
    "TableKey",
    "RankPair",
    "CoverageTable",
    "coverage_bruteforce",
    "coverage_bruteforce_column",
    "coverage_column",
    "coverage_probability",
    "unbalanced_coverage",
    "select_ranks",
    "select_ranks_unbalanced",
    "unbalanced_local_ranks",
    "max_report_coverage",
    "conditional_miscoverage_bound",
    "rank_condition_holds",
    "save_table",
    "load_table",
]

DEFAULT_CELL_CAP = 10**6

CACHE_FORMAT_NAME = "fedcal-coverage-table"
CACHE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TableKey:
    """Problem size: m agents, n calibration scores per agent."""

    m: int
    n: int
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise InvalidArgumentError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        if self.m * self.n > self.cell_cap:
            raise ResourceLimitError(
                f"m*n = {self.m * self.n} exceeds the exact-arithmetic cap {self.cell_cap}"
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

    ``selected`` carries the rank pair chosen by ``select_ranks`` together
    with its coverage; it is not part of the persisted file because the
    stored entries are level-independent.
    """

    key: TableKey
    entries: dict[tuple[int, int], float] = field(default_factory=dict)
    selected: tuple[RankPair, float] | None = None

    def validate(self, tol: float = 1e-12) -> None:
        """Check range and monotonicity invariants on the stored entries."""
        for (l, k), value in self.entries.items():
            RankPair(l, k).validate(self.key)
            if not -tol <= value <= 1.0 + tol:
                raise InternalError(f"entry ({l}, {k}) = {value} outside [0, 1]")
            for nbr, other in (((l + 1, k), "local"), ((l, k + 1), "server")):
                if nbr in self.entries and self.entries[nbr] < value - tol:
                    raise InternalError(
                        f"coverage not nondecreasing in {other} rank at ({l}, {k})"
                    )
        if self.selected is not None:
            ranks, value = self.selected
            stored = self.entries.get((ranks.local_rank, ranks.server_rank))
            if stored is not None and abs(stored - value) > tol:
                raise InternalError("selected coverage disagrees with its stored entry")


# ---------------------------------------------------------------------------
# reference path: literal enumeration of the nested sum
# ---------------------------------------------------------------------------


def _cartesian_sums_products(n: int, values: range, count: int, max_terms: int):
    """Sums and C(n, .)-products over all index tuples values^count.

    Grown one coordinate at a time; int64 is safe because every product of
    per-agent binomial coefficients is bounded by a single C(m*n, r).
    """
    sums = np.zeros(1, dtype=np.int64)
    prods = np.ones(1, dtype=np.int64)
    vals = np.fromiter(values, dtype=np.int64)
    coeffs = np.array([math.comb(n, int(v)) for v in values], dtype=np.int64)
    for _ in range(count):
        if sums.size * vals.size > max_terms:
            raise ResourceLimitError("brute-force enumeration exceeds the term cap")
        sums = (sums[:, None] + vals[None, :]).ravel()
        prods = (prods[:, None] * coeffs[None, :]).ravel()
    return sums, prods


def coverage_bruteforce_column(
    key: TableKey,
    local_rank: int,
    *,
    max_cells: int = 64,
    max_terms: int = 20_000_000,
) -> np.ndarray:
    """Coverage for every server rank by direct summation over index tuples.

    Reference oracle for :func:`coverage_probability`; exact up to float
    rounding (roughly 1e-13). Guarded because the term count grows
    exponentially with m.
    """
    m, n = key.m, key.n
    RankPair(local_rank, 1).validate(key)
    if m * n > max_cells:
        raise ResourceLimitError(
            f"brute force limited to m*n <= {max_cells}, got {m * n}"
        )
    l = local_rank
    denom = np.array([math.comb(m * n, s) for s in range(m * n + 1)], dtype=float)
    per_j = np.zeros(m + 1)
    for j in range(1, m + 1):
        hi_sums, hi_prods = _cartesian_sums_products(n, range(l, n + 1), j, max_terms)
        lo_sums, lo_prods = _cartesian_sums_products(n, range(0, l), m - j, max_terms)
        if hi_sums.size * lo_sums.size > max_terms:
            raise ResourceLimitError("brute-force enumeration exceeds the term cap")
        s = hi_sums[:, None] + lo_sums[None, :]
        w = hi_prods[:, None].astype(float) * lo_prods[None, :]
        per_j[j] = math.comb(m, j) * float(np.sum(w / denom[s]))
    tails = np.cumsum(per_j[::-1])[::-1]  # tails[k] = sum_{j >= k}
    return 1.0 - tails[1:] / (m * n + 1)


def coverage_bruteforce(
    key: TableKey,
    ranks: RankPair,
    *,
    max_cells: int = 64,
    max_terms: int = 20_000_000,
) -> float:
    """Single-entry wrapper around :func:`coverage_bruteforce_column`."""
    ranks.validate(key)
    column = coverage_bruteforce_column(
        key, ranks.local_rank, max_cells=max_cells, max_terms=max_terms
    )
    return float(column[ranks.server_rank - 1])


# ---------------------------------------------------------------------------
# production path: truncated-binomial convolutions in log space
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _column_engine(m: int, n: int, local_rank: int) -> tuple[float, ...]:
    """Coverage at one local rank for all server ranks 1..m.

    The binomial reparameterization is centered at t = local_rank / (n + 1),
    which puts the truncation boundary near the mass of both slices; any
    interior t gives the same value because the tilt cancels in the ratio.
    """
    l = local_rank
    t = l / (n + 1.0)
    log_w = log_binom_pmf(n, t)
    high = log_w[l:]  # degrees l..n: agents whose local quantile is covered
    low = log_w[:l]  # degrees 0..l-1
    powers_high: list[np.ndarray] = [np.zeros(1)]
    powers_low: list[np.ndarray] = [np.zeros(1)]
    for _ in range(m):
        powers_high.append(log_convolve(powers_high[-1], high))
        powers_low.append(log_convolve(powers_low[-1], low))
    log_denominator = log_binom_pmf(m * n, t)
    log_m_fact = gammaln(m + 1.0)
    log_terms = np.full(m + 1, -np.inf)
    for j in range(1, m + 1):
        conv = log_convolve(powers_high[j], powers_low[m - j])
        r = j * l + np.arange(conv.size)
        log_choose = log_m_fact - gammaln(j + 1.0) - gammaln(m - j + 1.0)
        log_terms[j] = log_choose + _logsumexp(conv - log_denominator[r])
    tails = suffix_logsumexp(log_terms[1:])
    column = 1.0 - np.exp(tails) / (m * n + 1)
    if np.any(column < -1e-9) or np.any(column > 1.0 + 1e-9):
        raise InternalError(f"coverage column left [0, 1] for m={m}, n={n}, l={l}")
    return tuple(np.clip(column, 0.0, 1.0))


def _logsumexp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    if peak == -np.inf:
        return -np.inf
    return peak + math.log(float(np.sum(np.exp(values - peak))))


def _table_for(
    table: CoverageTable | None, m: int, n: int, cell_cap: int = DEFAULT_CELL_CAP
) -> CoverageTable:
    """``table`` once checked to hold (m, n), or a fresh table for (m, n)."""
    if table is None:
        return CoverageTable(key=TableKey(m, n, cell_cap))
    if (table.key.m, table.key.n) != (m, n):
        raise InvalidArgumentError(
            f"table is for (m={table.key.m}, n={table.key.n}), not for (m={m}, n={n})"
        )
    return table


def _column(table: CoverageTable, local_rank: int) -> tuple[float, ...]:
    """Coverage at ``local_rank`` for server ranks 1..m, read from ``table``.

    A column the table does not hold in full comes from the engine and is
    stored, so every later reader of the table finds it.
    """
    m, l = table.key.m, local_rank
    stored = tuple(table.entries.get((l, k), math.nan) for k in range(1, m + 1))
    if not any(math.isnan(v) for v in stored):
        return stored
    values = _column_engine(m, table.key.n, l)
    table.entries.update(((l, k), v) for k, v in enumerate(values, start=1))
    return values


def coverage_column(key: TableKey, local_rank: int) -> np.ndarray:
    """Coverage at ``local_rank`` for every server rank 1..m."""
    RankPair(local_rank, 1).validate(key)
    return np.array(_column(CoverageTable(key=key), local_rank))


def coverage_probability(key: TableKey, ranks: RankPair) -> float:
    """Exact coverage of the quantile-of-quantiles set at ``ranks``.

    Agrees with :func:`coverage_bruteforce` to 1e-10 wherever both run; this
    path stays polynomial in (m, n) and is the one used by the rank search.
    """
    ranks.validate(key)
    return _column(CoverageTable(key=key), ranks.local_rank)[ranks.server_rank - 1]


def unbalanced_coverage(sizes: Sequence[int], local_ranks: Sequence[int]) -> np.ndarray:
    """Coverage for every server rank when agents hold unequal sample sizes.

    ``local_ranks[j]`` may exceed ``sizes[j]``; such an agent always reports
    the out-of-range sentinel and can never count as covered, which the sum
    reflects by dropping its covered branch.

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
    m = len(sizes)
    total = sum(sizes)
    if total > DEFAULT_CELL_CAP:
        raise ResourceLimitError(f"total size {total} exceeds cap {DEFAULT_CELL_CAP}")
    t = sum(min(l, n) for l, n in zip(local_ranks, sizes)) / (total + m)
    # joint[j, r]: log-weight of configurations with j covered agents and
    # total below-count r, built agent by agent
    joint = np.full((m + 1, total + 1), -np.inf)
    joint[0, 0] = 0.0
    degree = 0
    for n_a, l_a in zip(sizes, local_ranks):
        log_w = log_binom_pmf(n_a, t)
        high = log_w[l_a:] if l_a <= n_a else None
        low = log_w[: min(l_a, n_a + 1)]
        updated = np.full_like(joint, -np.inf)
        for j in range(m + 1):
            row = joint[j, : degree + 1]
            if not np.any(np.isfinite(row)):
                continue
            low_conv = log_convolve(row, low)
            updated[j, : low_conv.size] = np.logaddexp(
                updated[j, : low_conv.size], low_conv
            )
            if high is not None:
                high_conv = log_convolve(row, high)
                segment = updated[j + 1, l_a : l_a + high_conv.size]
                updated[j + 1, l_a : l_a + high_conv.size] = np.logaddexp(segment, high_conv)
        joint = updated
        degree += n_a
    log_denominator = log_binom_pmf(total, t)
    log_terms = np.full(m + 1, -np.inf)
    for j in range(1, m + 1):
        row = joint[j]
        finite = np.isfinite(row)
        if finite.any():
            log_terms[j] = _logsumexp(row[finite] - log_denominator[finite])
    tails = suffix_logsumexp(log_terms[1:])
    column = 1.0 - np.exp(tails) / (total + 1)
    return np.clip(column, 0.0, 1.0)


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
    decreases the smallest feasible server rank can only grow, so the walk
    probes O(n + m) grid positions, pulling whole columns through ``table``
    (a fresh one when none is given). Ties are broken toward
    the smallest local rank, then the smallest server rank.

    Raises
    ------
    InfeasibleError
        If even the all-maximum entry (n, m) sits below 1 - alpha, which
        happens exactly when alpha < 1 / (m*n + 1).
    """
    check_alpha(alpha)
    target = 1.0 - alpha
    m, n = key.m, key.n
    table = _table_for(table, m, n, key.cell_cap)
    top = _column(table, n)
    if top[m - 1] < target:
        raise InfeasibleError(
            f"coverage {top[m - 1]:.6f} at ranks ({n}, {m}) is below {target}; "
            f"no rank pair reaches the requested level for m={m}, n={n}"
        )
    best: tuple[float, int, int] | None = None
    k_floor = 1
    for l in range(n, 0, -1):
        values = _column(table, l)
        k = k_floor
        while k <= m and values[k - 1] < target:
            k += 1
        if k > m:
            break  # every smaller local rank is infeasible too
        k_floor = k
        candidate = (values[k - 1], l, k)
        if best is None or candidate < best:
            best = candidate
    assert best is not None  # the (n, m) probe above guarantees feasibility
    value, l, k = best
    ranks = RankPair(l, k)
    table.selected = (ranks, value)
    return ranks, value


def unbalanced_local_ranks(sizes: Sequence[int], alpha: float) -> list[int]:
    """Per-agent ranks ceil((1 - alpha) * (n_j + 1)), capped at n_j.

    The cap keeps an undersized agent reporting its largest score instead of
    the useless out-of-range sentinel (with a single score per agent the
    uncapped rank would be 2 for every reasonable alpha).
    """
    check_alpha(alpha)
    return [min(int(n), math.ceil((1.0 - alpha) * (int(n) + 1))) for n in sizes]


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
    target = 1.0 - alpha
    feasible = np.nonzero(column >= target)[0]
    if feasible.size == 0:
        raise InfeasibleError(
            f"no server rank reaches coverage {target} for sizes {list(sizes)}"
        )
    k = int(feasible[0]) + 1
    return ranks, k, float(column[k - 1])


# ---------------------------------------------------------------------------
# closed forms and bounds
# ---------------------------------------------------------------------------


def max_report_coverage(m: int, n: int, k: int) -> float:
    """Coverage when every agent reports its maximum (local rank n).

    Evaluated in log-Gamma space so it stays finite for very large m:
    Gamma(k + 1/n) / Gamma(k) * Gamma(m + 1) / Gamma(m + 1 + 1/n).
    """
    if m < 1 or n < 1:
        raise InvalidArgumentError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if not 1 <= k <= m:
        raise InvalidArgumentError(f"server rank must be in [1, {m}], got {k}")
    inv = 1.0 / n
    return float(
        math.exp(gammaln(k + inv) - gammaln(k) + gammaln(m + 1.0) - gammaln(m + 1.0 + inv))
    )


def conditional_miscoverage_bound(key: TableKey, alpha: float, delta: float) -> float:
    """High-probability bound on the miscoverage given a fixed calibration set.

    With probability at least 1 - delta over calibration draws, the
    conditional miscoverage stays below alpha + sqrt(log(1/delta) / (2 m n)),
    provided the rank pair satisfies :func:`rank_condition_holds`.
    """
    check_alpha(alpha)
    if not 0.0 < delta <= 0.5:
        raise InvalidArgumentError(f"delta must be in (0, 0.5], got {delta}")
    return alpha + math.sqrt(math.log(1.0 / delta) / (2.0 * key.m * key.n))


def rank_condition_holds(key: TableKey, ranks: RankPair, alpha: float) -> bool:
    """Whether local_rank * server_rank >= (1 - alpha) * m * n."""
    ranks.validate(key)
    return ranks.local_rank * ranks.server_rank >= (1.0 - alpha) * key.m * key.n


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
    """Read a table written by :func:`save_table`; values round-trip exactly."""
    with open(path, "r", encoding="ascii") as handle:
        return _parse_table(handle)


def _parse_table(handle: io.TextIOBase) -> CoverageTable:
    def fail(message: str) -> InvalidArgumentError:
        return InvalidArgumentError(f"malformed coverage-table file: {message}")

    header = handle.readline().split()
    if len(header) != 2 or header[0] != CACHE_FORMAT_NAME:
        raise fail("missing format header")
    try:
        version = int(header[1])
    except ValueError:
        raise fail(f"bad version {header[1]!r}") from None
    if version > CACHE_FORMAT_VERSION:
        raise fail(
            f"file version {version} is newer than supported {CACHE_FORMAT_VERSION}"
        )
    fields: dict[str, int] = {}
    for name in ("m", "n", "entries"):
        parts = handle.readline().split()
        if len(parts) != 2 or parts[0] != name:
            raise fail(f"expected '{name} <int>' line")
        fields[name] = int(parts[1])
    table = CoverageTable(key=TableKey(fields["m"], fields["n"]))
    for index in range(fields["entries"]):
        parts = handle.readline().split()
        if len(parts) != 3:
            raise fail(f"entry line {index + 1} malformed")
        l, k, value = int(parts[0]), int(parts[1]), float(parts[2])
        RankPair(l, k).validate(table.key)
        if not 0.0 <= value <= 1.0:
            raise fail(f"entry ({l}, {k}) outside [0, 1]")
        table.entries[(l, k)] = value
    return table
