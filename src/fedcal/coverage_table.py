"""Exact coverage probabilities for the quantile-of-quantiles estimator.

For m agents holding n i.i.d. continuous scores each, the prediction set
built from the (local_rank, server_rank) quantile-of-quantiles covers a
fresh test point with a probability that depends on (m, n, local_rank,
server_rank) only. This module evaluates that probability exactly and
selects the rank pair whose coverage is the smallest one still above a
requested level.

``coverage_probability`` evaluates the one-dimensional order-statistic
integral

    coverage(l, k) = 1 - integral over [0, 1] of I_{G(t)}(k, m - k + 1) dt,
    G(t) = I_t(l, n - l + 1),

where I is the regularized incomplete beta function: G(t) is the chance
that an agent's l-th smallest score falls below t, and the integrand the
chance that at least k agents' do, i.e. that the threshold falls below t.
A 128-node Gauss-Legendre rule integrates it over the window of t where it
is not within 2^-80 of 0 or 1. Where a comparison with the level 1 - alpha
is closer than the rounding can decide, a closed form settles the
coverage exactly if one applies (one agent, an extreme local rank, or the
centre of the table, where coverage is 1/2 by symmetry); otherwise the
entry counts as missing the level. Coverage is nondecreasing in both
ranks, which the rank search exploits so that only a thin frontier of
(local_rank, server_rank) entries is ever evaluated.

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

import numpy as np

from .errors import (
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    ResourceLimitError,
    check_alpha,
    check_integer,
    check_real,
)
from .order_stats import split_rank

__all__ = [
    "TableKey",
    "RankPair",
    "CoverageTable",
    "coverage_probability",
    "select_ranks",
    "conditional_miscoverage_quantile",
    "save_table",
    "load_table",
]

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
        if min(check_integer(self.m, "m"), check_integer(self.n, "n")) < 1:
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
        if not 1 <= check_integer(self.local_rank, "local rank") <= key.n:
            raise InvalidArgumentError(
                f"local rank must be in [1, {key.n}], got {self.local_rank}"
            )
        if not 1 <= check_integer(self.server_rank, "server rank") <= key.m:
            raise InvalidArgumentError(
                f"server rank must be in [1, {key.m}], got {self.server_rank}"
            )


@dataclass
class CoverageTable:
    """Lazily filled map (local_rank, server_rank) -> coverage for one (m, n).

    Holds only the entries a search has read (about two per local rank it
    walks, of the m*n); they are level-independent, so one table serves
    every alpha. It keeps no search's answer: every rank or gamma search
    walks it again, and a caller that runs many rounds of one shape chooses
    its ranks once (see :data:`fedcal.federation.METHODS`).
    """

    key: TableKey
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

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

# A comparison with 1 - alpha closer than this is settled exactly or fails.
# The engine, a 128-node rule doubled up to 512, errs by at most a quarter of
# it, _legendre_rule's moments by at most half.
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


@lru_cache(maxsize=8)
def _checked_rule(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and weights of the ``count``-node Gauss-Legendre rule on [0, 1],
    and a check rule's weights less them: it interpolates on all but every
    eighth node, exact to degree 7 count / 8 - 1 (111 at 128 nodes).
    Read-only."""
    t, w = _legendre_rule(count)
    keep = np.arange(count) % 8 != 7
    basis = np.polynomial.legendre.legvander(2.0 * t[keep] - 1.0, keep.sum() - 1)
    check = -w
    check[keep] += np.linalg.solve(basis.T, np.eye(1, keep.sum())[0])  # P_j integrates to [j == 0]
    check.flags.writeable = False
    return t, w, check


@lru_cache(maxsize=4096)
def _entry_engine(m: int, n: int, l: int, k: int) -> float:
    """Coverage at ranks (l, k) by quadrature, memoised for the process.

    The integrand P(Bin(m, G(t)) >= k) = I_G(k, m - k + 1), the threshold's
    law, is below 2^-81 where G < low = I^-1(k, m - k + 1; 2^-81), and, as
    P(Bin(m, G) < k) = I_{1-G}(m - k + 1, k), above 1 - 2^-81 where 1 - G <
    rest = I^-1(m - k + 1, k; 2^-81). ``betaincinv`` errs there by at most
    7.6e-10 relative up to m = 10^6, so each dropped tail stays below 2^-80:
    for t < a and t > b, a = I^-1(l, n - l + 1; low) and, reflecting I,
    1 - b = I^-1(n - l + 1, l; rest). So, up to 2 * 2^-80, coverage =
    1 - (1 - b) - (b - a) * sum_i w_i I_{G(t_i)}(k, m - k + 1) on a rule
    mapped to [a, b]: 128 nodes where :func:`_checked_rule`'s check agrees
    within ``LEVEL_MARGIN / 4``, else doubled up to 512. That error, plus
    the ``LEVEL_MARGIN / 2`` that :func:`_check_stored` allows, keeps every
    float decision exact.
    """
    # scipy.special takes longer to import than the rest of the CLI, and only
    # the coverage engine and the Monte-Carlo penalty use it, so each of them
    # imports it itself: the first call loads it, and later calls only look
    # it up
    from scipy.special import betainc, betaincinv

    low, rest = betaincinv((k, m - k + 1), (m - k + 1, k), 2.0**-81)
    a, tail = betaincinv((l, n - l + 1), (n - l + 1, l), (low, rest))  # tail = 1 - b
    width = 1.0 - tail - a
    for count in (128, 256, 512):
        t, w, check = _checked_rule(count)
        integrand = betainc(k, m - k + 1, betainc(l, n - l + 1, a + width * t))
        if abs(width * (check @ integrand)) <= LEVEL_MARGIN / 4:
            break
    else:
        raise InternalError(f"rules disagree at ranks ({l}, {k}) for (m, n) = ({m}, {n})")
    coverage = float(1.0 - (tail + width * (w @ integrand)))
    if coverage < -1e-9 or coverage > 1.0 + 1e-9:
        raise InternalError(f"coverage left [0, 1] at ranks ({l}, {k}) for (m, n) = ({m}, {n})")
    return min(max(coverage, 0.0), 1.0)


@lru_cache(maxsize=256)
def _settled(m: int, n: int, l: int, k: int) -> Fraction | None:
    """Exact coverage at ranks (l, k) where a closed form gives it, else None.

    One agent covers with probability l / (n + 1), and local rank n gives
    :func:`_max_report_exact`. Reflecting every score (s -> -s) turns the
    (l, k) threshold into minus the (n + 1 - l, m + 1 - k) one, so
    coverage(l, k) + coverage(n + 1 - l, m + 1 - k) = 1: that gives l = 1
    from l = n, and exactly 1/2 at the centre 2 l = n + 1, 2 k = m + 1.
    """
    if m == 1:
        return Fraction(l, n + 1)
    if l == n:
        return _max_report_exact(m, n, k)
    if l == 1:
        return 1 - _max_report_exact(m, n, m - k + 1)
    if 2 * l == n + 1 and 2 * k == m + 1:
        return Fraction(1, 2)
    return None


def _max_report_exact(m: int, n: int, k: int) -> Fraction:
    """Exact coverage when every agent reports its maximum (local rank n):
    prod_{i=k}^{m} n i / (n i + 1)."""
    factors = range(k, m + 1)  # one Fraction of two products: one gcd, not one per factor
    return Fraction(math.prod(n * i for i in factors), math.prod(n * i + 1 for i in factors))


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
    """Whether the entry reaches 1 - alpha.

    A value more than ``LEVEL_MARGIN`` from the level is decided as it is.
    A nearer one is settled: where :func:`_settled` gives the exact
    coverage it is compared with 1 - alpha exactly and stored correctly
    rounded; where no closed form applies the entry fails.
    """
    value, target = _entry(table, local_rank, server_rank), 1.0 - alpha
    if abs(value - target) > LEVEL_MARGIN:
        return value >= target
    exact = _settled(table.key.m, table.key.n, local_rank, server_rank)
    if exact is None:
        return False
    table.entries[(local_rank, server_rank)] = float(exact)
    return exact >= 1 - Fraction(alpha)


def coverage_probability(key: TableKey, ranks: RankPair) -> float:
    """Coverage of the quantile-of-quantiles set at ``ranks``.

    The quadrature value, usually a few units in the last place from the
    exact coverage. This function compares with no level, so it never
    settles: where the rank search settled an entry against 1 - alpha it
    reports (and stores) the exact value correctly rounded, which can differ
    from this one in the last bits (0.9 against 0.8999999999999999 at
    (m, n) = (1, 19)).
    """
    ranks.validate(key)
    return _entry_engine(key.m, key.n, ranks.local_rank, ranks.server_rank)


# ---------------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------------


def select_ranks(
    key: TableKey,
    alpha: float,
    table: CoverageTable | None = None,
) -> tuple[RankPair, float]:
    """Rank pair whose coverage is minimal among those >= 1 - alpha.

    Walks the feasibility frontier from (n, m) downward: as the local rank l
    decreases the smallest feasible server rank can only grow, so the
    previous column's answer bounds each column's search from below. Each
    column probes the predicted frontier ceil((m + 1) P(Bin(n, 1 - alpha) >=
    l)), raised to that bound and usually within one rank of the answer,
    then steps down while the next lower rank still reaches the level, or up
    until a rank does, so a start d ranks off costs at most d + 2 probes.
    Where (1 - alpha)^n underflows every start is the bound, and the upward
    steps of the whole walk total at most m. Entries are read through
    ``table`` (a fresh one when none is given). An entry within
    ``LEVEL_MARGIN`` of 1 - alpha that a closed form settles (m = 1, l = n,
    l = 1, or the centre 2 l = n + 1, 2 k = m + 1, where coverage is 1/2) is
    stored at its exact value, so that decision is the exact one and the
    search may probe in any order. A near-tie that no closed form settles
    counts as missing the level: the chosen pair still reaches it, but a
    pair of smaller coverage may be passed over. Ties are broken toward the
    smallest local rank, then the smallest server rank. The chosen entry, on
    which the guarantee rests, is recomputed and must match the stored value
    (see :func:`_check_stored`); the stored value is the one returned. A
    single agent (m = 1) covers with probability l / (n + 1), so there the
    split rank (see :func:`fedcal.order_stats.split_rank`), the smallest l
    reaching the level, is probed directly, with no walk.

    Raises
    ------
    InfeasibleError
        If even the all-maximum entry (n, m) sits below 1 - alpha, which
        happens exactly when alpha < 1 / (m*n + 1).
    InvalidArgumentError
        If the chosen entry of ``table`` differs from its recomputed value.
    """
    alpha = check_alpha(alpha)
    table = _table_for(table, key.m, key.n)
    ranks, value = _walk_frontier(table, alpha)
    _check_stored(table, ranks)
    return ranks, value


def _walk_frontier(table: CoverageTable, alpha: float) -> tuple[RankPair, float]:
    """The frontier walk of :func:`select_ranks`, trusting ``table``."""
    m, n = table.key.m, table.key.n
    if not _reaches(table, n, m, alpha):
        raise InfeasibleError(
            f"coverage {table.entries[(n, m)]:.6f} at ranks ({n}, {m}) is below "
            f"1 - {alpha!r}; no rank pair reaches the requested level for m={m}, n={n}"
        )
    if m == 1:
        # one agent covers with probability l / (n + 1), increasing in l, so
        # the smallest l reaching the level, the split rank, is the answer
        l = split_rank(n, alpha)
        reached = _reaches(table, l, 1, alpha)
        assert reached  # the probe decides exactly, as the (n, 1) probe did
        return RankPair(l, 1), table.entries[(l, 1)]
    best: tuple[float, int, int] | None = None
    k_floor = 1
    # (m + 1) P(Bin(n, 1 - alpha) = l) and (m + 1) P(Bin(n, 1 - alpha) >= l),
    # which predicts column l's frontier; both read 0 once (1 - alpha)^n
    # underflows, and the search then steps up from k_floor
    mass, predicted, odds = (m + 1) * (1 - alpha) ** n, 0.0, alpha / (1 - alpha)
    for l in range(n, 0, -1):
        predicted += mass
        mass *= odds * l / (n - l + 1)
        # every entry below k_floor fails, and coverage grows with k
        k = max(math.ceil(min(predicted, m)), k_floor)
        if _reaches(table, l, k, alpha):
            while k > k_floor and _reaches(table, l, k - 1, alpha):
                k -= 1
        else:
            k += 1
            while k <= m and not _reaches(table, l, k, alpha):
                k += 1
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
    catch a forged value that stays monotone. The engine is within
    ``LEVEL_MARGIN / 4`` of the exact coverage, so an accepted value lies
    within ``3 * LEVEL_MARGIN / 4`` of it. The search compared only values
    more than ``LEVEL_MARGIN`` from the level by float and settled or
    refused the rest, so an accepted entry it chose does reach the level.
    """
    l, k = ranks.local_rank, ranks.server_rank
    stored = table.entries[(l, k)]
    computed = _entry_engine(table.key.m, table.key.n, l, k)
    if abs(stored - computed) > LEVEL_MARGIN / 2:
        raise InvalidArgumentError(
            f"coverage-table entry ({l}, {k}) holds {stored!r}, but recomputing it "
            f"gives {computed!r}; the table was altered"
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
    if not 0.0 < check_real(delta, "delta") < 1.0:
        raise InvalidArgumentError(f"delta must be in (0, 1), got {delta}")
    from scipy.special import betaincinv  # on first use, as in _entry_engine

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
