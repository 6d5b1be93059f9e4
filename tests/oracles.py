"""Independent oracles for the coverage engine, the private mechanism and
the score-file reader.

Every function here recomputes a quantity along a route the library does
not use: exact rationals over literal index tuples, the same enumeration
in floats, the log-Gamma closed form at local rank n, the threshold's law
as a rational polynomial, truncated-binomial convolutions in log space,
batched Monte-Carlo, a straight transcription of the
exponential-mechanism softmax, the per-agent private release, the
per-row score-file reader and the simulator loop that seeds every stream
through ``substream``.
Gauss-Legendre quadrature of the order-statistic integrand is kept as the
plain formula the library's engine evaluates. Expected values frozen in
the tests were produced by these.
"""

import csv
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betainc, gammaln, logsumexp, roots_legendre

from fedcal.coverage_table import CoverageTable, RankPair, TableKey
from fedcal.errors import InvalidArgumentError, ResourceLimitError
from fedcal.federation import _agent_shifts, run_one_shot, substream
from fedcal.order_stats import _kth_smallest


def coverage_exact_fraction(m: int, n: int, l: int, k: int) -> Fraction:
    """Literal nested sum over all index tuples, in exact rationals."""
    total = Fraction(0)
    for j in range(k, m + 1):
        for high in itertools.product(range(l, n + 1), repeat=j):
            for low in itertools.product(range(0, l), repeat=m - j):
                s = sum(high) + sum(low)
                numerator = math.comb(m, j)
                for i in itertools.chain(high, low):
                    numerator *= math.comb(n, i)
                total += Fraction(numerator, math.comb(m * n, s))
    return 1 - total / (m * n + 1)


def inid_coverage_exact_fraction(sizes, local_ranks, k: int) -> Fraction:
    """Unequal-size analogue of :func:`coverage_exact_fraction`."""
    m = len(sizes)
    total_n = sum(sizes)
    total = Fraction(0)
    for j in range(k, m + 1):
        for covered in itertools.combinations(range(m), j):
            covered_set = set(covered)
            ranges = [
                range(local_ranks[a], sizes[a] + 1)
                if a in covered_set
                else range(0, min(local_ranks[a], sizes[a] + 1))
                for a in range(m)
            ]
            for tup in itertools.product(*ranges):
                numerator = 1
                for a, i in enumerate(tup):
                    numerator *= math.comb(sizes[a], i)
                total += Fraction(numerator, math.comb(total_n, sum(tup)))
    return 1 - total / (total_n + 1)


# the literal enumeration grows exponentially with m; beyond these sizes it
# would exhaust memory or time
BRUTE_FORCE_CELLS = 64
BRUTE_FORCE_TERMS = 20_000_000


def _cartesian_sums_products(n: int, values: range, count: int):
    """Sums and C(n, .)-products over all index tuples values^count.

    Grown one coordinate at a time; int64 is safe because every product of
    per-agent binomial coefficients is bounded by a single C(m*n, r).
    """
    sums = np.zeros(1, dtype=np.int64)
    prods = np.ones(1, dtype=np.int64)
    vals = np.fromiter(values, dtype=np.int64)
    coeffs = np.array([math.comb(n, int(v)) for v in values], dtype=np.int64)
    for _ in range(count):
        if sums.size * vals.size > BRUTE_FORCE_TERMS:
            raise ResourceLimitError("brute-force enumeration exceeds the term cap")
        sums = (sums[:, None] + vals[None, :]).ravel()
        prods = (prods[:, None] * coeffs[None, :]).ravel()
    return sums, prods


def coverage_bruteforce_column(key: TableKey, local_rank: int) -> np.ndarray:
    """Coverage for every server rank by direct summation over index tuples.

    Reference oracle for :func:`coverage_probability`; exact up to float
    rounding (roughly 1e-13). Limited to m*n <= ``BRUTE_FORCE_CELLS`` and
    ``BRUTE_FORCE_TERMS`` summed terms.
    """
    m, n = key.m, key.n
    RankPair(local_rank, 1).validate(key)
    if m * n > BRUTE_FORCE_CELLS:
        raise ResourceLimitError(
            f"brute force limited to m*n <= {BRUTE_FORCE_CELLS}, got {m * n}"
        )
    l = local_rank
    denom = np.array([math.comb(m * n, s) for s in range(m * n + 1)], dtype=float)
    per_j = np.zeros(m + 1)
    for j in range(1, m + 1):
        hi_sums, hi_prods = _cartesian_sums_products(n, range(l, n + 1), j)
        lo_sums, lo_prods = _cartesian_sums_products(n, range(0, l), m - j)
        if hi_sums.size * lo_sums.size > BRUTE_FORCE_TERMS:
            raise ResourceLimitError("brute-force enumeration exceeds the term cap")
        s = hi_sums[:, None] + lo_sums[None, :]
        w = hi_prods[:, None].astype(float) * lo_prods[None, :]
        per_j[j] = math.comb(m, j) * float(np.sum(w / denom[s]))
    tails = np.cumsum(per_j[::-1])[::-1]  # tails[k] = sum_{j >= k}
    return 1.0 - tails[1:] / (m * n + 1)


def coverage_bruteforce(key: TableKey, ranks: RankPair) -> float:
    """Single-entry wrapper around :func:`coverage_bruteforce_column`."""
    ranks.validate(key)
    column = coverage_bruteforce_column(key, ranks.local_rank)
    return float(column[ranks.server_rank - 1])


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



def conditional_coverage_cdf_fraction(m: int, n: int, l: int, k: int, x: Fraction) -> Fraction:
    """P(F(q_hat) <= x) for uniform scores, in exact rationals.

    Each agent's l-th smallest of n uniforms is <= x with probability
    G = sum_{i >= l} C(n, i) x^i (1-x)^(n-i), and the threshold, the k-th
    smallest report, is <= x when at least k of the m agents' are.
    """
    g = sum(math.comb(n, i) * x**i * (1 - x) ** (n - i) for i in range(l, n + 1))
    return sum(math.comb(m, j) * g**j * (1 - g) ** (m - j) for j in range(k, m + 1))


def coverage_by_quadrature(m: int, n: int, l: int, k: int) -> float:
    """Coverage through the one-dimensional order-statistic integral.

    The integrand P(Binomial(m, G(t)) >= k) with G(t) = P(Binomial(n, t) >= l)
    is a polynomial of degree m*n in t, so Gauss-Legendre with enough nodes
    integrates it exactly up to rounding.
    """
    nodes = (m * n) // 2 + 2
    x, w = roots_legendre(nodes)
    t = 0.5 * (x + 1.0)
    g = betainc(l, n - l + 1, t)
    integrand = betainc(k, m - k + 1, g)
    return 1.0 - 0.5 * float(np.dot(w, integrand))


def _log_binom_pmf(n: int, t: float) -> np.ndarray:
    x = np.arange(n + 1, dtype=float)
    log_coeff = gammaln(n + 1.0) - gammaln(x + 1.0) - gammaln(n - x + 1.0)
    return log_coeff + x * math.log(t) + (n - x) * math.log1p(-t)


def log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two log-weight arrays, coefficient by coefficient
    with a max-shifted log-sum-exp, so every coefficient keeps near machine
    relative precision."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return a + b[0]
    pad = np.full(len(b) - 1, -np.inf)
    terms = sliding_window_view(np.concatenate([pad, a, pad]), len(b)) + b[::-1]
    peak = np.max(terms, axis=1, keepdims=True)
    peak[np.isneginf(peak)] = 0.0
    with np.errstate(divide="ignore"):  # all-zero weights give log 0 = -inf
        return np.log(np.sum(np.exp(terms - peak), axis=1)) + peak[:, 0]


def _suffix_logsumexp(log_terms: np.ndarray) -> np.ndarray:
    """``out[i] = logsumexp(log_terms[i:])``."""
    return np.logaddexp.accumulate(log_terms[::-1])[::-1]


@lru_cache(maxsize=256)
def coverage_column_by_convolution(m: int, n: int, l: int) -> tuple:
    """Coverage at local rank l for server ranks 1..m, through the
    multivariate-hypergeometric factorization of the nested sum.

    Conditionally on their total r, the per-agent counts of scores below
    the test point are independent binomials constrained to boxes, so the
    sum becomes convolutions of two binomial slices divided by a matched
    binomial mass. The binomial parameter t = l / (n + 1) cancels in that
    ratio; it only centres the slices.
    """
    t = l / (n + 1.0)
    log_w = _log_binom_pmf(n, t)
    high, low = log_w[l:], log_w[:l]
    powers_high, powers_low = [np.zeros(1)], [np.zeros(1)]
    for _ in range(m):
        powers_high.append(log_convolve(powers_high[-1], high))
        powers_low.append(log_convolve(powers_low[-1], low))
    log_denominator = _log_binom_pmf(m * n, t)
    log_terms = np.full(m, -np.inf)
    for j in range(1, m + 1):
        conv = log_convolve(powers_high[j], powers_low[m - j])
        r = j * l + np.arange(conv.size)
        log_choose = gammaln(m + 1.0) - gammaln(j + 1.0) - gammaln(m - j + 1.0)
        log_terms[j - 1] = log_choose + logsumexp(conv - log_denominator[r])
    column = 1.0 - np.exp(_suffix_logsumexp(log_terms)) / (m * n + 1)
    return tuple(np.clip(column, 0.0, 1.0))


def select_ranks_by_convolution(m: int, n: int, alpha: float) -> tuple[int, int]:
    """Rank pair of minimal coverage >= 1 - alpha over convolution columns,
    by the frontier walk (ties toward the smaller local, then server rank)."""
    target = 1.0 - alpha
    best, k_floor = None, 1
    for l in range(n, 0, -1):
        column = coverage_column_by_convolution(m, n, l)
        k = next((k for k in range(k_floor, m + 1) if column[k - 1] >= target), None)
        if k is None:
            break
        k_floor = k
        best = min(best or (2.0, 0, 0), (column[k - 1], l, k))
    return best[1], best[2]


def unbalanced_coverage_by_convolution(sizes, local_ranks) -> np.ndarray:
    """Unequal-size coverage for server ranks 1..m: a joint log-weight
    recursion over (covered agents, total count below the test point),
    built agent by agent."""
    m, total = len(sizes), sum(sizes)
    t = sum(min(l, n) for l, n in zip(local_ranks, sizes)) / (total + m)
    joint = np.full((m + 1, total + 1), -np.inf)
    joint[0, 0] = 0.0
    degree = 0
    for n_a, l_a in zip(sizes, local_ranks):
        log_w = _log_binom_pmf(n_a, t)
        updated = np.full_like(joint, -np.inf)
        for j in range(m + 1):
            row = joint[j, : degree + 1]
            if not np.any(np.isfinite(row)):
                continue
            low = log_convolve(row, log_w[: min(l_a, n_a + 1)])
            updated[j, : low.size] = np.logaddexp(updated[j, : low.size], low)
            if l_a <= n_a:
                high = log_convolve(row, log_w[l_a:])
                span = slice(l_a, l_a + high.size)
                updated[j + 1, span] = np.logaddexp(updated[j + 1, span], high)
        joint = updated
        degree += n_a
    log_denominator = _log_binom_pmf(total, t)
    log_terms = np.array([logsumexp(joint[j] - log_denominator) for j in range(1, m + 1)])
    return np.clip(1.0 - np.exp(_suffix_logsumexp(log_terms)) / (total + 1), 0.0, 1.0)


def mc_qq_coverage(m, n, l, k, reps, seed, batch=2000):
    """Monte-Carlo coverage of the rank-(l, k) aggregate on uniform scores.

    One Bernoulli draw per replication (a fresh test score against the
    replication's threshold), so the estimate is exactly binomial.

    Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < reps:
        size = min(batch, reps - done)
        scores = rng.uniform(size=(size, m, n))
        local = np.partition(scores, l - 1, axis=2)[:, :, l - 1]
        q_hat = np.partition(local, k - 1, axis=1)[:, k - 1]
        test = rng.uniform(size=size)
        hits += int(np.sum(test <= q_hat))
        done += size
    p_hat = hits / reps
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / reps)


def mechanism_softmax(scores, edges, q, epsilon):
    """Direct transcription of the exponential-mechanism output law.

    Discretizes each score to the upper edge of its half-open bin, forms the
    weight max(#below / q, #above / (1-q)) per candidate edge, and applies
    the softmax exp(-epsilon * w / (2 * max(1/q, 1/(1-q)))).
    """
    edges = list(edges)
    inner = edges[1:]
    discretized = []
    for s in scores:
        for e_prev, e in zip(edges, inner):
            if e_prev < s <= e:
                discretized.append(e)
                break
        else:
            raise AssertionError(f"score {s} outside the grid")
    weights = []
    for e in inner:
        below = sum(1 for d in discretized if d < e)
        above = sum(1 for d in discretized if d > e)
        weights.append(max(below / q, above / (1.0 - q)))
    sensitivity = max(1.0 / q, 1.0 / (1.0 - q))
    raw = [math.exp(-epsilon * w / (2.0 * sensitivity)) for w in weights]
    total = sum(raw)
    return np.array([r / total for r in raw])


# ---------------------------------------------------------------------------
# private release: the per-agent loop the block release in ``fedcal.privacy``
# replaced, kept as its reference
# ---------------------------------------------------------------------------


def _edge_weights_one_agent(scores, q, grid) -> np.ndarray:
    index = grid.bin_index(scores)
    n = index.size
    counts = np.bincount(index, minlength=grid.bins + 1)[1:]
    at_or_below = np.cumsum(counts)
    below = at_or_below - counts
    above = n - at_or_below
    if q >= 0.5:
        return np.maximum(below * ((1.0 - q) / q), above)
    return np.maximum(below, above * (q / (1.0 - q)))


def private_quantile_one_agent(scores, q, epsilon, grid, rng) -> float:
    """One agent's edge: Gumbel-max over its own B log-weights."""
    logits = -0.5 * epsilon * _edge_weights_one_agent(scores, q, grid)
    choice = int(np.argmax(logits + rng.gumbel(size=logits.size)))
    return float(grid.edges[choice + 1])


def private_release_by_agent(agents, q, epsilon, grid, rng) -> list[float]:
    """Each agent's edge in turn, agent j drawing from the j-th stream of
    ``rng.spawn(m)``."""
    streams = rng.spawn(len(agents))
    return [private_quantile_one_agent(a, q, epsilon, grid, s) for a, s in zip(agents, streams)]


# ---------------------------------------------------------------------------
# score files: the per-row reader the bulk parser in ``fedcal.conformal``
# replaced, kept as its reference
# ---------------------------------------------------------------------------


def read_scores_csv_by_rows(path) -> np.ndarray:
    """Scores from a one-column CSV, optionally headed by a 'score' line."""
    return _one_column_scores(path, _read_rows(path))


def _one_column_scores(path, rows) -> np.ndarray:
    scores = []
    for line_no, row in rows:
        if len(row) != 1:
            raise InvalidArgumentError(
                f"{path}:{line_no}: expected one score per line, got {len(row)} fields"
            )
        scores.append(_parse_score(path, line_no, row[0]))
    if not scores:
        raise InvalidArgumentError(f"{path}: no scores found")
    return np.array(scores)


def read_score_matrix_csv_by_rows(paths: Sequence) -> list[np.ndarray]:
    """Per-agent scores from one file per agent, or one agent/score file.

    A single path whose rows have two fields is treated as an
    ``agent,score`` table (agent ids are nonnegative integers; every agent
    id up to the maximum must appear). Otherwise each path contributes one
    agent in order.
    """
    paths = list(paths)
    if len(paths) == 1:
        rows = _read_rows(paths[0])
        if rows and len(rows[0][1]) == 2:
            return _group_by_agent(paths[0], rows)
        return [_one_column_scores(paths[0], rows)]
    return [read_scores_csv_by_rows(p) for p in paths]


def _group_by_agent(path, rows) -> list[np.ndarray]:
    by_agent: dict[int, list[float]] = {}
    for line_no, row in rows:
        if len(row) != 2:
            raise InvalidArgumentError(
                f"{path}:{line_no}: expected 'agent,score', got {len(row)} fields"
            )
        try:
            agent = int(row[0])
        except ValueError:
            raise InvalidArgumentError(
                f"{path}:{line_no}: agent id {row[0]!r} is not an integer"
            ) from None
        if agent < 0:
            raise InvalidArgumentError(f"{path}:{line_no}: agent id must be >= 0")
        by_agent.setdefault(agent, []).append(_parse_score(path, line_no, row[1]))
    missing = set(range(max(by_agent) + 1)) - set(by_agent)
    if missing:
        raise InvalidArgumentError(f"{path}: no scores for agent(s) {sorted(missing)}")
    return [np.array(by_agent[a]) for a in sorted(by_agent)]


_HEADERS = {("score",), ("agent", "score")}


def _read_rows(path) -> list[tuple[int, list[str]]]:
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            cells = [cell.strip() for cell in row]
            if line_no == 1 and tuple(c.lower() for c in cells) in _HEADERS:
                continue
            rows.append((line_no, cells))
    return rows


def _parse_score(path, line_no: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidArgumentError(
            f"{path}:{line_no}: {text!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{path}:{line_no}: score {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# simulator: the per-replication loops that seed every stream through
# ``substream``, kept as the reference of the bulk-seeded ones
# ---------------------------------------------------------------------------


def _replication_by_substream(sampler, seed: int, rep: int, m: int, n: int) -> np.ndarray:
    """Replication ``rep``'s (m, n) score block: row j is agent j's n draws
    from ``substream(seed, rep, j)``."""
    block = np.empty((m, n))
    for j in range(m):
        block[j] = sampler.sample(substream(seed, rep, j), n)
    return block


def coverage_rows_by_substream(
    spec, replications, method, sampler, test_size, *, dp_config=None, shifts=None
) -> list[dict]:
    """``coverage_experiment``'s rows, each stream built by ``substream``."""
    offsets = _agent_shifts(shifts, spec.m)[:, None]
    table = CoverageTable(key=TableKey(spec.m, spec.n))
    rows: list[dict] = []
    for rep in range(replications):
        agents = _replication_by_substream(sampler, spec.seed, rep, spec.m, spec.n) + offsets
        result, _ = run_one_shot(
            spec,
            agents,
            method,
            table=table,
            dp_config=dp_config,
            rng=substream(spec.seed, rep, spec.m + 1),
        )
        test = sampler.sample(substream(spec.seed, rep, spec.m), test_size)
        coverage = float(np.mean(test <= result.q_hat))
        rows.append(
            {
                "method": result.method,
                "replication": rep,
                "coverage": coverage,
                "mean_length": 2.0 * result.q_hat,
                "q_hat": result.q_hat,
                "seed": spec.seed,
            }
        )
    return rows


def conditional_alpha_p_by_substream(spec, replications, sampler, ranks) -> np.ndarray:
    """``conditional_coverage_experiment``'s ``alpha_p`` at ``ranks``, each
    stream built by ``substream``."""
    l, k = ranks.local_rank, ranks.server_rank
    alpha_p = np.empty(replications)
    for rep in range(replications):
        local = _kth_smallest(_replication_by_substream(sampler, spec.seed, rep, spec.m, spec.n), l)
        alpha_p[rep] = 1.0 - float(sampler.cdf(_kth_smallest(local, k)))
    return alpha_p
