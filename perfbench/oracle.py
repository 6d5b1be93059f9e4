"""Output checks for the benchmark, independent of the package under test.

Coverage comes from the benchmark's own copy of the Gauss-Legendre route
(the same formula as ``tests/oracles.py::coverage_by_quadrature``): the
coverage of rank pair (l, k) is ``1 - ∫₀¹ I_{G(t)}(k, m-k+1) dt`` with
``G(t) = I_t(l, n-l+1)``. The integrand is a polynomial of degree m·n, so
``m·n // 2 + 2`` nodes integrate it exactly up to rounding. Thresholds are
recomputed with plain numpy sorts. Every check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import betainc, roots_legendre

TOL = 1e-9


@lru_cache(maxsize=64)
def _nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(count)
    return 0.5 * (x + 1.0), w


@lru_cache(maxsize=8)
def coverage_matrix(m: int, n: int) -> np.ndarray:
    """Coverage of every rank pair: ``out[l - 1, k - 1]`` for l <= n, k <= m.

    Memoised so the checks of one shape share it; callers must not modify it.
    """
    t, w = _nodes((m * n) // 2 + 2)
    local = np.arange(1, n + 1)[:, None]
    g = betainc(local, n - local + 1, t[None, :])
    server = np.arange(1, m + 1)[:, None, None]
    integrand = betainc(server, m - server + 1, g[None, :, :])
    return 1.0 - 0.5 * (integrand @ w).T


def rank_failures(table: np.ndarray, l: int, k: int, alpha: float, coverage=None) -> list[str]:
    """Rank pair (l, k) must be feasible at 1 - alpha and minimal, within TOL.

    Only pairs clearly above the level (by more than TOL) compete for
    minimality, so a pair sitting on the boundary cannot make a correct
    choice fail.
    """
    n, m = table.shape
    if not (1 <= l <= n and 1 <= k <= m):
        return [f"rank pair ({l}, {k}) outside the ({n}, {m}) table"]
    value = float(table[l - 1, k - 1])
    target = 1.0 - alpha
    failures = []
    if coverage is not None and abs(coverage - value) > TOL:
        failures.append(f"reported coverage {coverage!r} but the oracle gives {value!r}")
    if value < target - TOL:
        failures.append(f"pair ({l}, {k}) has coverage {value!r} below {target!r}")
    competitors = table[table >= target + TOL]
    if competitors.size and value > float(competitors.min()) + TOL:
        failures.append(
            f"pair ({l}, {k}) with coverage {value!r} is not minimal; "
            f"{float(competitors.min())!r} is feasible"
        )
    return failures


def minimal_pairs(table: np.ndarray, alpha: float) -> list[tuple[int, int]]:
    """Every pair that :func:`rank_failures` accepts at level 1 - alpha."""
    n, m = table.shape
    target = 1.0 - alpha
    candidates = np.argwhere(table >= target - TOL)
    return [
        (int(i) + 1, int(j) + 1)
        for i, j in candidates
        if not rank_failures(table, int(i) + 1, int(j) + 1, alpha)
    ]


def qq_threshold(scores: np.ndarray, l: int, k: int) -> float:
    """Two-level order statistic of an (m, n) score matrix at ranks (l, k)."""
    local = np.sort(scores, axis=1)[:, l - 1]
    return float(np.sort(local)[k - 1])


def split_rank(n: int, alpha: float) -> int:
    """The averaging baseline's local rank, ceil((n + 1)(1 - alpha))."""
    return math.ceil((n + 1) * (1.0 - alpha))


def avg_threshold(scores: np.ndarray, alpha: float) -> float:
    """Mean of the agents' split-rank order statistics."""
    rank = split_rank(scores.shape[1], alpha)
    return float(np.mean(np.sort(scores, axis=1)[:, rank - 1]))


def grid_edges(smax: float, bins: int) -> set[float]:
    return set(np.linspace(0.0, smax, bins + 1)[1:].tolist())


def qq_failures(payload: dict, scores: np.ndarray, alpha: float, table: np.ndarray) -> list[str]:
    """Check a ``fedcp-qq`` result: ranks, coverage and threshold."""
    params = payload["params"]
    l, k = int(params["local_rank"]), int(params["server_rank"])
    failures = rank_failures(table, l, k, alpha, payload["guaranteed_coverage"])
    if failures:
        return failures
    expected = qq_threshold(scores, l, k)
    if payload["q_hat"] != expected:
        failures.append(f"q_hat {payload['q_hat']!r} but ranks ({l}, {k}) give {expected!r}")
    return failures


def avg_failures(payload: dict, scores: np.ndarray, alpha: float) -> list[str]:
    """Check a ``fedcp-avg`` result: mean of the split-rank statistics."""
    expected = avg_threshold(scores, alpha)
    if not math.isclose(payload["q_hat"], expected, rel_tol=1e-12, abs_tol=0.0):
        return [f"q_hat {payload['q_hat']!r} but the split-rank mean is {expected!r}"]
    if payload["guaranteed_coverage"] is not None:
        return ["the averaging baseline reported a guarantee"]
    return []


def private_failures(
    payload: dict, alpha: float, table: np.ndarray, smax: float, bins: int
) -> list[str]:
    """Check a ``fedcp2-qq`` result: ranks at the inflated level, the
    corrected rank and its coverage, and a grid-edge threshold."""
    params = payload["params"]
    n = table.shape[0]
    l, k = int(params["local_rank"]), int(params["server_rank"])
    gamma, correction = float(params["gamma"]), int(params["correction"])
    alpha_eff = 1.0 - (1.0 - alpha) / (1.0 - gamma * alpha)
    failures = rank_failures(table, l, k, alpha_eff)
    if l + correction > n:
        failures.append(f"corrected local rank {l + correction} exceeds n = {n}")
    else:
        corrected = float(table[l + correction - 1, k - 1])
        if abs(params["corrected_coverage"] - corrected) > TOL:
            failures.append(
                f"corrected coverage {params['corrected_coverage']!r}, oracle {corrected!r}"
            )
    if payload["q_hat"] not in grid_edges(smax, bins):
        failures.append(f"q_hat {payload['q_hat']!r} is not a grid edge")
    if payload["guaranteed_coverage"] != 1.0 - alpha:
        failures.append(f"guarantee {payload['guaranteed_coverage']!r} is not 1 - alpha")
    return failures


def self_test() -> list[str]:
    """Feed the checks a wrong rank pair and a wrong threshold.

    Returns the names of the wrong outputs the checks failed to reject.
    """
    m, n, alpha = 4, 6, 0.2
    table = coverage_matrix(m, n)
    scores = np.random.default_rng(0).random((m, n)) + 0.5
    l, k = minimal_pairs(table, alpha)[0]
    good = {
        "q_hat": qq_threshold(scores, l, k),
        "guaranteed_coverage": float(table[l - 1, k - 1]),
        "params": {"local_rank": l, "server_rank": k},
    }
    missed = []
    if qq_failures(good, scores, alpha, table):
        missed.append("correct output was rejected")
    wrong_k = k + 1 if k < m else k - 1
    wrong_ranks = dict(good, params={"local_rank": l, "server_rank": wrong_k})
    wrong_ranks["guaranteed_coverage"] = float(table[l - 1, wrong_k - 1])
    wrong_ranks["q_hat"] = qq_threshold(scores, l, wrong_k)
    if not qq_failures(wrong_ranks, scores, alpha, table):
        missed.append("wrong rank pair")
    wrong_q = dict(good, q_hat=float(np.nextafter(good["q_hat"], np.inf)))
    if not qq_failures(wrong_q, scores, alpha, table):
        missed.append("wrong q_hat")
    return missed
