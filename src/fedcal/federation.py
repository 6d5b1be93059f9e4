"""One-shot protocol simulation, synthetic data, and heterogeneity diagnostics.

``METHODS`` is the one registry of calibration methods, keyed by their
command-line names; the CLI and :func:`run_one_shot` both dispatch through
it. Every calibration records its round in a transcript, so the
single-round property (exactly one uplink message per agent) is asserted
rather than assumed; :func:`run_one_shot` returns that transcript. All
randomness derives from a master seed via counter-style spawn keys, one
stream per (replication, agent), so results are reproducible under any
execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc, ndtr

from .conformal import (
    CalibrationResult,
    Transcript,
    TranscriptRecorder,
    fedcp_avg_calibrate,
    fedcp_qq_calibrate,
    split_cp_calibrate,
)
from .coverage_table import CoverageTable, RankPair, TableKey, _table_for, select_ranks
from .errors import InvalidArgumentError, ProtocolViolationError, check_alpha
from .logspace import log_binom_pmf
from .order_stats import quantile_of_quantiles
from .privacy import DpConfig, fedcp2_qq_calibrate

__all__ = [
    "FederationSpec",
    "Method",
    "METHODS",
    "Transcript",
    "TranscriptRecorder",
    "UniformScores",
    "ExponentialScores",
    "OutlierScores",
    "SAMPLERS",
    "HeterogeneityModel",
    "substream",
    "synthetic_dataset",
    "synthetic_conditional_quantile",
    "run_one_shot",
    "ExperimentResult",
    "coverage_experiment",
    "write_rows_csv",
    "ConditionalCoverageResult",
    "conditional_coverage_experiment",
    "poisson_binomial_diagnostic",
    "heterogeneity_tv_penalty",
]


@dataclass(frozen=True)
class FederationSpec:
    """Agents, local sizes, miscoverage level, and the master seed."""

    m: int
    sizes: int | tuple[int, ...]
    alpha: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvalidArgumentError(f"need at least one agent, got m={self.m}")
        check_alpha(self.alpha)
        sizes = self.size_list
        if len(sizes) != self.m:
            raise InvalidArgumentError(
                f"got {len(sizes)} sizes for m={self.m} agents"
            )
        if min(sizes) < 1:
            raise InvalidArgumentError("every local size must be >= 1")

    @property
    def size_list(self) -> list[int]:
        if isinstance(self.sizes, int):
            return [self.sizes] * self.m
        return [int(s) for s in self.sizes]

    @property
    def balanced_n(self) -> int:
        sizes = set(self.size_list)
        if len(sizes) != 1:
            raise InvalidArgumentError(f"sizes are unbalanced: {sorted(sizes)}")
        return sizes.pop()


# ---------------------------------------------------------------------------
# score distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformScores:
    low: float = 0.0
    high: float = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def cdf(self, x) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.clip((np.asarray(x, dtype=float) - self.low) / (self.high - self.low), 0.0, 1.0)


@dataclass(frozen=True)
class ExponentialScores:
    rate: float = 1.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.minimum(x, 1e308)))


@dataclass(frozen=True)
class OutlierScores:
    """Uniform scores with a rare heavy right tail; the mean is not robust to it."""

    outlier_prob: float = 0.01
    outlier_scale: float = 50.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        base = rng.uniform(0.0, 1.0, size)
        tail = rng.uniform(0.0, self.outlier_scale, size)
        is_tail = rng.uniform(0.0, 1.0, size) < self.outlier_prob
        return np.where(is_tail, tail, base)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            return (1.0 - self.outlier_prob) * np.clip(x, 0.0, 1.0) + self.outlier_prob * np.clip(
                x / self.outlier_scale, 0.0, 1.0
            )


SAMPLERS: dict[str, Callable[[], object]] = {
    "uniform": UniformScores,
    "exponential": ExponentialScores,
    "outlier": OutlierScores,
}


@dataclass(frozen=True)
class HeterogeneityModel:
    """Per-agent affine distortion of a base score distribution.

    Agent j draws ``shift[j] + scale[j] * base``; the identity model keeps
    agents i.i.d. with the test distribution.
    """

    shifts: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.shifts) != len(self.scales) or not self.shifts:
            raise InvalidArgumentError("shifts and scales must be equal-length and nonempty")
        if not all(math.isfinite(s) for s in self.shifts):
            raise InvalidArgumentError("shifts must be finite")
        if any(s <= 0.0 or not math.isfinite(s) for s in self.scales):
            raise InvalidArgumentError("scales must be positive and finite")

    @classmethod
    def identity(cls, m: int) -> "HeterogeneityModel":
        return cls(shifts=(0.0,) * m, scales=(1.0,) * m)

    @classmethod
    def location_shifts(cls, shifts: Sequence[float]) -> "HeterogeneityModel":
        return cls(shifts=tuple(float(s) for s in shifts), scales=(1.0,) * len(shifts))

    def agent_sample(self, base, agent: int, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.shifts[agent] + self.scales[agent] * base.sample(rng, size)

    def agent_cdf(self, base, agent: int, x) -> np.ndarray:
        return base.cdf((np.asarray(x, dtype=float) - self.shifts[agent]) / self.scales[agent])


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (replication, agent, ...) counter key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


# ---------------------------------------------------------------------------
# synthetic regression data
# ---------------------------------------------------------------------------

_POISSON_TERMS = 32
_OUTLIER_PROB = 0.01
_OUTLIER_SD = 25.0


def synthetic_dataset(
    count: int, rng: np.random.Generator, *, outliers: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Draws of the heteroscedastic benchmark generator.

    X is uniform on [1, 5]; Y given X is Poisson(sin^2(X) + 0.1) plus
    0.03 * X * gaussian noise, plus (optionally) a 1%-frequency gaussian
    outlier burst with standard deviation 25.
    """
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    x = rng.uniform(1.0, 5.0, count)
    rate = np.sin(x) ** 2 + 0.1
    y = rng.poisson(rate).astype(float) + 0.03 * x * rng.standard_normal(count)
    if outliers:
        burst = rng.uniform(0.0, 1.0, count) < _OUTLIER_PROB
        y = y + _OUTLIER_SD * burst * rng.standard_normal(count)
    return x, y


def _synthetic_cdf(y: np.ndarray, x: np.ndarray, outliers: bool) -> np.ndarray:
    """P(Y <= y | X = x) under the synthetic generator; shapes broadcast."""
    rate = np.sin(x) ** 2 + 0.1
    counts = np.arange(_POISSON_TERMS, dtype=float)
    log_pois = counts * np.log(rate)[..., None] - rate[..., None] - np.cumsum(
        np.concatenate([[0.0], np.log(np.maximum(counts[1:], 1.0))])
    )
    weights = np.exp(log_pois)
    narrow_sd = 0.03 * x
    shifted = y[..., None] - counts
    cdf = ndtr(shifted / narrow_sd[..., None])
    if outliers:
        wide_sd = np.sqrt(narrow_sd**2 + _OUTLIER_SD**2)
        cdf = (1.0 - _OUTLIER_PROB) * cdf + _OUTLIER_PROB * ndtr(shifted / wide_sd[..., None])
    return np.sum(weights * cdf, axis=-1)


def synthetic_conditional_quantile(
    x, level: float, *, outliers: bool = True, iterations: int = 80
) -> np.ndarray:
    """Exact conditional ``level``-quantile of Y given X under the generator.

    Inverts the mixture c.d.f. by bisection; serves as a stand-in predictor
    so experiments exercise calibration without training any model.
    """
    if not 0.0 < level < 1.0:
        raise InvalidArgumentError(f"level must be in (0, 1), got {level}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = np.full(x.shape, -12.0 * _OUTLIER_SD)
    hi = np.full(x.shape, _POISSON_TERMS + 12.0 * _OUTLIER_SD)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = _synthetic_cdf(mid, x, outliers) < level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# protocol simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """How the CLI and the simulator run one calibration method.

    ``run(agents, alpha, *, table, dp_config, rng, recorder)`` calibrates;
    ``table`` says whether it reads and extends a coverage table,
    ``private`` whether it needs a DpConfig and a generator, and
    ``one_shot`` whether it fits one uplink message per agent.
    """

    run: Callable[..., CalibrationResult]
    table: bool = False
    private: bool = False
    one_shot: bool = True


METHODS: dict[str, Method] = {
    "centralized": Method(
        lambda agents, alpha, **_: split_cp_calibrate(np.concatenate(agents), alpha),
        one_shot=False,
    ),
    "fedcp-qq": Method(
        lambda agents, alpha, *, table, recorder, **_:
            fedcp_qq_calibrate(agents, alpha, table=table, recorder=recorder),
        table=True,
    ),
    "fedcp-avg": Method(
        lambda agents, alpha, *, recorder, **_:
            fedcp_avg_calibrate(agents, alpha, recorder=recorder),
    ),
    "fedcp2-qq": Method(
        lambda agents, alpha, *, table, dp_config, rng, recorder:
            fedcp2_qq_calibrate(agents, alpha, dp_config, rng, table=table, recorder=recorder),
        table=True,
        private=True,
    ),
}


def run_one_shot(
    spec: FederationSpec,
    scores: Sequence[Sequence[float]],
    method: str,
    *,
    table: CoverageTable | None = None,
    dp_config: DpConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[CalibrationResult, Transcript]:
    """Run one calibration round and return it with its transcript.

    ``method`` is a ``METHODS`` name; underscores may stand for its hyphens.
    The returned result is bit-identical to calling the corresponding
    calibrator directly (the recorder only observes messages). Methods that
    cannot operate on one message per agent are rejected.
    """
    if len(scores) != spec.m:
        raise InvalidArgumentError(f"expected {spec.m} agents of scores, got {len(scores)}")
    entry = METHODS.get(method.replace("_", "-"))
    if entry is None:
        raise InvalidArgumentError(f"unknown method {method!r}")
    if not entry.one_shot:
        raise ProtocolViolationError(
            f"{method} calibration needs every local score, which exceeds "
            "one uplink message per agent"
        )
    if entry.private and dp_config is None:
        raise InvalidArgumentError("the private method needs a DpConfig")
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    recorder = TranscriptRecorder(spec.m)
    result = entry.run(
        scores, spec.alpha, table=table, dp_config=dp_config, rng=rng, recorder=recorder
    )
    return result, recorder.finish()


@dataclass
class ExperimentResult:
    rows: list[dict]
    mean_coverage: float
    coverage_se: float
    mean_length: float


def coverage_experiment(
    spec: FederationSpec,
    replications: int,
    method: str,
    sampler,
    test_size: int,
    *,
    dp_config: DpConfig | None = None,
    heterogeneity: HeterogeneityModel | None = None,
    table: CoverageTable | None = None,
) -> ExperimentResult:
    """Repeated sample -> calibrate -> evaluate on fresh test scores.

    Coverage is the fraction of test scores at or below the threshold;
    the reported length is 2 * q_hat, the width of an absolute-residual
    interval with that threshold. One row per replication is kept for
    export. Identical (spec, seed) inputs reproduce identical output.
    """
    if replications < 1:
        raise InvalidArgumentError(f"replications must be >= 1, got {replications}")
    if test_size < 1:
        raise InvalidArgumentError(f"test_size must be >= 1, got {test_size}")
    n = spec.balanced_n
    model = heterogeneity if heterogeneity is not None else HeterogeneityModel.identity(spec.m)
    if len(model.shifts) != spec.m:
        raise InvalidArgumentError(
            f"heterogeneity model covers {len(model.shifts)} agents, spec has {spec.m}"
        )
    table = _table_for(table, spec.m, n)
    rows: list[dict] = []
    for rep in range(replications):
        agents = [
            model.agent_sample(sampler, j, substream(spec.seed, rep, j), n)
            for j in range(spec.m)
        ]
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
    coverages = np.array([row["coverage"] for row in rows])
    se = float(np.std(coverages, ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
    return ExperimentResult(
        rows=rows,
        mean_coverage=float(np.mean(coverages)),
        coverage_se=se,
        mean_length=float(np.mean([row["mean_length"] for row in rows])),
    )


def write_rows_csv(rows: Sequence[dict], path) -> None:
    """Export per-replication rows for external plotting."""
    if not rows:
        raise InvalidArgumentError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


@dataclass
class ConditionalCoverageResult:
    """Per-replication miscoverage of the fixed calibration set."""

    ranks: RankPair
    alpha_p: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.alpha_p))

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.alpha_p, q))


def conditional_coverage_experiment(
    spec: FederationSpec,
    replications: int,
    *,
    sampler,
    ranks: RankPair | None = None,
    table: CoverageTable | None = None,
) -> ConditionalCoverageResult:
    """Distribution of the conditional miscoverage over calibration draws.

    Needs a sampler with a known c.d.f. so each replication's miscoverage
    1 - F(q_hat) is exact rather than estimated. Ranks default to the
    selected pair for (m, n, alpha) but any pair can be forced, e.g. one
    satisfying :func:`fedcal.coverage_table.rank_condition_holds`.
    """
    if replications < 1:
        raise InvalidArgumentError(f"replications must be >= 1, got {replications}")
    cdf = getattr(sampler, "cdf", None)
    if cdf is None:
        raise InvalidArgumentError(
            "conditional coverage needs a sampler with a known cdf"
        )
    n = spec.balanced_n
    key = TableKey(spec.m, n)
    if ranks is None:
        ranks, _ = select_ranks(key, spec.alpha, table=table)
    else:
        ranks.validate(key)
    alpha_p = np.empty(replications)
    for rep in range(replications):
        agents = [sampler.sample(substream(spec.seed, rep, j), n) for j in range(spec.m)]
        q_hat = quantile_of_quantiles(agents, ranks.local_rank, ranks.server_rank)
        alpha_p[rep] = 1.0 - float(cdf(q_hat))
    return ConditionalCoverageResult(ranks=ranks, alpha_p=alpha_p)


# ---------------------------------------------------------------------------
# heterogeneity diagnostics
# ---------------------------------------------------------------------------


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


def poisson_binomial_diagnostic(
    p: Sequence[float], *, lower_constant: float = 1.0
) -> dict:
    """Total-variation distance of a Poisson-Binomial to its mean binomial.

    Returns the exact distance together with structural lower/upper factors
    of the form (1 - pbar^(m+1) - (1-pbar)^(m+1)) * (1 - sum p(1-p) / (m
    pbar (1-pbar))): the upper bound carries its sharp m/(m+1) constant and
    always dominates the exact distance; the matching lower bound holds only
    up to a universal constant that is not pinned down here, so
    ``ehm_lower`` is reported with ``lower_constant`` (default 1) and is not
    itself a certified bound. Both factors degenerate to 0 when pbar is 0
    or 1.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidArgumentError("p must be a nonempty probability vector")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise InvalidArgumentError("all probabilities must lie in [0, 1]")
    m = p.size
    pbar = float(np.mean(p))
    exact_pmf = _poisson_binomial_pmf(p)
    if pbar in (0.0, 1.0):
        reference = np.zeros(m + 1)
        reference[0 if pbar == 0.0 else m] = 1.0
        tv = 0.5 * float(np.sum(np.abs(exact_pmf - reference)))
        return {"exact_tv_to_binomial": tv, "ehm_lower": 0.0, "ehm_upper": 0.0}
    reference = np.exp(log_binom_pmf(m, pbar))
    tv = 0.5 * float(np.sum(np.abs(exact_pmf - reference)))
    spread = 1.0 - float(np.sum(p * (1.0 - p))) / (m * pbar * (1.0 - pbar))
    mass = 1.0 - pbar ** (m + 1) - (1.0 - pbar) ** (m + 1)
    return {
        "exact_tv_to_binomial": tv,
        "ehm_lower": lower_constant * mass * spread,
        "ehm_upper": (m / (m + 1.0)) * mass * spread,
    }


def heterogeneity_tv_penalty(
    model: HeterogeneityModel,
    base,
    key: TableKey,
    local_rank: int,
    rng: np.random.Generator,
    draws: int = 2000,
) -> float:
    """Monte-Carlo estimate of the coverage penalty under heterogeneity.

    Averages, over test scores S from the base distribution, the total
    variation between the Poisson-Binomial of the per-agent probabilities
    P(agent j's local_rank-th order statistic <= S) and the binomial with
    their mean. The i.i.d. coverage minus this penalty lower-bounds the
    heterogeneous coverage.
    """
    m, n = key.m, key.n
    if len(model.shifts) != m:
        raise InvalidArgumentError(f"model covers {len(model.shifts)} agents, key has {m}")
    RankPair(local_rank, 1).validate(key)
    s = base.sample(rng, draws)
    per_agent_cdf = np.stack([model.agent_cdf(base, j, s) for j in range(m)], axis=1)
    p = betainc(local_rank, n - local_rank + 1, np.clip(per_agent_cdf, 0.0, 1.0))
    pmf = _poisson_binomial_pmf(p)
    pbar = np.clip(np.mean(p, axis=1, keepdims=True), 1e-300, 1.0 - 1e-16)
    reference = np.exp(log_binom_pmf(m, pbar))
    tv = 0.5 * np.sum(np.abs(pmf - reference), axis=1)
    return float(np.mean(tv))
