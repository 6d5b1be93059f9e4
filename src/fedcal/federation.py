"""One-shot protocol simulation and heterogeneity diagnostics.

``METHODS`` is the one registry of calibration methods, keyed by their
command-line names; the CLI, :func:`run_one_shot` and the simulator all
bind through it. Every federated calibration returns its round's
transcript on the result, so the single-round property (exactly one
uplink message per agent) is asserted rather than assumed;
:func:`run_one_shot` returns that transcript alongside the result. All
randomness derives from a master seed via counter-style spawn keys, one
stream per (replication, agent), so results are reproducible under any
execution order. The simulator seeds those streams, and the private
round's agent streams, in one vectorised pass; each is still exactly the
``substream`` of its key.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .conformal import (
    CalibrationResult,
    Transcript,
    _bind_qq,
    fedcp_avg_calibrate,
    split_cp_calibrate,
)
from .coverage_table import CoverageTable, RankPair, TableKey
from .errors import InternalError, InvalidArgumentError, ProtocolViolationError
from .errors import check_alpha, check_integer
from .order_stats import as_block
from .privacy import DpConfig, _bind_private

__all__ = [
    "FederationSpec",
    "Method",
    "METHODS",
    "Transcript",
    "UniformScores",
    "ExponentialScores",
    "OutlierScores",
    "SAMPLERS",
    "substream",
    "run_one_shot",
    "ExperimentResult",
    "coverage_experiment",
    "write_rows_csv",
    "poisson_binomial_diagnostic",
    "heterogeneity_tv_penalty",
]


@dataclass(frozen=True)
class FederationSpec:
    """m agents holding n scores each, the miscoverage level, and the master seed."""

    m: int
    n: int
    alpha: float
    seed: int = 0

    def __post_init__(self) -> None:
        if check_integer(self.m, "m") < 1:
            raise InvalidArgumentError(f"need at least one agent, got m={self.m}")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        if check_integer(self.n, "n") < 1:
            raise InvalidArgumentError(f"every local size must be >= 1, got n={self.n}")
        if check_integer(self.seed, "the seed") < 0:
            raise InvalidArgumentError(f"the seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# score distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformScores:
    """Scores uniform on [0, 1].

    ``sample`` draws ``rng.random(size)``, which equals ``rng.uniform(0.0,
    1.0, size)`` bit for bit: numpy computes ``uniform(low, high)`` as ``low
    + (high - low) * U`` from the same double U that ``random`` returns, and
    ``0 + 1 * U`` is exactly U. It skips ``uniform``'s argument handling.
    """

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def cdf(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class ExponentialScores:
    """Scores exponential with rate 1."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0, size)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-np.minimum(x, 1e308)))


_TAIL_PROB = 0.01
_TAIL_SCALE = 50.0


@dataclass(frozen=True)
class OutlierScores:
    """Uniform scores on [0, 1], each replaced with probability 1% by one
    uniform on [0, 50]: a rare heavy right tail the mean is not robust to.

    ``sample`` makes the draws of ``uniform(0.0, 1.0, size)``, ``uniform(0.0,
    50.0, size)`` and ``uniform(0.0, 1.0, size)``, in that order, from
    ``random``: ``uniform(0, h)`` is ``0 + h * U``, which equals ``h * U``
    even where numpy fuses the multiply and the add (see ``UniformScores``).
    """

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        base = rng.random(size)
        tail = _TAIL_SCALE * rng.random(size)
        is_tail = rng.random(size) < _TAIL_PROB
        return np.where(is_tail, tail, base)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (1.0 - _TAIL_PROB) * np.clip(x, 0.0, 1.0) + _TAIL_PROB * np.clip(
            x / _TAIL_SCALE, 0.0, 1.0
        )


SAMPLERS: dict[str, Callable[[], object]] = {
    "uniform": UniformScores,
    "exponential": ExponentialScores,
    "outlier": OutlierScores,
}


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (replication, agent, ...) counter key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def _agent_shifts(shifts: Sequence[float] | None, m: int) -> np.ndarray:
    """Per-agent location shifts as a length-m array; None means no shift."""
    if shifts is None:
        return np.zeros(m)
    arr = np.asarray(shifts, dtype=float)
    if arr.shape != (m,):
        raise InvalidArgumentError(f"need one shift per agent ({m}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("shifts must be finite")
    return arr


def _replication(sampler, streams: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """The (m, n) score block whose row j is n draws from ``streams[j]``."""
    block = np.empty((len(streams), n))
    for j, stream in enumerate(streams):
        block[j] = sampler.sample(stream, n)
    return block


# numpy.random.SeedSequence's hash constants, and its word mask
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# keys seeded per pass: bounds the pass's temporaries to a few MiB
_KEYS_PER_PASS = 1 << 16


def _hash(value: np.ndarray, const: int, mult: int):
    """SeedSequence's multiply-xorshift step on uint32 words, with the next
    hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two arrays of uint32 words."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _stream_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """Row i is ``SeedSequence(seed, spawn_key=keys[i]).generate_state(4,
    np.uint64)``, the state ``substream`` seeds PCG64 with.

    ``keys`` is a (count, d) array of integers in [0, 2^32), one 32-bit word
    each. numpy mixes every word of the seed into its pool before any word
    of the spawn key, and a missing pool word is a zero pad, so the keys
    start from ``SeedSequence(seed).pool`` with the hash constant after its
    4 * max(words, 4) steps; only the key words are mixed here, in bulk.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidArgumentError(f"the seed must be >= 0, got {seed}")
    if not np.all((keys >= 0) & (keys <= _MASK32)):
        raise InternalError("every spawn-key element must lie in [0, 2^32)")
    const = _INIT_A * pow(_MULT_A, 4 * max(-(-seed.bit_length() // 32), 4), 1 << 32) & _MASK32
    pool = [np.full(len(keys), word, dtype=np.uint32) for word in np.random.SeedSequence(seed).pool]
    for key_word in keys.astype(np.uint32).T:
        for dst in range(4):
            word, const = _hash(key_word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    states = np.empty((len(keys), 4), dtype=np.uint64)
    const, halves = _INIT_B, []
    for i in range(8):
        word, const = _hash(pool[i % 4], const, _MULT_B)
        halves.append(word.astype(np.uint64))
    for j in range(4):  # 64-bit word j is 32-bit words 2j (low) and 2j + 1 (high)
        states[:, j] = halves[2 * j] | halves[2 * j + 1] << 32
    return states


class _Preseeded(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed 4-word state."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the np.uint64 type itself, which needs no normalising
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise InternalError(f"a preseeded stream holds 4 uint64 words, not {n_words} {dtype}")
        return self.state


def _replication_streams(
    seed: int, replications: int, count: int, children: int = 0
) -> Iterator[list[np.random.Generator]]:
    """For each replication r in turn, the generators equal to
    ``substream(seed, r, j)`` for j < ``count``, then to
    ``substream(seed, r, count, i)`` for i < ``children``: the streams
    ``substream(seed, r, count).spawn(children)`` would give.

    States are computed in bulk, for as many replications as
    ``_KEYS_PER_PASS`` keys hold; a replication's generators are built
    only when it is reached.
    """
    reps_per_pass = max(1, _KEYS_PER_PASS // (count + children))
    for start in range(0, replications, reps_per_pass):
        reps = np.arange(start, min(start + reps_per_pass, replications))
        states = _key_states(seed, reps, np.arange(count))
        if children:
            spawned = _key_states(seed, reps, [count], np.arange(children))
            states = np.concatenate([states, spawned], axis=1)
        for rep_states in states:
            yield [np.random.Generator(np.random.PCG64(_Preseeded(row))) for row in rep_states]


def _key_states(seed: int, reps: np.ndarray, *suffixes) -> np.ndarray:
    """``_stream_states`` of every key (r, *suffix) with r in ``reps`` and
    the suffix's elements drawn from ``suffixes``, as (len(reps), keys, 4)."""
    keys = np.stack(np.meshgrid(reps, *suffixes, indexing="ij"), axis=-1)
    return _stream_states(seed, keys.reshape(-1, keys.shape[-1])).reshape(reps.size, -1, 4)


# ---------------------------------------------------------------------------
# protocol simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """How the CLI and the simulator run one calibration method.

    ``bind(alpha, *, table, dp_config)`` returns ``calibrate(agents,
    spawn)``, which checks its inputs, runs the method and returns its
    result; the result carries the round's transcript, or None when the
    method runs no round. A method that chooses ranks (or gamma) makes the
    choice at the first call and keeps it for later calls of the same
    shape, so a caller running many rounds binds once. ``spawn(m)`` gives
    the private round's m agent streams and is ignored by the others.
    ``table`` marks the methods whose coverage table the CLI may load from
    and save to a cache, ``private`` those that need a DpConfig and
    ``spawn``, and ``one_shot`` those that fit one uplink message per agent,
    which :func:`run_one_shot` requires.
    """

    bind: Callable[..., Callable[..., CalibrationResult]]
    table: bool = False
    private: bool = False
    one_shot: bool = True


METHODS: dict[str, Method] = {
    "centralized": Method(
        lambda alpha, **_: lambda agents, spawn: split_cp_calibrate(np.concatenate(agents), alpha),
        one_shot=False,
    ),
    "fedcp-qq": Method(lambda alpha, *, table, **_: _bind_qq(alpha, table), table=True),
    "fedcp-avg": Method(
        lambda alpha, **_: lambda agents, spawn: fedcp_avg_calibrate(agents, alpha)
    ),
    "fedcp2-qq": Method(
        lambda alpha, *, table, dp_config: _bind_private(alpha, dp_config, table),
        table=True,
        private=True,
    ),
}


def _method_entry(method: str, dp_config: DpConfig | None) -> Method:
    """The ``METHODS`` entry for ``method``, whose underscores may stand for
    hyphens, once checked to have what it needs."""
    entry = METHODS.get(method.replace("_", "-"))
    if entry is None:
        raise InvalidArgumentError(f"unknown method {method!r}")
    if entry.private and dp_config is None:
        raise InvalidArgumentError("the private method needs a DpConfig")
    return entry


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
    calibrator directly, and the transcript is its ``result.transcript``.
    Methods that cannot operate on one message per agent are rejected, and
    so are scores that are not ``spec.m`` agents of ``spec.n`` each.
    """
    agents = as_block(scores)
    if agents.shape != (spec.m, spec.n):
        raise InvalidArgumentError(
            f"expected {spec.m} agents of {spec.n} scores each, "
            f"got {agents.shape[0]} of {agents.shape[1]}"
        )
    entry = _method_entry(method, dp_config)
    if not entry.one_shot:
        raise ProtocolViolationError(
            f"{method} calibration needs every local score, which exceeds "
            "one uplink message per agent"
        )
    if entry.private and rng is None:
        rng = np.random.default_rng(spec.seed)
    calibrate = entry.bind(spec.alpha, table=table, dp_config=dp_config)
    result = calibrate(agents, None if rng is None else rng.spawn)
    return result, result.transcript


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
    shifts: Sequence[float] | None = None,
) -> ExperimentResult:
    """Repeated sample -> calibrate -> evaluate on fresh test scores.

    Agent j's calibration scores are ``shifts[j]`` plus draws from
    ``sampler`` (no shift when ``shifts`` is None); test scores are
    unshifted draws. Coverage is the fraction of test scores at or below
    the threshold; the reported length is 2 * q_hat, the width of an
    absolute-residual interval with that threshold. One row per
    replication is kept for export. Identical (spec, seed) inputs
    reproduce identical output.

    ``method`` is any ``METHODS`` name, ``centralized`` included, which
    calibrates on the m agents' pooled scores: only :func:`run_one_shot`,
    which simulates a protocol round, refuses a method that exceeds one
    uplink message per agent. For the private method the agents'
    calibration scores are clipped at ``dp_config.grid.s_max``, as
    :class:`~fedcal.privacy.BinGrid` asks of its caller; test scores stay
    raw, so a threshold at the top edge covers only those up to s_max.
    """
    if check_integer(replications, "replications") < 1:
        raise InvalidArgumentError(f"replications must be >= 1, got {replications}")
    if check_integer(test_size, "test_size") < 1:
        raise InvalidArgumentError(f"test_size must be >= 1, got {test_size}")
    m = spec.m
    offsets = _agent_shifts(shifts, m)[:, None]
    entry = _method_entry(method, dp_config)
    # bound once: the ranks (or gamma) are chosen at the first replication
    calibrate = entry.bind(spec.alpha, table=None, dp_config=dp_config)
    rows: list[dict] = []
    # in replication r, stream (r, j) holds agent j's scores for j < m and
    # (r, m) the test scores; the private round's agent j draws its noise
    # from (r, m + 1, j), the j-th child of substream(seed, r, m + 1)
    children = m if entry.private else 0
    for rep, streams in enumerate(_replication_streams(spec.seed, replications, m + 1, children)):
        agents = _replication(sampler, streams[:m], spec.n) + offsets
        if entry.private:
            agents = np.minimum(agents, dp_config.grid.s_max)
        result = calibrate(agents, lambda _: streams[m + 1 :])
        test = sampler.sample(streams[m], test_size)
        # np.mean's float64 sum of 0s and 1s is this exact count, so both
        # give the same correctly rounded quotient
        coverage = float(np.count_nonzero(test <= result.q_hat) / test_size)
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


# ---------------------------------------------------------------------------
# heterogeneity diagnostics
# ---------------------------------------------------------------------------


def poisson_binomial_diagnostic(p: Sequence[float]) -> dict:
    """Total-variation distance of a Poisson-Binomial to its mean binomial.

    Returns the exact distance ``exact_tv_to_binomial`` and the upper bound
    ``ehm_upper`` = m/(m+1) * (1 - pbar^(m+1) - (1-pbar)^(m+1)) *
    (1 - sum p(1-p) / (m pbar (1-pbar))), which always dominates it and is
    0 when pbar is 0 or 1. The binomial is the Poisson-Binomial with every
    probability equal to pbar.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidArgumentError("p must be a nonempty probability vector")
    # NaN fails every comparison, so test for the valid range rather than against it
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise InvalidArgumentError("all probabilities must lie in [0, 1]")
    m = p.size
    pbar = float(np.mean(p))
    tv = float(_tv_to_binomial(p))
    if pbar in (0.0, 1.0):  # the spread factor below would divide by zero
        return {"exact_tv_to_binomial": tv, "ehm_upper": 0.0}
    spread = 1.0 - float(np.sum(p * (1.0 - p))) / (m * pbar * (1.0 - pbar))
    mass = 1.0 - pbar ** (m + 1) - (1.0 - pbar) ** (m + 1)
    return {"exact_tv_to_binomial": tv, "ehm_upper": (m / (m + 1.0)) * mass * spread}


def _tv_to_binomial(p: np.ndarray) -> np.ndarray:
    """Exact total variation between the Poisson-Binomial of ``p`` and the
    binomial with its mean probability, over the last axis of ``p``."""
    pbar = np.mean(p, axis=-1, keepdims=True)
    reference = _poisson_binomial_pmf(np.broadcast_to(pbar, p.shape))
    return 0.5 * np.sum(np.abs(_poisson_binomial_pmf(p) - reference), axis=-1)


def _poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """Mass function of a sum of independent Bernoulli(p_j) by convolution,
    over the last axis of ``p``; leading axes are batches."""
    pmf = np.ones(p.shape[:-1] + (1,))
    for j in range(p.shape[-1]):
        prob = p[..., j : j + 1]
        extended = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
        extended[..., :-1] = pmf * (1.0 - prob)
        extended[..., 1:] += pmf * prob
        pmf = extended
    return pmf


def heterogeneity_tv_penalty(
    shifts: Sequence[float],
    base,
    key: TableKey,
    local_rank: int,
    rng: np.random.Generator,
    draws: int = 2000,
) -> float:
    """Monte-Carlo estimate of the coverage penalty under heterogeneity.

    Agent j's scores are ``shifts[j]`` plus draws from ``base``, as in
    :func:`coverage_experiment`. Averages, over ``draws`` test scores S from
    ``base``, the total variation between the Poisson-Binomial of the
    per-agent probabilities P(agent j's local_rank-th order statistic <= S)
    and the binomial with their mean. The i.i.d. coverage minus this
    penalty lower-bounds the heterogeneous coverage.
    """
    from scipy.special import betainc  # on first use, as in coverage_table._entry_engine

    offsets = _agent_shifts(shifts, key.m)
    RankPair(local_rank, 1).validate(key)
    if check_integer(draws, "draws") < 1:
        raise InvalidArgumentError(f"draws must be >= 1, got {draws}")
    s = base.sample(rng, draws)
    per_agent_cdf = base.cdf(s[:, None] - offsets)
    p = betainc(local_rank, key.n - local_rank + 1, np.clip(per_agent_cdf, 0.0, 1.0))
    return float(np.mean(_tv_to_binomial(p)))
