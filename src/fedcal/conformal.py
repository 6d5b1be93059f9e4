"""Score functions, prediction intervals, and the calibration strategies.

Calibrators consume precomputed nonconformity scores; predictors stay
opaque callables supplied by the caller, since fitting models is out of
scope here. Set membership is the non-strict rule ``score <= q_hat``, so a
threshold of ``inf`` yields the vacuous interval (-inf, inf).

Every federated calibrator is one protocol round (:func:`_one_shot_round`):
the server broadcasts parameters, each agent sends one number, and the
server reduces the m numbers. The calibrators differ only in the local
function and the reducer. Every round is recorded by a
:class:`TranscriptRecorder`, which enforces one uplink message per agent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .coverage_table import CoverageTable, _table_for, select_ranks
from .errors import InvalidArgumentError, ProtocolViolationError, check_alpha
from .order_stats import as_matrix, as_sample, order_statistic

__all__ = [
    "ScoreFunction",
    "CalibrationResult",
    "PredictionInterval",
    "Transcript",
    "TranscriptRecorder",
    "split_rank",
    "split_cp_calibrate",
    "fedcp_qq_calibrate",
    "fedcp_avg_calibrate",
    "predict_interval",
    "evaluate_intervals",
    "read_scores_csv",
    "read_score_matrix_csv",
]

ABSOLUTE_RESIDUAL = "absolute_residual"
CQR = "cqr"


@dataclass(frozen=True)
class ScoreFunction:
    """A nonconformity score built from caller-supplied predictors.

    ``absolute_residual`` wraps a point predictor f and scores |y - f(x)|;
    ``cqr`` wraps a (lower, upper) quantile pair and scores
    max(lower(x) - y, y - upper(x)), which may be negative. CQR scores are
    deliberately not clamped at zero: clamping would tie scores together and
    break their exchangeability with the test score.
    """

    kind: str
    predict: Callable | None = None
    predict_lower: Callable | None = None
    predict_upper: Callable | None = None

    @classmethod
    def absolute_residual(cls, predict: Callable) -> "ScoreFunction":
        return cls(kind=ABSOLUTE_RESIDUAL, predict=predict)

    @classmethod
    def cqr(cls, predict_lower: Callable, predict_upper: Callable) -> "ScoreFunction":
        return cls(kind=CQR, predict_lower=predict_lower, predict_upper=predict_upper)

    def score(self, x, y):
        """Nonconformity score of observation(s) (x, y)."""
        if self.kind == ABSOLUTE_RESIDUAL:
            return np.abs(np.asarray(y, dtype=float) - np.asarray(self.predict(x), dtype=float))
        if self.kind == CQR:
            y = np.asarray(y, dtype=float)
            lo = np.asarray(self.predict_lower(x), dtype=float)
            hi = np.asarray(self.predict_upper(x), dtype=float)
            return np.maximum(lo - y, y - hi)
        raise InvalidArgumentError(f"unknown score kind {self.kind!r}")


@dataclass(frozen=True)
class CalibrationResult:
    """Threshold plus provenance from one calibration run."""

    q_hat: float
    method: str
    guaranteed_coverage: float | None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PredictionInterval:
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise InvalidArgumentError(
                f"interval bounds out of order: [{self.lower}, {self.upper}]"
            )

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


def split_rank(n: int, alpha: float) -> int:
    """Order-statistic rank ceil((n + 1) * (1 - alpha)) used by split calibration."""
    return math.ceil((n + 1) * (1.0 - alpha))


@dataclass(frozen=True)
class Transcript:
    """Record of one protocol round: broadcast parameters and m uplinks."""

    downlink: dict
    uplinks: tuple[tuple[int, float], ...]

    @property
    def payloads(self) -> np.ndarray:
        return np.array([payload for _, payload in self.uplinks])


class TranscriptRecorder:
    """Collects the messages of one round and enforces the one-shot rule."""

    def __init__(self, m: int):
        self._m = m
        self._downlink: dict = {}
        self._uplinks: dict[int, float] = {}

    def downlink(self, params: dict) -> None:
        self._downlink.update(params)

    def uplink(self, agent: int, payload: float) -> None:
        if not 0 <= agent < self._m:
            raise ProtocolViolationError(f"unknown agent id {agent}")
        if agent in self._uplinks:
            raise ProtocolViolationError(
                f"agent {agent} attempted a second uplink; one message per round"
            )
        payload = float(payload)
        if math.isnan(payload):
            raise ProtocolViolationError(f"agent {agent} sent a non-numeric payload")
        self._uplinks[agent] = payload

    def finish(self) -> Transcript:
        missing = [j for j in range(self._m) if j not in self._uplinks]
        if missing:
            raise ProtocolViolationError(f"agents {missing} never sent their message")
        return Transcript(dict(self._downlink), tuple(sorted(self._uplinks.items())))


def _one_shot_round(
    agents: np.ndarray,
    downlink: dict,
    local: Callable[[np.ndarray], np.ndarray],
    reduce: Callable[[np.ndarray], float],
    recorder: TranscriptRecorder | None,
) -> float:
    """Broadcast ``downlink``, take one message per agent, reduce them.

    ``local`` maps the (m, n) score matrix to the m messages, agent j's
    message computed from row j alone; ``reduce`` is the server's aggregate
    of the recorded messages. A fresh recorder is used when none is given.
    """
    if recorder is None:
        recorder = TranscriptRecorder(len(agents))
    recorder.downlink(downlink)
    for j, message in enumerate(local(agents)):
        recorder.uplink(j, message)
    return reduce(recorder.finish().payloads)


def _local_order_statistics(rank: int) -> Callable[[np.ndarray], np.ndarray]:
    """Local function: each agent's ``rank``-th smallest score."""
    return lambda agents: np.partition(agents, rank - 1, axis=1)[:, rank - 1]


def _server_order_statistic(rank: int) -> Callable[[np.ndarray], float]:
    """Reducer: the ``rank``-th smallest of the m messages."""
    return lambda sent: float(np.partition(sent, rank - 1)[rank - 1])


def split_cp_calibrate(
    scores: Sequence[float], alpha: float, *, score_kind: str | None = None
) -> CalibrationResult:
    """Centralized split calibration on one pooled score sample.

    The threshold is the ceil((n+1)(1-alpha))-th smallest score, or ``inf``
    when that rank exceeds n (the guarantee then holds vacuously).
    """
    check_alpha(alpha)
    sample = as_sample(scores, allow_empty=False)
    rank = split_rank(sample.size, alpha)
    q_hat = order_statistic(sample, rank)
    return CalibrationResult(
        q_hat=q_hat,
        method="centralized",
        guaranteed_coverage=1.0 - alpha,
        params=_with_kind({"n": sample.size, "rank": rank, "alpha": alpha}, score_kind),
    )


def fedcp_qq_calibrate(
    scores: Sequence[Sequence[float]],
    alpha: float,
    *,
    table: CoverageTable | None = None,
    score_kind: str | None = None,
    recorder: TranscriptRecorder | None = None,
) -> CalibrationResult:
    """One-shot federated calibration through the quantile-of-quantiles.

    Selects the rank pair with minimal coverage >= 1 - alpha for the (m, n)
    at hand (reusing ``table`` when given), asks every agent for its
    local-rank order statistic, and takes the server-rank smallest of those
    m values. The guarantee reported is the exact table coverage, which for
    continuous scores is also the attained coverage.
    """
    check_alpha(alpha)
    agents = np.array(as_matrix(scores, balanced=True))
    m, n = agents.shape
    table = _table_for(table, m, n)
    ranks, coverage = select_ranks(table.key, alpha, table=table)
    l, k = ranks.local_rank, ranks.server_rank
    q_hat = _one_shot_round(
        agents, {"local_rank": l}, _local_order_statistics(l), _server_order_statistic(k), recorder
    )
    return CalibrationResult(
        q_hat=q_hat,
        method="fedcp_qq",
        guaranteed_coverage=coverage,
        params=_with_kind(
            dict(m=m, n=n, alpha=alpha, local_rank=l, server_rank=k),
            score_kind,
        ),
    )


def fedcp_avg_calibrate(
    scores: Sequence[Sequence[float]],
    alpha: float,
    *,
    score_kind: str | None = None,
    recorder: TranscriptRecorder | None = None,
) -> CalibrationResult:
    """Baseline that averages the agents' split-rank order statistics.

    Carries no coverage guarantee (``guaranteed_coverage`` is None) and
    fails outright when ceil((n+1)(1-alpha)) > n, since the local quantile
    it averages is undefined there.
    """
    check_alpha(alpha)
    agents = np.array(as_matrix(scores, balanced=True))
    m, n = agents.shape
    rank = split_rank(n, alpha)
    if rank > n:
        raise InvalidArgumentError(
            f"averaging baseline needs rank {rank} <= n = {n}; with so few scores "
            f"per agent the local quantile it averages does not exist"
        )
    q_hat = _one_shot_round(
        agents,
        {"local_rank": rank},
        _local_order_statistics(rank),
        lambda sent: float(np.mean(sent)),
        recorder,
    )
    return CalibrationResult(
        q_hat=q_hat,
        method="fedcp_avg",
        guaranteed_coverage=None,
        params=_with_kind({"m": m, "n": n, "alpha": alpha, "local_rank": rank}, score_kind),
    )


def _with_kind(params: dict, score_kind: str | None) -> dict:
    if score_kind is not None:
        params["score_kind"] = score_kind
    return params


def predict_interval(x, result: CalibrationResult, sf: ScoreFunction) -> PredictionInterval:
    """Interval of responses whose score at x stays within the threshold."""
    recorded = result.params.get("score_kind")
    if recorded is not None and recorded != sf.kind:
        raise InvalidArgumentError(
            f"calibration used score kind {recorded!r} but prediction uses {sf.kind!r}"
        )
    q = result.q_hat
    if math.isinf(q):
        return PredictionInterval(-math.inf, math.inf)
    if sf.kind == ABSOLUTE_RESIDUAL:
        center = float(sf.predict(x))
        return PredictionInterval(center - q, center + q)
    if sf.kind == CQR:
        return PredictionInterval(float(sf.predict_lower(x)) - q, float(sf.predict_upper(x)) + q)
    raise InvalidArgumentError(f"unknown score kind {sf.kind!r}")


def evaluate_intervals(
    intervals: Sequence[PredictionInterval], y_test: Sequence[float]
) -> dict:
    """Empirical coverage and average length over a test set.

    Membership is closed on both ends. ``mean_length`` averages the finite
    lengths only; unbounded intervals are tallied in ``infinite_lengths``
    (and ``mean_length`` is ``inf`` when no finite interval exists).
    """
    if len(intervals) == 0 or len(intervals) != len(y_test):
        raise InvalidArgumentError(
            f"need equally many intervals and test points, got {len(intervals)} and {len(y_test)}"
        )
    lower = np.array([iv.lower for iv in intervals])
    upper = np.array([iv.upper for iv in intervals])
    y = np.asarray(y_test, dtype=float)
    covered = (lower <= y) & (y <= upper)
    lengths = upper - lower
    finite = np.isfinite(lengths)
    return {
        "coverage": float(np.mean(covered)),
        "mean_length": float(np.mean(lengths[finite])) if finite.any() else math.inf,
        "infinite_lengths": int(np.count_nonzero(~finite)),
    }


# ---------------------------------------------------------------------------
# score ingestion
# ---------------------------------------------------------------------------


def read_scores_csv(path) -> np.ndarray:
    """Scores from a one-column CSV, optionally headed by a 'score' line."""
    rows = _read_rows(path)
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


def read_score_matrix_csv(paths: Sequence) -> list[np.ndarray]:
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
    return [read_scores_csv(p) for p in paths]


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
