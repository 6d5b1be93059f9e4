"""Score functions, prediction intervals, and the calibration strategies.

Calibrators consume precomputed nonconformity scores; predictors stay
opaque callables supplied by the caller, since fitting models is out of
scope here. Set membership is the non-strict rule ``score <= q_hat``, so a
threshold of ``inf`` yields the vacuous interval (-inf, inf), and one below
every score a response can have yields the empty set.

Every federated calibrator is one protocol round (:func:`_one_shot_round`):
the server broadcasts parameters, each agent sends one number, and the
server reduces the m numbers. The calibrators differ only in the local
function and the reducer. The round checks that every agent sent exactly
one number and returns its :class:`Transcript`, which the calibrator keeps
on its result.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .coverage_table import CoverageTable, RankPair, TableKey, select_ranks
from .errors import InvalidArgumentError, ProtocolViolationError, check_alpha
from .order_stats import _kth_smallest, as_block, as_sample, split_rank

__all__ = [
    "ScoreFunction",
    "CalibrationResult",
    "PredictionInterval",
    "Transcript",
    "split_cp_calibrate",
    "fedcp_qq_calibrate",
    "fedcp_avg_calibrate",
    "predict_interval",
    "read_score_matrix_csv",
]


@dataclass(frozen=True)
class ScoreFunction:
    """A nonconformity score built from caller-supplied predictors.

    ``band(x)`` gives a (lower(x), upper(x)) band; the score is
    max(lower(x) - y, y - upper(x)) and the set at threshold q is
    [lower(x) - q, upper(x) + q]. ``cqr`` wraps a (lower, upper) quantile
    pair; ``absolute_residual`` wraps a point predictor f as the zero-width
    band (f(x), f(x)), whose score is |y - f(x)|. CQR scores may be
    negative and are deliberately not clamped at zero: clamping would tie
    scores together and break their exchangeability with the test score.
    """

    band: Callable

    @classmethod
    def absolute_residual(cls, predict: Callable) -> "ScoreFunction":
        def band(x):
            center = predict(x)
            return center, center

        return cls(band)

    @classmethod
    def cqr(cls, predict_lower: Callable, predict_upper: Callable) -> "ScoreFunction":
        return cls(lambda x: (predict_lower(x), predict_upper(x)))

    def score(self, x, y):
        """Nonconformity score of observation(s) (x, y)."""
        y = np.asarray(y, dtype=float)
        lower, upper = (np.asarray(bound, dtype=float) for bound in self.band(x))
        return np.maximum(lower - y, y - upper)


@dataclass(frozen=True)
class Transcript:
    """Record of one protocol round: broadcast parameters and m uplinks."""

    downlink: dict
    uplinks: tuple[tuple[int, float], ...]

    @property
    def payloads(self) -> np.ndarray:
        return np.array([payload for _, payload in self.uplinks])


@dataclass(frozen=True)
class CalibrationResult:
    """Threshold plus provenance from one calibration run.

    ``transcript`` is the audited one-shot round of a federated calibrator
    (what the server broadcast and the one number each agent sent back);
    it is None for the centralized calibrator, which runs no round.
    """

    q_hat: float
    method: str
    guaranteed_coverage: float | None
    params: dict = field(default_factory=dict)
    transcript: Transcript | None = None


@dataclass(frozen=True)
class PredictionInterval:
    """The closed interval [lower, upper] of responses.

    The empty set is (inf, -inf): it contains no response and has length 0.
    The constructor refuses every other pair of bounds out of order.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper and (self.lower, self.upper) != (math.inf, -math.inf):
            raise InvalidArgumentError(
                f"interval bounds out of order: [{self.lower}, {self.upper}]"
            )

    @property
    def length(self) -> float:
        return max(self.upper - self.lower, 0.0)

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


_EMPTY_INTERVAL = PredictionInterval(math.inf, -math.inf)


def _one_shot_round(
    agents: np.ndarray,
    downlink: dict,
    local: Callable[[np.ndarray], Sequence[float]],
    reduce: Callable[[np.ndarray], float | np.floating],
) -> tuple[float, Transcript]:
    """Broadcast ``downlink``, take one message per agent, reduce them.

    ``local`` maps the agents' (m, n) block to the m messages, agent j's
    message computed from row j alone; ``reduce`` is the server's aggregate
    of the messages as a float64 array. Returns the aggregate as a float and
    the round's transcript.

    Raises
    ------
    ProtocolViolationError
        Unless every agent sent exactly one message and every message is
        a number (not NaN).
    """
    m = len(agents)
    payloads = np.array(local(agents), dtype=float)  # contiguous, whatever local returns
    if payloads.shape != (m,):
        raise ProtocolViolationError(
            f"{m} agents sent {payloads.size} messages; one message per agent per round"
        )
    silent = np.flatnonzero(np.isnan(payloads))
    if silent.size:
        raise ProtocolViolationError(f"agents {silent.tolist()} sent a non-numeric payload")
    return float(reduce(payloads)), Transcript(dict(downlink), tuple(enumerate(payloads.tolist())))


def split_cp_calibrate(scores: Sequence[float], alpha: float) -> CalibrationResult:
    """Centralized split calibration on one pooled score sample.

    The threshold is the ceil((n+1)(1-alpha))-th smallest score, or ``inf``
    when that rank exceeds n (the guarantee then holds vacuously).
    """
    alpha = check_alpha(alpha)
    sample = as_sample(scores)
    rank = split_rank(sample.size, alpha)
    return CalibrationResult(
        q_hat=float(_kth_smallest(sample, rank)),
        method="centralized",
        guaranteed_coverage=1.0 - alpha,
        params={"n": sample.size, "rank": rank, "alpha": alpha},
    )


def fedcp_qq_calibrate(
    scores: Sequence[Sequence[float]],
    alpha: float,
    *,
    table: CoverageTable | None = None,
) -> CalibrationResult:
    """One-shot federated calibration through the quantile-of-quantiles.

    Selects the rank pair with minimal coverage >= 1 - alpha for the (m, n)
    at hand (reusing ``table`` when given), asks every agent for its
    local-rank order statistic, and takes the server-rank smallest of those
    m values. The guarantee reported is the exact table coverage, which for
    continuous scores is also the attained coverage.
    """
    return _bind_qq(alpha, table)(scores)


def _bind_qq(alpha: float, table: CoverageTable | None):
    """:func:`fedcp_qq_calibrate` at ``alpha`` as ``calibrate(scores,
    spawn=None)``; the round draws nothing, so ``spawn`` goes unused. The
    ranks are selected at the first call of a shape and kept for later
    calls of that shape."""
    alpha = check_alpha(alpha)
    chosen: dict[tuple[int, int], tuple[RankPair, float]] = {}

    def calibrate(scores: Sequence[Sequence[float]], spawn=None) -> CalibrationResult:
        agents = as_block(scores)
        m, n = agents.shape
        if (m, n) not in chosen:
            chosen[m, n] = select_ranks(TableKey(m, n), alpha, table=table)
        ranks, coverage = chosen[m, n]
        l, k = ranks.local_rank, ranks.server_rank
        q_hat, transcript = _one_shot_round(
            agents, {"local_rank": l}, lambda a: _kth_smallest(a, l), lambda s: _kth_smallest(s, k)
        )
        return CalibrationResult(
            q_hat=q_hat,
            method="fedcp_qq",
            guaranteed_coverage=coverage,
            params=dict(m=m, n=n, alpha=alpha, local_rank=l, server_rank=k),
            transcript=transcript,
        )

    return calibrate


def fedcp_avg_calibrate(scores: Sequence[Sequence[float]], alpha: float) -> CalibrationResult:
    """Baseline that averages the agents' split-rank order statistics.

    Carries no coverage guarantee (``guaranteed_coverage`` is None) and
    fails outright when ceil((n+1)(1-alpha)) > n, since the local quantile
    it averages is undefined there.
    """
    alpha = check_alpha(alpha)
    agents = as_block(scores)
    m, n = agents.shape
    rank = split_rank(n, alpha)
    if rank > n:
        raise InvalidArgumentError(
            f"averaging baseline needs rank {rank} <= n = {n}; with so few scores "
            f"per agent the local quantile it averages does not exist"
        )
    q_hat, transcript = _one_shot_round(
        agents, {"local_rank": rank}, lambda a: _kth_smallest(a, rank), np.mean
    )
    return CalibrationResult(
        q_hat=q_hat,
        method="fedcp_avg",
        guaranteed_coverage=None,
        params={"m": m, "n": n, "alpha": alpha, "local_rank": rank},
        transcript=transcript,
    )


def predict_interval(x, result: CalibrationResult, sf: ScoreFunction) -> PredictionInterval:
    """Interval of responses whose score at x stays within the threshold.

    It is empty when no response's does, as with a negative threshold
    larger in size than half the width of the band at x, or with -inf. A
    threshold of +inf keeps every response without reading the band. The
    band at x must be one number on each side: an ``x`` holding several
    points is refused.
    """
    q = result.q_hat
    if q == math.inf:
        return PredictionInterval(-math.inf, math.inf)
    lower, upper = sf.band(x)
    if np.ndim(lower) or np.ndim(upper):
        raise InvalidArgumentError(
            f"the band at x must be one number on each side, got shapes "
            f"{np.shape(lower)} and {np.shape(upper)}"
        )
    lower, upper = float(lower) - q, float(upper) + q
    return _EMPTY_INTERVAL if upper < lower else PredictionInterval(lower, upper)


# ---------------------------------------------------------------------------
# score ingestion
# ---------------------------------------------------------------------------


def read_score_matrix_csv(paths: Sequence) -> list[np.ndarray]:
    """Per-agent scores from one file per agent, or one agent/score file.

    Files are UTF-8 CSV, with or without a byte-order mark. Blank lines
    are skipped, cells may be quoted or padded with whitespace, and the
    first non-blank line may be a header, ``score`` or ``agent,score`` in
    any case. A single path whose first
    data row has two fields is an ``agent,score`` table: the agent ids are
    the integers 0..m-1, each present, and each agent's scores keep their
    order in the file. Otherwise each path contributes one agent in order,
    one score per line. Every score must be a finite number. A bad row is
    reported as ``InvalidArgumentError`` naming ``path:line``. ``paths``
    must be a sequence of paths: a lone ``str``, ``bytes`` or path object
    is refused.

    A plain file (unquoted ASCII numbers, lines ending in LF or CRLF) is
    parsed in one call to numpy's C parser. A file with quoted cells,
    whitespace-only lines, lone CR line ends, non-ASCII digits or any
    other text numpy refuses, or with a bad row, is walked row by row.
    Both read the same syntax and raise the same errors.
    """
    if isinstance(paths, (str, bytes, os.PathLike)):
        raise InvalidArgumentError(f"pass a list of score files, not the single path {paths!r}")
    paths = list(paths)
    if not paths:
        raise InvalidArgumentError("no score files given")
    if len(paths) == 1:
        return _read_score_file(paths[0], agent_column=True)
    return [_read_score_file(p, agent_column=False)[0] for p in paths]


_HEADERS = {("score",), ("agent", "score")}
# the fields of a data row, by its width
_ROW_DTYPES = {
    1: np.dtype([("score", np.float64)]),
    2: np.dtype([("agent", np.int64), ("score", np.float64)]),
}
# Python's default int digit limit; csv's field limit is larger. The row
# walk refuses a field past either and numpy does not, so a longer line
# goes to the walk.
_PLAIN_LINE = 4300
# a missing-agent error lists at most this many ids, then their count
_MISSING_SHOWN = 5


def _read_score_file(path, agent_column: bool) -> list[np.ndarray]:
    """One file's scores: one ``np.loadtxt`` call, or a walk of its rows.

    The text is read once. ``csv`` reads it only up to the first data row,
    to find the header and the width; numpy parses everything after the
    header (:func:`_parse_plain`). When numpy refuses that text, or a value
    fails a check, the ``csv`` pass goes on over the rest of the rows
    (:func:`_walk_rows`), which gives the scores or names the first bad
    line. For fields with no quote, no lone ``\\r`` and no line past
    ``_PLAIN_LINE``, numpy either refuses a field or gives the value
    ``float``/``int`` give it stripped: both call ``PyOS_string_to_double``,
    and numpy strips no more whitespace than ``str.strip``.
    """
    text = _read_text(path)
    lines = io.StringIO(text, newline="")
    rows = _data_rows(path, lines)
    first = next(rows, None)
    start = 0
    if first is not None and tuple(map(str.lower, first[1])) in _HEADERS:
        start = lines.tell()
        first = next(rows, None)
    if first is None:
        raise InvalidArgumentError(f"{path}: no scores found")
    width = 2 if agent_column and len(first[1]) == 2 else 1
    parsed = _parse_plain(text[start:], width)
    scores, ids = parsed or _walk_rows(path, [first, *rows], width)
    if ids is None:
        return [scores]
    counts = np.bincount(ids)
    missing = np.flatnonzero(counts == 0)
    if missing.size > _MISSING_SHOWN:
        raise InvalidArgumentError(
            f"{path}: no scores for {missing.size} agents, the first "
            f"{missing[:_MISSING_SHOWN].tolist()}"
        )
    if missing.size:
        raise InvalidArgumentError(f"{path}: no scores for agent(s) {missing.tolist()}")
    ordered, ends = scores[np.argsort(ids, kind="stable")], np.cumsum(counts).tolist()
    return [ordered[start:end] for start, end in zip([0, *ends], ends)]


def _parse_plain(body: str, width: int) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``(scores, agent ids or None)`` of ``body`` from one ``np.loadtxt``
    call, or None if numpy refuses it (raises or warns) or a value fails a
    check: scores finite, agent ids in [0, number of rows), since every id
    up to the largest needs a row."""
    lines = body.split("\n")
    if max(map(len, lines)) > _PLAIN_LINE:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype=_ROW_DTYPES[width], delimiter=",",
                comments=None, quotechar=None, ndmin=1,
            )
    except (ValueError, Warning):  # numpy refuses text by raising or warning
        return None
    scores = table["score"]
    ids = table["agent"] if width == 2 else None
    if not np.isfinite(scores).all():
        return None
    if ids is not None and (ids.min() < 0 or ids.max() >= ids.size):
        return None
    return scores, ids


def _walk_rows(
    path, rows: list[tuple[int, list[str]]], width: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(scores, agent ids or None)`` of the data ``rows`` checked one at a
    time, or the error for the first bad one."""
    count = len(rows)
    scores, ids = [], []
    for line_no, cells in rows:
        where = f"{path}:{line_no}"
        if len(cells) != width:
            expected = "'agent,score'" if width == 2 else "one score per line"
            raise InvalidArgumentError(f"{where}: expected {expected}, got {len(cells)} fields")
        if width == 2:
            try:
                agent = int(cells[0])
            except ValueError:
                raise InvalidArgumentError(
                    f"{where}: agent id {cells[0]!r} is not an integer"
                ) from None
            if agent < 0:
                raise InvalidArgumentError(f"{where}: agent id must be >= 0")
            if agent >= count:
                raise InvalidArgumentError(
                    f"{where}: agent id {agent} is too large: {count} rows cannot cover "
                    f"ids 0..{agent}"
                )
            ids.append(agent)
        text = cells[-1]
        try:
            value = float(text)
        except ValueError:
            raise InvalidArgumentError(f"{where}: {text!r} is not a number") from None
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{where}: score {text!r} is not finite")
        scores.append(value)
    return np.array(scores, dtype=float), np.array(ids, dtype=np.int64) if width == 2 else None


def _read_text(path) -> str:
    """The file's text, a leading byte-order mark dropped, line ends kept."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _data_rows(path, lines: io.StringIO) -> Iterator[tuple[int, list[str]]]:
    """``(line number, stripped cells)`` of each non-blank ``csv`` row;
    a row is blank when all its cells are whitespace."""
    reader = csv.reader(lines)
    try:
        for line_no, row in enumerate(reader, 1):
            cells = [cell.strip() for cell in row]
            if any(cells):
                yield line_no, cells
    except csv.Error as exc:
        raise InvalidArgumentError(f"{path}:{reader.line_num}: {exc}") from None
