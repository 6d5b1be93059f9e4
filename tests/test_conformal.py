import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedcal import (
    CalibrationResult,
    InvalidArgumentError,
    PredictionInterval,
    ScoreFunction,
    evaluate_intervals,
    fedcp_avg_calibrate,
    fedcp_qq_calibrate,
    order_statistic,
    predict_interval,
    read_score_matrix_csv,
    read_scores_csv,
    split_cp_calibrate,
    split_rank,
)
from oracles import read_score_matrix_csv_by_rows, read_scores_csv_by_rows


class TestSplitCalibrate:
    def test_nineteen_scores(self):
        result = split_cp_calibrate(np.arange(1.0, 20.0), 0.1)
        assert result.q_hat == 18.0
        assert result.guaranteed_coverage == pytest.approx(0.9)

    def test_rank_overflow_gives_inf(self):
        assert split_cp_calibrate([4.0], 0.1).q_hat == math.inf

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            split_cp_calibrate([], 0.1)

    def test_monte_carlo_coverage_band(self):
        # coverage sits in [1-alpha, 1-alpha + 1/(n+1)] for continuous scores
        n, alpha, reps = 999, 0.1, 4000
        rng = np.random.default_rng(2024)
        scores = rng.uniform(size=(reps, n))
        rank = split_rank(n, alpha)
        q = np.partition(scores, rank - 1, axis=1)[:, rank - 1]
        hits = rng.uniform(size=reps) <= q
        estimate = float(np.mean(hits))
        se = math.sqrt(estimate * (1 - estimate) / reps)
        assert 0.9 - 3 * se <= estimate <= 0.9 + 1.0 / (n + 1) + 3 * se


class TestFedcpQQCalibrate:
    def test_single_agent_matches_split(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=19)
        federated = fedcp_qq_calibrate([scores], 0.1)
        central = split_cp_calibrate(scores, 0.1)
        # with one agent the selected local rank is the split rank
        assert federated.params["local_rank"] == split_rank(19, 0.1)
        assert federated.q_hat == central.q_hat

    def test_identical_agents_send_equal_values(self):
        rng = np.random.default_rng(8)
        sample = rng.normal(size=25)
        result = fedcp_qq_calibrate([sample] * 6, 0.1)
        assert result.q_hat == order_statistic(sample, result.params["local_rank"])

    def test_guarantee_meets_request(self):
        rng = np.random.default_rng(3)
        result = fedcp_qq_calibrate(rng.normal(size=(8, 15)).tolist(), 0.2)
        assert result.guaranteed_coverage >= 0.8
        assert result.method == "fedcp_qq"

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        agents = rng.exponential(size=(5, 12))
        base = fedcp_qq_calibrate(agents.tolist(), 0.15)
        scaled = fedcp_qq_calibrate((3.5 * agents).tolist(), 0.15)
        assert scaled.q_hat == pytest.approx(3.5 * base.q_hat, rel=1e-15)

    def test_unbalanced_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fedcp_qq_calibrate([[1.0, 2.0], [3.0]], 0.1)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.integers(2, 8), n=st.integers(5, 20),
           alpha=st.sampled_from([0.1, 0.2, 0.3]))
    def test_invariant_under_agent_order(self, data, m, n, alpha):
        # every (m >= 2, n >= 5) shape reaches 0.9 at its largest ranks
        values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m * n, max_size=m * n))
        agents = np.reshape(values, (m, n))
        order = data.draw(st.permutations(range(m)))
        base = fedcp_qq_calibrate(agents, alpha)
        permuted = fedcp_qq_calibrate(agents[order], alpha)
        assert permuted.q_hat == base.q_hat
        assert sorted(permuted.transcript.payloads) == sorted(base.transcript.payloads)


class TestFedcpAvgCalibrate:
    def test_identical_agents(self):
        agents = [list(range(1, 11))] * 3
        result = fedcp_avg_calibrate(agents, 0.1)
        assert result.q_hat == 10.0  # rank ceil(11 * 0.9) = 10 for each agent
        assert result.guaranteed_coverage is None

    def test_mean_is_not_robust_to_one_outlier(self):
        agents = [[0.0] * 10, [0.0] * 9 + [100.0]]
        assert fedcp_avg_calibrate(agents, 0.1).q_hat == 50.0

    def test_rank_overflow_fails_loudly(self):
        with pytest.raises(InvalidArgumentError, match="does not exist"):
            fedcp_avg_calibrate([[1.0, 2.0, 3.0]] * 4, 0.1)

    def test_single_agent_matches_split_when_defined(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=30)
        assert fedcp_avg_calibrate([scores], 0.2).q_hat == split_cp_calibrate(scores, 0.2).q_hat


class TestPredictInterval:
    def test_absolute_residual(self):
        sf = ScoreFunction.absolute_residual(lambda x: 5.0)
        result = CalibrationResult(q_hat=2.0, method="centralized", guaranteed_coverage=0.9)
        interval = predict_interval(0.0, result, sf)
        assert (interval.lower, interval.upper) == (3.0, 7.0)

    def test_infinite_threshold_is_vacuous(self):
        sf = ScoreFunction.absolute_residual(lambda x: 5.0)
        result = CalibrationResult(q_hat=math.inf, method="centralized", guaranteed_coverage=0.9)
        interval = predict_interval(0.0, result, sf)
        assert interval.lower == -math.inf and interval.upper == math.inf

    def test_quantile_pair(self):
        sf = ScoreFunction.cqr(lambda x: 1.0, lambda x: 4.0)
        result = CalibrationResult(q_hat=0.5, method="centralized", guaranteed_coverage=0.9)
        interval = predict_interval(0.0, result, sf)
        assert (interval.lower, interval.upper) == (0.5, 4.5)

    def test_negative_threshold_shrinks_quantile_interval(self):
        sf = ScoreFunction.cqr(lambda x: 1.0, lambda x: 4.0)
        result = CalibrationResult(q_hat=-0.25, method="centralized", guaranteed_coverage=0.9)
        interval = predict_interval(0.0, result, sf)
        assert (interval.lower, interval.upper) == (1.25, 3.75)

    def test_cqr_scores_can_be_negative(self):
        sf = ScoreFunction.cqr(lambda x: np.zeros_like(x), lambda x: np.ones_like(x))
        scores = sf.score(np.zeros(3), np.array([0.5, 1.5, -0.5]))
        np.testing.assert_allclose(scores, [-0.5, 0.5, 0.5])


class TestEvaluateIntervals:
    def test_all_inside(self):
        intervals = [PredictionInterval(0.0, 1.0)] * 4
        y = [0.0, 0.5, 1.0, 0.2]
        assert evaluate_intervals(intervals, y)["coverage"] == 1.0

    def test_half_coverage_and_mean_length(self):
        intervals = [PredictionInterval(0.0, 1.0), PredictionInterval(0.0, 2.0)]
        metrics = evaluate_intervals(intervals, [0.5, 3.0])
        assert metrics["coverage"] == 0.5
        assert metrics["mean_length"] == 1.5
        assert metrics["infinite_lengths"] == 0

    def test_infinite_interval_counted_separately(self):
        intervals = [PredictionInterval(-math.inf, math.inf), PredictionInterval(0.0, 2.0)]
        metrics = evaluate_intervals(intervals, [100.0, 1.0])
        assert metrics["coverage"] == 1.0
        assert metrics["mean_length"] == 2.0
        assert metrics["infinite_lengths"] == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evaluate_intervals([], [])

    def test_interval_order_enforced(self):
        with pytest.raises(InvalidArgumentError):
            PredictionInterval(2.0, 1.0)


class TestCsvIngestion:
    def test_single_column_with_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score\n1.5\n2.5\n0.5\n")
        np.testing.assert_array_equal(read_scores_csv(path), [1.5, 2.5, 0.5])

    def test_single_column_without_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("1.0\n2.0\n")
        np.testing.assert_array_equal(read_scores_csv(path), [1.0, 2.0])

    def test_per_agent_files(self, tmp_path):
        paths = []
        for j in range(3):
            p = tmp_path / f"agent{j}.csv"
            p.write_text(f"{j}.0\n{j}.5\n")
            paths.append(p)
        agents = read_score_matrix_csv(paths)
        assert len(agents) == 3
        np.testing.assert_array_equal(agents[1], [1.0, 1.5])

    def test_agent_column_format(self, tmp_path):
        path = tmp_path / "all.csv"
        path.write_text("agent,score\n0,1.0\n1,2.0\n0,3.0\n1,4.0\n")
        agents = read_score_matrix_csv([path])
        np.testing.assert_array_equal(agents[0], [1.0, 3.0])
        np.testing.assert_array_equal(agents[1], [2.0, 4.0])

    def test_header_on_first_non_blank_line(self, tmp_path):
        path = tmp_path / "all.csv"
        path.write_text("\n  \nAgent,Score\n0,1.0\n1,2.0\n0,3.0\n1,4.0\n")
        agents = read_score_matrix_csv([path])
        np.testing.assert_array_equal(agents[0], [1.0, 3.0])
        np.testing.assert_array_equal(agents[1], [2.0, 4.0])
        path.write_text("\nscore\n1.5\n")
        np.testing.assert_array_equal(read_scores_csv(path), [1.5])

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(InvalidArgumentError, match=":2"):
            read_scores_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("agent,score\n0,1.0\nx,2.0\n", 3),  # agent id not an integer
            ("agent,score\n0,1.0\n-1,2.0\n", 3),  # negative agent id
            ("agent,score\n0,1.0\n1,2.0\n5\n", 4),  # one field
            ("agent,score\n0,1.0\n1,inf\n", 3),  # score not finite
        ],
    )
    def test_agent_column_errors_name_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=rf"bad\.csv:{line}: "):
            read_score_matrix_csv([path])

    def test_missing_agent_id_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("agent,score\n0,1.0\n2,2.0\n")
        with pytest.raises(InvalidArgumentError, match="agent"):
            read_score_matrix_csv([path])

    @pytest.mark.parametrize("agent", [2, 3_000_000])  # two rows cover ids 0 and 1 only
    def test_agent_id_beyond_row_count_named_by_line(self, tmp_path, agent):
        path = tmp_path / "far.csv"
        path.write_text(f"agent,score\n0,0.5\n{agent},0.7\n")
        with pytest.raises(InvalidArgumentError, match=r"far\.csv:3: ") as excinfo:
            read_score_matrix_csv([path])
        assert len(str(excinfo.value)) < 500

    def test_many_missing_agent_ids_counted_not_listed(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("agent,score\n" + "0,1.0\n" * 20 + "19,2.0\n")
        with pytest.raises(InvalidArgumentError, match=r"no scores for 18 agents") as excinfo:
            read_score_matrix_csv([path])
        assert len(str(excinfo.value)) < 500


_BLANK_ROWS = ["", "  ", "\t", " , ", ",", '""']
_SCORE_HEADERS = ["score", "Score", "SCORE", " score ", '"score"']
_AGENT_HEADERS = ["agent,score", "Agent,Score", "AGENT, SCORE", '"agent","score"']
_BAD_ROW_KINDS = ["not_number", "not_finite", "wrong_width", "bad_id", "negative_id", "missing_id"]


def _cell(draw, text):
    """``text`` as a CSV cell: bare, padded, quoted, or quoted with padding.
    U+001C pads too: it is whitespace to ``str.strip`` but not to ``float``
    or ``int``."""
    return draw(st.sampled_from(
        [text, f" {text}", f"{text}\t ", f"\x1c{text}", f'"{text}"', f'" {text} "']
    ))


@st.composite
def _score_files(draw):
    """Score-file text of either format with varied layout and at most one bad
    row of each kind; headers sit on line 1 and every agent id is below the
    row count, the inputs on which both readers are meant to agree."""
    agent_format = draw(st.booleans())
    m = draw(st.integers(1, 4)) if agent_format else 1
    sizes = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    kinds = draw(st.sets(st.sampled_from(
        _BAD_ROW_KINDS if agent_format else ["not_number", "not_finite", "wrong_width"]
    )))
    owners = [a for a in range(m) for _ in range(sizes[a])]
    if "missing_id" in kinds and m > 1:
        gone = draw(st.integers(0, m - 2))
        owners = [a for a in owners if a != gone]
    owners = draw(st.permutations(owners))
    score = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
        st.floats(0, 1).map(lambda x: f"{x:.4g}"),
        st.sampled_from(["3", "+0.5", "-0.0", ".5", "5.", "1e-3", "1_0.5"]),
    )
    rows = []
    for agent in owners:
        cells = [_cell(draw, draw(score))]
        if agent_format:
            cells.insert(0, _cell(draw, str(agent)))
        rows.append(",".join(cells))
    bad = {
        "not_number": [draw(st.sampled_from(["abc", "1.2.3", "--1", "0x10"]))],
        "not_finite": [draw(st.sampled_from(["inf", "-Infinity", "nan", "NaN", "1e999"]))],
        "wrong_width": ["1", "2", "3"] if not agent_format else draw(
            st.sampled_from([["0.5"], ["0", "0.5", "1"]])
        ),
        "bad_id": [draw(st.sampled_from(["x", "1.5", ""])), "0.5"],
        "negative_id": [str(draw(st.integers(-5, -1))), "0.5"],
    }
    for kind in sorted(kinds - {"missing_id"}):
        cells = bad[kind]
        if agent_format and kind in ("not_number", "not_finite"):
            cells = [str(draw(st.integers(0, m - 1)))] + cells
        rows.insert(draw(st.integers(0, len(rows))), ",".join(_cell(draw, c) for c in cells))
    assume(not agent_format or m - 1 < len(rows))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_BLANK_ROWS)))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(_AGENT_HEADERS if agent_format else _SCORE_HEADERS)))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in rows]
    if rows and draw(st.booleans()):
        ends[-1] = ""
    return "".join(row + end for row, end in zip(rows, ends))


def _outcome(read):
    try:
        return [(scores.dtype.str, scores.tobytes()) for scores in read()]
    except InvalidArgumentError as exc:
        return str(exc)


class TestCsvAgainstRowReader:
    """The bulk reader against the per-row reader it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=_score_files())
    def test_same_scores_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("ingest") / "scores.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda: read_score_matrix_csv([path])) == _outcome(
            lambda: read_score_matrix_csv_by_rows([path])
        )
        assert _outcome(lambda: [read_scores_csv(path)]) == _outcome(
            lambda: [read_scores_csv_by_rows(path)]
        )
