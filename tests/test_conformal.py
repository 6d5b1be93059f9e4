import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedcal import (
    BinGrid,
    CalibrationResult,
    DpConfig,
    FederationSpec,
    InvalidArgumentError,
    PredictionInterval,
    ScoreFunction,
    TableKey,
    fedcp2_qq_calibrate,
    fedcp_avg_calibrate,
    fedcp_qq_calibrate,
    predict_interval,
    read_score_matrix_csv,
    select_gamma,
    select_ranks,
    split_cp_calibrate,
    split_rank,
)
from fedcal import conformal
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
        assert result.q_hat == np.sort(sample)[result.params["local_rank"] - 1]

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

    def test_minus_infinite_threshold_keeps_no_response(self):
        # no finite score is <= -inf, so the set is empty, not the whole line
        result = CalibrationResult(q_hat=-math.inf, method="x", guaranteed_coverage=None)
        for sf in (ScoreFunction.absolute_residual(lambda x: 5.0),
                   ScoreFunction.cqr(lambda x: 1.0, lambda x: 4.0)):
            interval = predict_interval(0.0, result, sf)
            assert interval == PredictionInterval(math.inf, -math.inf)
            assert not any(interval.contains(y) for y in (-math.inf, 1.0, 5.0, math.inf))

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

    def test_negative_cqr_threshold_can_give_the_empty_set(self):
        # quantile regressors x -+ 1 on residuals uniform in +-0.2 score in
        # [-1, -0.8], so the threshold is near -0.82 and a +-0.3 band at
        # x = 0.2 keeps no response
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(10, 30))
        y = x + rng.uniform(-0.2, 0.2, size=(10, 30))
        wide = ScoreFunction.cqr(lambda x: x - 1.0, lambda x: x + 1.0)
        result = fedcp_qq_calibrate(wide.score(x, y), 0.1)
        assert result.q_hat == pytest.approx(-0.8248, abs=1e-4)
        empty = predict_interval(0.2, result, ScoreFunction.cqr(lambda x: x - 0.3, lambda x: x + 0.3))
        assert empty.length == 0.0
        assert not any(empty.contains(y) for y in (-math.inf, -0.3248, 0.2, 0.7248, math.inf))

    def test_band_of_several_points_refused(self):
        result = CalibrationResult(q_hat=0.5, method="centralized", guaranteed_coverage=0.9)
        pointwise = ScoreFunction.absolute_residual(lambda x: 2.0 * x)
        with pytest.raises(InvalidArgumentError, match=r"shapes \(3,\) and \(3,\)"):
            predict_interval(np.zeros(3), result, pointwise)
        assert predict_interval(np.float64(1.0), result, pointwise) == PredictionInterval(1.5, 2.5)

    def test_cqr_scores_can_be_negative(self):
        sf = ScoreFunction.cqr(lambda x: np.zeros_like(x), lambda x: np.ones_like(x))
        scores = sf.score(np.zeros(3), np.array([0.5, 1.5, -0.5]))
        np.testing.assert_allclose(scores, [-0.5, 0.5, 0.5])


# finite values, the signed zeros and the largest magnitudes among them
BAND_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# a scalar or an array; shapes () and (4,) broadcast together
BAND_INPUTS = st.one_of(BAND_VALUES, arrays(np.float64, 4, elements=BAND_VALUES))


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


_LEVEL_SCORES = np.random.default_rng(3).random((8, 60))
_LEVEL_DP = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 100))
# every entry point that takes a miscoverage level
_LEVEL_ENTRIES = {
    "split_rank": lambda alpha: split_rank(10, alpha),
    "centralized": lambda alpha: split_cp_calibrate(_LEVEL_SCORES[0], alpha),
    "fedcp-avg": lambda alpha: fedcp_avg_calibrate(_LEVEL_SCORES, alpha),
    "fedcp-qq": lambda alpha: fedcp_qq_calibrate(_LEVEL_SCORES, alpha),
    "fedcp2-qq": lambda alpha: fedcp2_qq_calibrate(
        _LEVEL_SCORES, alpha, _LEVEL_DP, np.random.default_rng(0)
    ),
    "select_ranks": lambda alpha: select_ranks(TableKey(8, 60), alpha),
    "select_gamma": lambda alpha: select_gamma(TableKey(8, 60), alpha, 5.0, 100),
    "spec": lambda alpha: FederationSpec(m=8, n=60, alpha=alpha),
}


@pytest.mark.parametrize("entry", _LEVEL_ENTRIES)
@pytest.mark.parametrize("level", [np.float32(0.2), np.float64(0.2)], ids=["float32", "float64"])
def test_every_entry_reads_a_numpy_level_as_a_python_float(entry, level):
    # 1.0 - np.float32(0.2) is np.float32(0.8), below the level 1 - 0.2000000030
    call = _LEVEL_ENTRIES[entry]
    got, expected = call(level), call(float(level))
    assert got == expected
    alpha = got.alpha if entry == "spec" else getattr(got, "params", {}).get("alpha", 0.0)
    assert type(alpha) is float


@pytest.mark.parametrize("entry", _LEVEL_ENTRIES)
@pytest.mark.parametrize("level", ["0.1", None, 0.1j])
def test_every_entry_refuses_a_level_that_is_not_a_real_number(entry, level):
    with pytest.raises(InvalidArgumentError, match="^alpha must be a real number"):
        _LEVEL_ENTRIES[entry](level)


_SCORE_ENTRIES = {
    "centralized": lambda row: split_cp_calibrate(row, 0.1),
    "fedcp-qq": lambda row: fedcp_qq_calibrate([row, row], 0.1),
    "fedcp-avg": lambda row: fedcp_avg_calibrate([row, row], 0.1),
}


@pytest.mark.parametrize("entry", _SCORE_ENTRIES)
@pytest.mark.parametrize("score", ["a", 1 + 2j], ids=["str", "complex"])
def test_every_calibrator_refuses_a_score_that_is_not_a_real(entry, score):
    with pytest.raises(InvalidArgumentError, match=r"^score sample must hold real numbers \("):
        _SCORE_ENTRIES[entry]([score] + [0.5] * 19)


@pytest.mark.parametrize("entry", _SCORE_ENTRIES)
def test_every_calibrator_refuses_a_complex_array(entry):
    # numpy would read it as its real part, with only a ComplexWarning
    row = np.array([1 + 2j] + [0.5] * 19)
    with pytest.raises(InvalidArgumentError, match=r"^score sample must hold real numbers \(dtype complex"):
        _SCORE_ENTRIES[entry](row)


@pytest.mark.parametrize("entry", _SCORE_ENTRIES)
def test_every_calibrator_reads_numeric_strings_and_bools(entry):
    scores = [0.5 * i for i in range(20)]
    text = [repr(s) for s in scores]
    assert _SCORE_ENTRIES[entry](text) == _SCORE_ENTRIES[entry](scores)
    bools = [i % 2 == 0 for i in range(20)]
    assert _SCORE_ENTRIES[entry](bools) == _SCORE_ENTRIES[entry]([float(b) for b in bools])


class TestScoreBand:
    """Both scores are one band formula: the absolute residual is the
    zero-width band (f(x), f(x)). The expected values below are the
    formulas each score used on its own."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(y=BAND_INPUTS, f=BAND_INPUTS, lo=BAND_INPUTS, hi=BAND_INPUTS)
    def test_scores_keep_their_formulas(self, y, f, lo, hi):
        with np.errstate(over="ignore"):
            residual = ScoreFunction.absolute_residual(lambda x: f).score(0.0, y)
            expected = np.abs(np.asarray(y, dtype=float) - np.asarray(f, dtype=float))
            got = ScoreFunction.cqr(lambda x: lo, lambda x: hi).score(0.0, y)
            y = np.asarray(y, dtype=float)
            cqr = np.maximum(np.asarray(lo, dtype=float) - y, y - np.asarray(hi, dtype=float))
        assert residual.shape == expected.shape and np.array_equal(residual, expected)
        # only an exactly-zero residual may differ, in its sign
        assert np.all((residual.view(np.int64) == expected.view(np.int64)) | (expected == 0.0))
        assert got.shape == cqr.shape and _bits(got) == _bits(cqr)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(f=BAND_VALUES, lo=BAND_VALUES, hi=BAND_VALUES, q=BAND_VALUES)
    def test_intervals_keep_their_formulas(self, f, lo, hi, q):
        result = CalibrationResult(q_hat=q, method="centralized", guaranteed_coverage=0.9)
        for sf, lower, upper in [
            (ScoreFunction.absolute_residual(lambda x: f), f - q, f + q),
            (ScoreFunction.cqr(lambda x: lo, lambda x: hi), lo - q, hi + q),
        ]:
            interval = predict_interval(0.0, result, sf)
            expected = (math.inf, -math.inf) if upper < lower else (lower, upper)
            assert _bits([interval.lower, interval.upper]) == _bits(expected)

    def test_infinite_threshold_calls_no_predictor(self):
        def unreachable(x):
            raise AssertionError("predictor called")

        result = CalibrationResult(q_hat=math.inf, method="centralized", guaranteed_coverage=0.9)
        for sf in (ScoreFunction.absolute_residual(unreachable),
                   ScoreFunction.cqr(unreachable, unreachable)):
            assert predict_interval(0.0, result, sf) == PredictionInterval(-math.inf, math.inf)

    def test_empty_set_is_the_one_pair_out_of_order(self):
        empty = PredictionInterval(math.inf, -math.inf)
        assert empty.length == 0.0
        assert not any(empty.contains(y) for y in (-math.inf, -1.0, 0.0, 1.0, math.inf))
        for lower, upper in [(2.0, 1.0), (math.inf, 1.0), (1.0, -math.inf), (math.inf, math.nan)]:
            with pytest.raises(InvalidArgumentError, match="out of order"):
                PredictionInterval(lower, upper)


class TestPredictionInterval:
    def test_closed_interval_contains_its_endpoints(self):
        interval = PredictionInterval(0.0, 1.0)
        assert interval.length == 1.0
        assert all(interval.contains(y) for y in (0.0, 0.2, 1.0))
        assert not any(interval.contains(y) for y in (-1e-12, 1.0 + 1e-12, math.nan))

    def test_zero_width_interval_contains_its_one_point(self):
        point = PredictionInterval(1.5, 1.5)
        assert point.length == 0.0
        assert point.contains(1.5)
        assert not any(point.contains(y) for y in (-math.inf, 1.4999, 1.5001, math.inf))

    def test_unbounded_intervals_have_infinite_length(self):
        whole = PredictionInterval(-math.inf, math.inf)
        assert whole.length == math.inf
        assert all(whole.contains(y) for y in (-math.inf, -1e300, 100.0, math.inf))
        half = PredictionInterval(0.0, math.inf)
        assert half.length == math.inf
        assert half.contains(math.inf) and not half.contains(-1e-300)


class TestCsvIngestion:
    def test_single_column_with_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score\n1.5\n2.5\n0.5\n")
        np.testing.assert_array_equal(read_score_matrix_csv([path, path])[0], [1.5, 2.5, 0.5])

    def test_single_column_without_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("1.0\n2.0\n")
        np.testing.assert_array_equal(read_score_matrix_csv([path, path])[0], [1.0, 2.0])

    def test_per_agent_files(self, tmp_path):
        paths = []
        for j in range(3):
            p = tmp_path / f"agent{j}.csv"
            p.write_text(f"{j}.0\n{j}.5\n")
            paths.append(p)
        agents = read_score_matrix_csv(paths)
        assert len(agents) == 3
        np.testing.assert_array_equal(agents[1], [1.0, 1.5])

    def test_no_paths_refused(self):
        with pytest.raises(InvalidArgumentError, match="no score files given"):
            read_score_matrix_csv([])

    @pytest.mark.parametrize("as_path", [str, Path, lambda p: bytes(p)], ids=["str", "path", "bytes"])
    def test_single_path_refused(self, tmp_path, as_path):
        # a lone path would be iterated over: a str by its characters, bytes
        # by their values, each opened as a file descriptor
        path = tmp_path / "scores.csv"
        path.write_text("agent,score\n0,1.0\n1,2.0\n")
        with pytest.raises(InvalidArgumentError, match="pass a list of score files"):
            read_score_matrix_csv(as_path(path))

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
        np.testing.assert_array_equal(read_score_matrix_csv([path, path])[0], [1.5])

    def test_malformed_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(InvalidArgumentError, match=":2"):
            read_score_matrix_csv([path, path])[0]

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

    @pytest.mark.parametrize("text", ["", "\n\n", " , \n", "score\n", "agent,score\n\n  \n"])
    def test_empty_file_raises_no_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match=r"empty\.csv: no scores found"):
                read_score_matrix_csv([path])
            with pytest.raises(InvalidArgumentError, match=r"empty\.csv: no scores found"):
                read_score_matrix_csv([path, path])[0]

    def test_plain_files_take_the_one_call_path(self, tmp_path, monkeypatch):
        def walk(*args):
            raise AssertionError("a plain file was walked row by row")

        monkeypatch.setattr(conformal, "_walk_rows", walk)
        scores = 1.0 - np.random.default_rng(5).random((4, 7))
        # an agent,score file as perfbench's write_scores writes it
        lines = ["agent,score"]
        for agent, row in enumerate(scores.tolist()):
            lines.extend(f"{agent},{value!r}" for value in row)
        table = tmp_path / "all.csv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        agents = read_score_matrix_csv([table])
        assert len(agents) == 4
        for got, expected in zip(agents, scores):
            assert got.tobytes() == expected.tobytes()
        column = tmp_path / "one.csv"
        column.write_text("\n".join(map(repr, scores[0].tolist())) + "\n", encoding="utf-8")
        assert read_score_matrix_csv([column, column])[0].tobytes() == scores[0].tobytes()

    def test_a_parse_that_warns_is_walked(self, tmp_path, monkeypatch):
        # numpy 1.x reads the id '3.0' as 3 and only warns; a warning, even
        # one the caller's filters would hide, sends the file to the row walk
        loadtxt, walked = np.loadtxt, []

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        def walk(*args):
            walked.append(args)
            return walk_rows(*args)

        walk_rows = conformal._walk_rows
        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        monkeypatch.setattr(conformal, "_walk_rows", walk)
        path = tmp_path / "all.csv"
        path.write_text("agent,score\n0,0.5\n1,0.7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            agents = read_score_matrix_csv([path])
        assert [a.tolist() for a in agents] == [[0.5], [0.7]]
        assert len(walked) == 1

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"
    )
    def test_id_past_the_int_digit_limit_named_by_line(self, tmp_path):
        # numpy reads a zero-padded int64 of any length; int() refuses one
        # past sys.get_int_max_str_digits() (4300 by default)
        path = tmp_path / "long.csv"
        path.write_text("agent,score\n0,0.5\n" + "0" * 4301 + ",0.7\n")
        with pytest.raises(InvalidArgumentError, match=r"long\.csv:3: agent id '0+' is not an"):
            read_score_matrix_csv([path])

    def test_field_past_the_csv_limit_named_by_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("score\n0.5\n" + " " * 140_000 + "0.7\n")
        with pytest.raises(InvalidArgumentError, match=r"wide\.csv:3: field larger than field limit"):
            read_score_matrix_csv([path, path])[0]


_BLANK_ROWS = ["", "  ", "\t", " , ", ",", '""']
_SCORE_HEADERS = ["score", "Score", "SCORE", " score ", '"score"']
_AGENT_HEADERS = ["agent,score", "Agent,Score", "AGENT, SCORE", '"agent","score"']
_BAD_ROW_KINDS = ["not_number", "not_finite", "wrong_width", "bad_id", "negative_id", "missing_id"]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_FULL_WIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def _cell(draw, text, plain=False):
    """``text`` as a CSV cell: bare, padded, quoted, or quoted with padding;
    bare if ``plain``. U+001C pads too: it is whitespace to ``str.strip``
    but not to ``float`` or ``int``."""
    if plain:
        return text
    return draw(st.sampled_from(
        [text, f" {text}", f"{text}\t ", f"\x1c{text}", f'"{text}"', f'" {text} "']
    ))


def _agent_id(draw, agent, odd):
    """``agent`` as text that ``int`` reads back: plain, or if ``odd`` also
    signed, zero-padded, or in Arabic-Indic or full-width digits."""
    text = str(agent)
    if not odd:
        return text
    return draw(st.sampled_from(
        [text, f"+{text}", f"0{text}", text.translate(_ARABIC_INDIC), text.translate(_FULL_WIDTH)]
    ))


@st.composite
def _score_files(draw):
    """Score-file text of either format with varied layout and at most one bad
    row of each kind; every agent id is below the row count, the inputs on
    which both readers are meant to agree.

    A third of the files are plain, with bare cells, as most real files
    are. A third are odd, with text where numpy's parser and ``float`` or
    ``int`` could part: lone ``\\r`` line ends, cells holding NUL,
    Arabic-Indic and full-width digits, ids written ``+3``, ``03``, ``3.0``
    or 2**63, and blank lines before the header. Plain and odd files may
    hold a row starting with ``#``.
    """
    style = draw(st.sampled_from(["plain", "varied", "odd"]))
    plain, odd = style == "plain", style == "odd"
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
        *([st.sampled_from(["\u0661\u0662", "\u0660.\u0665", "\uff13", "\uff11.5"])] if odd else []),
    )
    rows = []
    for agent in owners:
        cells = [_cell(draw, draw(score), plain)]
        if agent_format:
            cells.insert(0, _cell(draw, _agent_id(draw, agent, odd), plain))
        rows.append(",".join(cells))
    odd_not_number = ["#1", "# 0.5", "1\x002", "\x00"] if odd else []
    odd_bad_id = ["3.0", str(2**63), "#0", "0\x00"] if odd else []
    bad = {
        "not_number": [draw(st.sampled_from(["abc", "1.2.3", "--1", "0x10", *odd_not_number]))],
        "not_finite": [draw(st.sampled_from(["inf", "-Infinity", "nan", "NaN", "1e999"]))],
        "wrong_width": ["1", "2", "3"] if not agent_format else draw(
            st.sampled_from([["0.5"], ["0", "0.5", "1"]])
        ),
        "bad_id": [draw(st.sampled_from(["x", "1.5", "", *odd_bad_id])), "0.5"],
        "negative_id": [str(draw(st.integers(-5, -1))), "0.5"],
    }
    for kind in sorted(kinds - {"missing_id"}):
        cells = bad[kind]
        if agent_format and kind in ("not_number", "not_finite"):
            cells = [str(draw(st.integers(0, m - 1)))] + cells
        rows.insert(draw(st.integers(0, len(rows))), ",".join(_cell(draw, c, plain) for c in cells))
    assume(not agent_format or m - 1 < len(rows))
    if style != "varied" and draw(st.booleans()):  # a bad row a comment character would hide
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["#", "#1", "# 0,0.5"])))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_BLANK_ROWS)))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(_AGENT_HEADERS if agent_format else _SCORE_HEADERS)))
    for _ in range(draw(st.integers(0, 2)) if odd else 0):
        rows.insert(0, draw(st.sampled_from(_BLANK_ROWS)))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"] if odd else ["\n", "\r\n"])) for _ in rows]
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
        assert _outcome(lambda: [read_score_matrix_csv([path, path])[0]]) == _outcome(
            lambda: [read_scores_csv_by_rows(path)]
        )
