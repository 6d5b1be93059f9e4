import math

import numpy as np
import pytest

from fedcal import InvalidArgumentError, fedcp_qq_calibrate, quantile_of_quantiles, split_rank
from fedcal.order_stats import _kth_smallest, as_block, as_sample


class TestOrderStatistic:
    """The one k-th-smallest kernel every order statistic goes through."""

    def test_sorted_middle_element(self):
        assert _kth_smallest(np.array([3.0, 1.0, 2.0]), 2) == 2.0

    def test_rank_past_end_is_inf(self):
        assert _kth_smallest(np.array([1.0]), 2) == math.inf

    def test_empty_sample_is_inf(self):
        assert _kth_smallest(np.array([]), 1) == math.inf

    def test_duplicates_keep_distinct_ranks(self):
        assert _kth_smallest(np.array([5.0, 5.0, 1.0]), 2) == 5.0

    def test_zero_rank_rejected(self):
        with pytest.raises(InvalidArgumentError, match="local rank must be >= 1, got 0"):
            quantile_of_quantiles([[1.0, 2.0]], 0, 1)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
            as_sample([1.0, math.nan])

    def test_input_not_mutated(self):
        values = np.array([3.0, 1.0, 2.0])
        _kth_smallest(values, 1)
        np.testing.assert_array_equal(values, [3.0, 1.0, 2.0])

    def test_matches_full_sort_on_random_data(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sample = rng.normal(size=rng.integers(1, 30))
            ordered = np.sort(sample)
            for rank in (1, len(sample) // 2 + 1, len(sample)):
                assert _kth_smallest(sample, rank) == ordered[rank - 1]


class TestSplitRank:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_alpha_outside_the_open_unit_interval_refused(self, alpha):
        with pytest.raises(InvalidArgumentError, match=r"^alpha must be in \(0, 1\)"):
            split_rank(10, alpha)

    def test_negative_n_refused_and_no_scores_give_rank_one(self):
        with pytest.raises(InvalidArgumentError, match="^n must be >= 0, got -3"):
            split_rank(-3, 0.1)
        assert split_rank(0, 0.1) == 1


class TestAsBlock:
    def test_rows_are_agents(self):
        block = as_block([[3, 1], [2, 5]])
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, [[3.0, 1.0], [2.0, 5.0]])

    def test_equal_length_arrays_and_a_block_agree(self):
        rng = np.random.default_rng(4)
        rows = [rng.normal(size=7) for _ in range(3)]
        np.testing.assert_array_equal(as_block(rows), as_block(np.stack(rows)))

    def test_float_block_is_not_copied_or_changed(self):
        block = np.random.default_rng(1).normal(size=(4, 5))
        before = block.copy()
        assert as_block(block) is block
        np.testing.assert_array_equal(block, before)

    @pytest.mark.parametrize(
        "agents, message",
        [
            ([], "at least one agent"),
            (np.empty((0, 3)), "at least one agent"),
            ([[1.0, 2.0], []], "must not be empty"),
            (np.empty((2, 0)), "must not be empty"),
            ([[1.0, 2.0], [[3.0, 4.0]]], r"one-dimensional, got shape \(1, 2\)"),
            (np.ones((2, 2, 2)), r"one-dimensional, got shape \(2, 2\)"),
            ([1.0, 2.0], r"one-dimensional, got shape \(\)"),
            ([[1.0, math.nan]], "NaN or infinite"),
            (np.array([[1.0, 2.0], [3.0, -math.inf]]), "NaN or infinite"),
            ([[1.0, 2.0], [3.0]], r"balanced score matrix required, got local sizes \[1, 2\]"),
            ([[1.0], [2.0, 3.0], [4.0, 5.0, 6.0]], r"local sizes \[1, 2, 3\]"),
            # a bad agent is reported before unequal sizes
            ([[1.0, 2.0], [math.nan]], "NaN or infinite"),
            ([[1 + 2j, 1.0]], "must hold real numbers"),
            ([[1.0, 2.0], ["a"]], "must hold real numbers"),
            # numpy reads a complex array as its real part, with only a warning
            (np.array([[1 + 2j, 1.0]]), r"must hold real numbers \(dtype complex128 is not real\)"),
            ([np.array([1.0, 2.0]), np.array([3.0, 1j])], "must hold real numbers"),
            (5.0, "^scores must be a sequence of agents, got float$"),
            (None, "^scores must be a sequence of agents, got NoneType$"),
            (iter([[1.0]]), "^scores must be a sequence of agents, got list_iterator$"),
        ],
    )
    def test_refusals_name_the_problem(self, agents, message):
        with pytest.raises(InvalidArgumentError, match=message):
            as_block(agents)


class TestQuantileOfQuantiles:
    def test_single_agent_reduces_to_local_order_statistic(self):
        assert quantile_of_quantiles([[1.0, 2.0, 3.0]], 2, 1) == 2.0

    def test_enumerated_two_level_example(self):
        # per-agent 2nd smallest values are {4, 3, 6}; their 2nd smallest is 4
        assert quantile_of_quantiles([[1, 4], [2, 3], [5, 6]], 2, 2) == 4.0

    def test_all_agents_overflow_to_inf(self):
        assert quantile_of_quantiles([[1.0], [2.0]], 2, 1) == math.inf

    def test_balanced_blocks_match_per_agent_order_statistics(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            agents = rng.normal(size=(m, n))
            l, k = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
            local = sorted(np.sort(a)[l - 1] for a in agents)
            assert quantile_of_quantiles(agents, l, k) == local[k - 1]

    def test_unequal_agents_refused(self):
        with pytest.raises(InvalidArgumentError, match=r"local sizes \[1, 2\]"):
            quantile_of_quantiles([[1.0, 2.0], [3.0]], 1, 1)

    def test_is_the_reduction_of_the_fedcp_qq_round(self):
        rng = np.random.default_rng(13)
        for m, n, alpha in [(1, 19, 0.1), (5, 12, 0.2), (8, 60, 0.1), (30, 30, 0.1)]:
            block = rng.exponential(size=(m, n))
            result = fedcp_qq_calibrate(block, alpha)
            l, k = result.params["local_rank"], result.params["server_rank"]
            assert result.q_hat == quantile_of_quantiles(block, l, k)

    def test_server_rank_above_m_rejected(self):
        with pytest.raises(InvalidArgumentError):
            quantile_of_quantiles([[1.0], [2.0]], 1, 3)

    def test_monotone_in_both_ranks(self):
        rng = np.random.default_rng(11)
        agents = rng.normal(size=(4, 6)).tolist()
        values = np.array(
            [[quantile_of_quantiles(agents, l, k) for k in range(1, 5)] for l in range(1, 7)]
        )
        assert np.all(np.diff(values, axis=0) >= 0)
        assert np.all(np.diff(values, axis=1) >= 0)
        assert quantile_of_quantiles(agents, 7, 1) == math.inf

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        agents = [rng.normal(size=5) for _ in range(3)]
        baseline = quantile_of_quantiles(agents, 3, 2)
        shuffled = [np.flip(a) for a in reversed(agents)]
        assert quantile_of_quantiles(shuffled, 3, 2) == baseline

    def test_result_is_an_input_score_with_enough_mass_below(self):
        # at least l*k scores sit at or below the aggregate whenever it is finite
        rng = np.random.default_rng(5)
        for _ in range(30):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            l, k = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
            agents = rng.normal(size=(m, n))
            value = quantile_of_quantiles(agents.tolist(), l, k)
            assert value in agents
            assert np.count_nonzero(agents <= value) >= l * k
