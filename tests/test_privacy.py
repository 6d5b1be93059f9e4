import math

import numpy as np
import pytest
from scipy.special import softmax

from fedcal import (
    BinGrid,
    CoverageTable,
    DpConfig,
    InfeasibleError,
    InvalidArgumentError,
    TableKey,
    coverage_probability,
    fedcp2_qq_calibrate,
    load_table,
    quantile_of_quantiles,
    rank_correction,
    save_table,
    select_gamma,
    select_ranks,
)
from fedcal.coverage_table import RankPair, _entry_engine
from fedcal.privacy import DEFAULT_GAMMA_GRID, _logits, _release

from oracles import mechanism_softmax, private_quantile_one_agent, private_release_by_agent


def mechanism_law(scores, q, epsilon, grid):
    """One agent's exact release law: the softmax of its row of logits."""
    return softmax(_logits(grid.bin_index(scores)[None], q, epsilon, grid.bins)[0])


def release_one(scores, q, epsilon, grid, rng):
    """One agent's edge, drawn by the block release from ``rng``."""
    return float(_release(grid.bin_index(scores)[None], q, epsilon, grid, [rng])[0])


class TestBinGrid:
    def test_uniform_construction(self):
        grid = BinGrid.uniform(2.0, 4)
        assert grid.bins == 4
        assert grid.s_max == 2.0
        np.testing.assert_allclose(grid.edges, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_half_open_bins(self):
        grid = BinGrid(edges=(0.0, 0.5, 1.0))
        np.testing.assert_array_equal(grid.bin_index([0.5, 0.7, 1.0, 0.1]), [1, 2, 2, 1])
        np.testing.assert_allclose(grid.discretize([0.5, 0.7]), [0.5, 1.0])

    def test_scores_outside_range_rejected(self):
        grid = BinGrid(edges=(0.0, 1.0))
        with pytest.raises(InvalidArgumentError, match="clip"):
            grid.bin_index([1.5])
        with pytest.raises(InvalidArgumentError):
            grid.bin_index([0.0])

    def test_edges_validated(self):
        with pytest.raises(InvalidArgumentError):
            BinGrid(edges=(0.5, 1.0))
        with pytest.raises(InvalidArgumentError):
            BinGrid(edges=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "edges", [(0.0, math.nan, 1.0), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf)]
    )
    def test_non_finite_edges_refused(self, edges):
        with pytest.raises(InvalidArgumentError, match="finite"):
            BinGrid(edges=edges)

    @pytest.mark.parametrize("s_max", [math.nan, math.inf, 0.0, -1.0])
    def test_uniform_needs_finite_positive_s_max(self, s_max):
        with pytest.raises(InvalidArgumentError, match="s_max"):
            BinGrid.uniform(s_max, 10)


class TestPrivateQuantileDistribution:
    def test_balanced_two_bin_fixture_is_uniform(self):
        # two scores in each bin: both edges carry identical weight
        grid = BinGrid(edges=(0.0, 0.5, 1.0))
        probs = mechanism_law([0.1, 0.2, 0.6, 0.7], 0.5, 1.0, grid)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_matches_direct_softmax_on_random_fixtures(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            bins = int(rng.integers(2, 9))
            grid = BinGrid.uniform(1.0, bins)
            scores = rng.uniform(1e-9, 1.0, size=int(rng.integers(1, 40)))
            q = float(rng.uniform(0.05, 0.95))
            eps = float(rng.uniform(0.1, 8.0))
            got = mechanism_law(scores, q, eps, grid)
            expected = mechanism_softmax(scores, grid.edges, q, eps)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_degenerate_level_prefers_top_edges(self):
        # at q = 1 the weight collapses to the count above each edge
        grid = BinGrid.uniform(1.0, 5)
        scores = [0.15, 0.35, 0.55, 0.75, 0.95]
        probs = mechanism_law(scores, 1.0, 2.0, grid)
        above = np.array([4, 3, 2, 1, 0], dtype=float)
        expected = np.exp(-2.0 * above / 2.0)
        expected /= expected.sum()
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        assert np.argmax(probs) == 4


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_epsilon_must_be_finite_and_positive(epsilon):
    grid = BinGrid.uniform(1.0, 4)
    calls = [
        lambda: DpConfig(epsilon=epsilon, grid=grid),
        lambda: rank_correction(epsilon, 100, 10, 0.05),
        lambda: select_gamma(TableKey(5, 50), 0.1, epsilon, 20),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="epsilon"):
            call()


class TestPrivateQuantileSampling:
    def test_empirical_frequencies_match_distribution(self):
        grid = BinGrid.uniform(1.0, 4)
        scores = [0.1, 0.3, 0.35, 0.6, 0.9, 0.95]
        expected = mechanism_law(scores, 0.7, 2.0, grid)
        rng = np.random.default_rng(31415)
        draws = 40_000
        edges = [release_one(scores, 0.7, 2.0, grid, rng) for _ in range(draws)]
        counts = np.array([edges.count(e) for e in grid.edges[1:]]) / draws
        se = np.sqrt(expected * (1 - expected) / draws)
        assert np.all(np.abs(counts - expected) <= 3 * se + 1e-9)

    def test_large_epsilon_is_deterministic(self):
        grid = BinGrid(edges=(0.0, 0.5, 1.0))
        rng = np.random.default_rng(0)
        outputs = {release_one([0.1, 0.2, 0.3], 0.5, 1e9, grid, rng) for _ in range(200)}
        assert outputs == {0.5}

    def test_mode_tracks_requested_quantile(self):
        # one score per bin: at high epsilon the mass sits on the edges
        # whose below/above counts straddle the requested level
        grid = BinGrid.uniform(1.0, 10)
        scores = [0.05 + 0.1 * i for i in range(10)]
        probs = mechanism_law(scores, 0.9, 50.0, grid)
        assert np.argmax(probs) in (8, 9)
        assert probs[8] + probs[9] >= 0.99

    def test_output_is_always_a_grid_edge(self):
        grid = BinGrid.uniform(2.0, 7)
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores = rng.uniform(1e-6, 2.0, size=9)
            value = release_one(scores, 0.6, 0.5, grid, rng)
            assert value in grid.edges[1:]


class TestBlockReleaseMatchesPerAgentLoop:
    """The one-pass release draws, edge for edge, what releasing each agent
    in turn from the j-th spawned stream draws (``oracles``)."""

    def test_calibrator_uplinks(self):
        rng = np.random.default_rng(2302)
        released = 0
        for _ in range(40):
            m, n = int(rng.integers(1, 12)), int(rng.integers(30, 120))
            cfg = DpConfig(epsilon=float(rng.uniform(2.0, 20.0)),
                           grid=BinGrid.uniform(1.0, int(rng.integers(1, 60))))
            scores = 1.0 - rng.uniform(size=(m, n))
            seed = int(rng.integers(2**32))
            try:
                result = fedcp2_qq_calibrate(scores, 0.2, cfg, np.random.default_rng(seed))
            except InfeasibleError:
                continue
            expected = private_release_by_agent(
                scores, result.params["quantile"], cfg.epsilon, cfg.grid,
                np.random.default_rng(seed),
            )
            assert result.transcript.payloads.tolist() == expected
            released += 1
        assert released >= 20

    def test_blocks_at_every_level(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            grid = BinGrid.uniform(2.0, int(rng.integers(1, 30)))
            scores = 2.0 - 2.0 * rng.uniform(size=(m, n))
            q = float(rng.choice([rng.uniform(0.01, 0.5), rng.uniform(0.5, 1.0), 1.0]))
            epsilon = float(rng.uniform(0.1, 10.0))
            seed = int(rng.integers(2**32))
            streams = np.random.default_rng(seed).spawn(m)
            got = _release(grid.bin_index(scores), q, epsilon, grid, streams).tolist()
            expected = private_release_by_agent(
                scores, q, epsilon, grid, np.random.default_rng(seed)
            )
            assert got == expected

    def test_private_quantile_below_and_above_one_half(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            grid = BinGrid.uniform(1.0, int(rng.integers(1, 25)))
            scores = 1.0 - rng.uniform(size=int(rng.integers(1, 50)))
            q = float(rng.uniform(0.01, 1.0))
            epsilon = float(rng.uniform(0.1, 10.0))
            seed = int(rng.integers(2**32))
            got = release_one(scores, q, epsilon, grid, np.random.default_rng(seed))
            expected = private_quantile_one_agent(
                scores, q, epsilon, grid, np.random.default_rng(seed)
            )
            assert got == expected

    def test_nan_score_refused(self):
        grid = BinGrid.uniform(1.0, 4)
        with pytest.raises(InvalidArgumentError, match="clip"):
            grid.bin_index([0.5, math.nan])
        with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
            fedcp2_qq_calibrate(
                [[0.5, math.nan]], 0.5, DpConfig(epsilon=1.0, grid=grid), np.random.default_rng(0)
            )


class TestRankCorrection:
    def test_reference_case(self):
        assert rank_correction(1.0, 100, 10, 0.05) == 20

    def test_decreasing_in_epsilon(self):
        values = [rank_correction(eps, 100, 10, 0.05) for eps in (0.5, 1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values, reverse=True)

    def test_nondecreasing_in_bins(self):
        assert rank_correction(1.0, 200, 10, 0.05) >= rank_correction(1.0, 100, 10, 0.05)

    def test_minimal_at_huge_epsilon(self):
        assert rank_correction(1e6, 100, 10, 0.05) == 1

    def test_argument_validation(self):
        with pytest.raises(InvalidArgumentError):
            rank_correction(0.0, 100, 10, 0.05)
        with pytest.raises(InvalidArgumentError):
            rank_correction(1.0, 100, 10, 0.0)

    def test_underflowing_tail_refused(self):
        # 1 - (1 - 5e-324)^(1/10) underflows to 0: the correction would be infinite
        with pytest.raises(InvalidArgumentError, match="correction would be infinite"):
            rank_correction(5.0, 100, 10, 5e-324)


class TestSelectGamma:
    def test_matches_exhaustive_candidate_scan(self):
        key, alpha, eps, bins = TableKey(5, 50), 0.1, 5.0, 20
        grid = tuple(np.geomspace(1e-3, 0.5, 20))
        best = None
        for gamma in grid:
            alpha_eff = 1.0 - (1.0 - alpha) / (1.0 - gamma * alpha)
            try:
                ranks, _ = select_ranks(key, alpha_eff)
            except InfeasibleError:
                continue
            correction = rank_correction(eps, bins, key.m, gamma * alpha)
            if ranks.local_rank + correction > key.n:
                continue
            corrected = coverage_probability(
                key, RankPair(ranks.local_rank + correction, ranks.server_rank)
            )
            if best is None or (corrected, gamma) < best[:2]:
                best = (corrected, gamma, ranks, correction)
        selection = select_gamma(key, alpha, eps, bins)
        assert selection.corrected_coverage == best[0]
        assert selection.gamma == best[1]
        assert selection.correction == best[3]

    def test_huge_epsilon_approaches_plain_selection(self):
        key = TableKey(10, 100)
        _, plain = select_ranks(key, 0.1)
        selection = select_gamma(key, 0.1, 1e6, 100)
        # minimal correction (1) and a vanishing gamma keep the overshoot small
        assert selection.corrected_coverage <= plain + 0.02

    def test_correction_overshoot_shrinks_with_epsilon(self):
        key = TableKey(10, 200)
        coverages = [
            select_gamma(key, 0.1, eps, 100).corrected_coverage for eps in (1.0, 2.0, 5.0, 20.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(coverages, coverages[1:]))
        assert coverages[-1] < coverages[0]

    def test_correction_overshoot_shrinks_with_sample_size(self):
        coverages = [
            select_gamma(TableKey(10, n), 0.1, 5.0, 100).corrected_coverage
            for n in (100, 200, 400)
        ]
        assert coverages[0] > coverages[1] > coverages[2]
        assert coverages[-1] >= 0.9

    def test_infeasible_message_prints_the_level_as_a_plain_number(self):
        assert all(type(gamma) is float for gamma in DEFAULT_GAMMA_GRID)
        with pytest.raises(InfeasibleError) as excinfo:
            select_gamma(TableKey(2, 3), 0.1, 2.0, 50)
        assert "np.float64(" not in str(excinfo.value)
        assert "is below 1 - 0.05263157894736836;" in str(excinfo.value)

    @pytest.mark.parametrize(
        "epsilon, bins, message",
        [
            (-1.0, 10, "epsilon must be positive"),
            (math.nan, 10, "epsilon must be positive"),
            (2.0, 0, "need at least one bin, got 0"),
        ],
    )
    def test_arguments_checked_before_the_search(self, epsilon, bins, message):
        # no rank pair of one score reaches 0.9, so a late check would raise InfeasibleError
        with pytest.raises(InvalidArgumentError, match=message):
            select_gamma(TableKey(1, 1), 0.1, epsilon, bins)

    def test_infeasible_when_n_too_small(self):
        with pytest.raises(InfeasibleError, match="too small"):
            select_gamma(TableKey(5, 10), 0.1, 0.05, 100)

    def test_loaded_table_serves_the_whole_search(self, tmp_path):
        key = TableKey(6, 60)
        table = CoverageTable(key=key)
        first = select_gamma(key, 0.2, 5.0, 100, table=table)
        path = tmp_path / "table.txt"
        save_table(table, path)
        _entry_engine.cache_clear()
        loaded = load_table(path)
        second = select_gamma(key, 0.2, 5.0, 100, table=loaded)
        # the search reads only the table; the winning pair is recomputed
        assert _entry_engine.cache_info().misses == 1
        assert len(loaded.entries) == len(table.entries)
        assert second == first

    def test_forged_winner_refused_on_a_repeated_selection(self):
        key = TableKey(6, 60)
        table = CoverageTable(key=key)
        for _ in range(2):
            best = select_gamma(key, 0.2, 5.0, 100, table=table)
        pair = (best.local_rank, best.server_rank)
        table.entries[pair] -= 1e-9  # still feasible, and still the smallest
        with pytest.raises(InvalidArgumentError, match=rf"\({pair[0]}, {pair[1]}\)"):
            select_gamma(key, 0.2, 5.0, 100, table=table)


class TestPrivateCalibrate:
    def _config(self, bins=50, epsilon=5.0):
        return DpConfig(epsilon=epsilon, grid=BinGrid.uniform(1.0, bins))

    def _scores(self, m, n, seed=5):
        return (1.0 - np.random.default_rng(seed).uniform(size=(m, n))).tolist()

    def test_reproducible_given_seed(self):
        scores = self._scores(10, 50)
        cfg = self._config()
        first = fedcp2_qq_calibrate(scores, 0.1, cfg, np.random.default_rng(77))
        second = fedcp2_qq_calibrate(scores, 0.1, cfg, np.random.default_rng(77))
        assert first.q_hat == second.q_hat
        assert first.params == second.params

    def test_output_is_grid_edge_with_stated_guarantee(self):
        cfg = self._config()
        result = fedcp2_qq_calibrate(self._scores(10, 50), 0.1, cfg, np.random.default_rng(1))
        assert result.q_hat in cfg.grid.edges[1:]
        assert result.guaranteed_coverage == pytest.approx(0.9)
        assert result.method == "fedcp2_qq"

    def test_concentrated_identical_data_at_large_epsilon(self):
        grid = BinGrid.uniform(1.0, 10)
        cfg = DpConfig(epsilon=1e8, grid=grid)
        scores = [[0.42] * 60] * 5  # everything in bin (0.4, 0.5]
        result = fedcp2_qq_calibrate(scores, 0.1, cfg, np.random.default_rng(3))
        assert result.q_hat == pytest.approx(0.5)

    def test_close_to_nonprivate_corrected_aggregate_at_large_epsilon(self):
        # q * n equals the corrected rank exactly, so the mechanism's weights
        # tie across the gap up to the next order statistic; at large epsilon
        # the output therefore lands between consecutive corrected aggregates
        rng = np.random.default_rng(12)
        scores = (1.0 - rng.uniform(size=(5, 120))).tolist()
        grid = BinGrid.uniform(1.0, 10_000)
        cfg = DpConfig(epsilon=1e6, grid=grid)
        result = fedcp2_qq_calibrate(scores, 0.1, cfg, np.random.default_rng(9))
        corrected_rank = result.params["local_rank"] + result.params["correction"]
        k = result.params["server_rank"]
        low = quantile_of_quantiles(scores, corrected_rank, k)
        high = quantile_of_quantiles(scores, min(corrected_rank + 1, 120), k)
        width = grid.edges[1] - grid.edges[0]
        assert low <= result.q_hat <= high + width

    def test_infeasible_small_n(self):
        cfg = self._config(bins=100, epsilon=0.05)
        with pytest.raises(InfeasibleError):
            fedcp2_qq_calibrate(self._scores(5, 10), 0.1, cfg, np.random.default_rng(0))

    def test_infeasible_search_names_the_largest_gammas_reason(self):
        cfg = self._config(bins=100, epsilon=0.05)
        reason = "gamma = 0.5 fails because corrected local rank 378 exceeds n = 10"
        with pytest.raises(InfeasibleError, match=reason):
            fedcp2_qq_calibrate(self._scores(5, 10), 0.1, cfg, np.random.default_rng(0))
        # at gamma = 0.5 the inflated level 1 - 0.1111 needs more than the 2 x 3 table offers
        reason = "gamma = 0.5 fails because .* no rank pair reaches"
        with pytest.raises(InfeasibleError, match=reason):
            fedcp2_qq_calibrate(self._scores(2, 3), 0.2, self._config(), np.random.default_rng(0))

    def test_scores_above_smax_rejected_before_sampling(self):
        cfg = self._config()
        scores = self._scores(5, 20)
        scores[2][3] = 1.5
        with pytest.raises(InvalidArgumentError, match="clip"):
            fedcp2_qq_calibrate(scores, 0.1, cfg, np.random.default_rng(0))

    def test_coverage_soundness_under_privacy(self):
        # uniform scores: realized coverage per replication is the threshold
        from fedcal import CoverageTable, substream

        m, n, alpha, reps = 10, 200, 0.1, 1000
        cfg = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 100))
        table = CoverageTable(key=TableKey(m, n))
        coverages = np.empty(reps)
        for rep in range(reps):
            agents = [1.0 - substream(99, rep, j).uniform(size=n) for j in range(m)]
            result = fedcp2_qq_calibrate(
                [a.tolist() for a in agents], alpha, cfg, substream(99, rep, m), table=table
            )
            coverages[rep] = result.q_hat
        se = float(np.std(coverages, ddof=1) / math.sqrt(reps))
        assert float(np.mean(coverages)) >= 1 - alpha - 3 * se

