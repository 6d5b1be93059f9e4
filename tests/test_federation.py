import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from fedcal import (
    BinGrid,
    DpConfig,
    ExponentialScores,
    FederationSpec,
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    OutlierScores,
    ProtocolViolationError,
    RankPair,
    TableKey,
    UniformScores,
    conditional_coverage_experiment,
    conditional_miscoverage_quantile,
    coverage_experiment,
    fedcp2_qq_calibrate,
    fedcp_avg_calibrate,
    fedcp_qq_calibrate,
    heterogeneity_tv_penalty,
    order_statistic,
    poisson_binomial_diagnostic,
    quantile_of_quantiles,
    rank_correction,
    run_one_shot,
    select_ranks,
    split_rank,
    substream,
    synthetic_conditional_quantile,
    synthetic_dataset,
    write_rows_csv,
)
from fedcal import coverage_table, federation, privacy
from fedcal.conformal import _one_shot_round
from fedcal.federation import _Preseeded, _replication_streams, _stream_states, _synthetic_cdf
from fedcal.privacy import DEFAULT_GAMMA_GRID

from oracles import conditional_alpha_p_by_substream, coverage_rows_by_substream


class TestSyntheticData:
    def test_deterministic_under_seed(self):
        x1, y1 = synthetic_dataset(500, np.random.default_rng(42))
        x2, y2 = synthetic_dataset(500, np.random.default_rng(42))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_covariate_marginal_is_uniform(self):
        x, _ = synthetic_dataset(10_000, np.random.default_rng(0))
        assert x.min() >= 1.0 and x.max() <= 5.0
        sorted_u = np.sort((x - 1.0) / 4.0)
        grid = np.arange(1, x.size + 1) / x.size
        ks = np.max(np.maximum(np.abs(grid - sorted_u), np.abs(sorted_u - (grid - 1.0 / x.size))))
        assert ks < 0.02

    def test_mean_response_in_plausible_range(self):
        _, y = synthetic_dataset(2000, np.random.default_rng(1))
        assert 0.0 <= np.mean(y) <= 5.0

    def test_outlier_burst_frequency(self):
        count = 200_000
        _, y = synthetic_dataset(count, np.random.default_rng(7))
        observed = float(np.mean(np.abs(y) > 12.0))
        # |y| > 12 essentially requires a burst: 1% rate times the two-sided
        # gaussian tail of sd 25
        expected = 0.01 * 2.0 * (1.0 - ndtr(12.0 / 25.0))
        se = math.sqrt(expected * (1.0 - expected) / count)
        assert abs(observed - expected) <= 5 * se

    def test_outlier_free_variant_has_bounded_noise(self):
        rng = np.random.default_rng(3)
        x, y = synthetic_dataset(10_000, rng, outliers=False)
        # remaining noise is 0.03 * x * gaussian on top of a poisson count
        residual = y - np.round(y)
        assert np.max(np.abs(y - np.floor(y + 0.5))) < 1.0 + 0.15 * 6
        assert np.min(y) > -2.0


class TestSyntheticQuantiles:
    def test_inverts_the_conditional_cdf(self):
        x = np.linspace(1.0, 5.0, 9)
        for level in (0.05, 0.5, 0.95):
            q = synthetic_conditional_quantile(x, level)
            np.testing.assert_allclose(_synthetic_cdf(q, x, True), level, atol=1e-9)

    def test_monte_carlo_coverage_of_upper_quantile(self):
        count = 100_000
        x, y = synthetic_dataset(count, np.random.default_rng(11))
        q = synthetic_conditional_quantile(x, 0.95)
        observed = float(np.mean(y <= q))
        assert abs(observed - 0.95) <= 3 * math.sqrt(0.95 * 0.05 / count)

    def test_quantiles_ordered_in_level(self):
        x = np.array([2.0, 3.3])
        lo = synthetic_conditional_quantile(x, 0.05)
        hi = synthetic_conditional_quantile(x, 0.95)
        assert np.all(lo < hi)


class TestRunOneShot:
    def _agents(self, m=6, n=15, seed=2):
        return np.random.default_rng(seed).uniform(size=(m, n)).tolist()

    def test_qq_payloads_are_local_order_statistics(self):
        agents = self._agents()
        spec = FederationSpec(m=6, n=15, alpha=0.1, seed=0)
        result, transcript = run_one_shot(spec, agents, "fedcp_qq")
        rank = transcript.downlink["local_rank"]
        for agent_id, payload in transcript.uplinks:
            assert payload == order_statistic(agents[agent_id], rank)
        direct = fedcp_qq_calibrate(agents, 0.1)
        assert result == direct

    def test_avg_aggregate_is_mean_of_payloads(self):
        agents = self._agents()
        spec = FederationSpec(m=6, n=15, alpha=0.2, seed=0)
        result, transcript = run_one_shot(spec, agents, "fedcp_avg")
        rank = transcript.downlink["local_rank"]
        for agent_id, payload in transcript.uplinks:
            assert payload == order_statistic(agents[agent_id], rank)
        assert result.q_hat == pytest.approx(float(np.mean(transcript.payloads)), rel=1e-15)
        assert result == fedcp_avg_calibrate(agents, 0.2)

    def test_private_payloads_are_grid_edges_and_match_direct_call(self):
        agents = (1.0 - np.random.default_rng(4).uniform(size=(5, 60))).tolist()
        spec = FederationSpec(m=5, n=60, alpha=0.1, seed=9)
        cfg = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 20))
        result, transcript = run_one_shot(
            spec, agents, "fedcp2-qq", dp_config=cfg, rng=np.random.default_rng(9)
        )
        for _, payload in transcript.uplinks:
            assert payload in cfg.grid.edges[1:]
        direct = fedcp2_qq_calibrate(agents, 0.1, cfg, np.random.default_rng(9))
        assert result == direct

    def test_every_method_sends_exactly_one_message_per_agent(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(12, 60))
            agents = (1.0 - rng.uniform(size=(m, n))).tolist()
            spec = FederationSpec(m=m, n=n, alpha=0.1, seed=1)
            for method in ("fedcp_qq", "fedcp_avg"):
                _, transcript = run_one_shot(spec, agents, method)
                assert len(transcript.uplinks) == m
                assert sorted(a for a, _ in transcript.uplinks) == list(range(m))
        cfg = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 20))
        for (m, n) in [(5, 50), (10, 50), (5, 100)]:
            agents = (1.0 - rng.uniform(size=(m, n))).tolist()
            spec = FederationSpec(m=m, n=n, alpha=0.1, seed=1)
            _, transcript = run_one_shot(spec, agents, "fedcp2_qq", dp_config=cfg)
            assert len(transcript.uplinks) == m
            assert sorted(a for a, _ in transcript.uplinks) == list(range(m))

    @pytest.mark.parametrize("m, n", [(4, 5), (3, 40)])
    def test_scores_must_have_the_spec_shape(self, m, n):
        spec = FederationSpec(m=3, n=5, alpha=0.2, seed=0)
        expected = f"expected 3 agents of 5 scores each, got {m} of {n}"
        with pytest.raises(InvalidArgumentError, match=expected):
            run_one_shot(spec, self._agents(m, n), "fedcp-qq")

    def test_centralized_violates_the_protocol(self):
        spec = FederationSpec(m=2, n=5, alpha=0.1, seed=0)
        with pytest.raises(ProtocolViolationError):
            run_one_shot(spec, self._agents(2, 5), "centralized")

    @pytest.mark.parametrize(
        "local",
        [
            lambda agents: np.append(agents[:, 0], 1.0),  # one agent sends twice
            lambda agents: agents[1:, 0],  # one agent stays silent
            lambda agents: np.where(np.arange(len(agents)) == 1, np.nan, agents[:, 0]),
        ],
        ids=["extra", "missing", "nan"],
    )
    def test_round_needs_one_number_per_agent(self, local):
        agents = np.array(self._agents(4, 5))
        with pytest.raises(ProtocolViolationError):
            _one_shot_round(agents, {}, local, np.max)


class TestRoundProperties:
    # large epsilon and few bins keep the rank correction at 1 or 2
    _CONFIG = DpConfig(epsilon=50.0, grid=BinGrid.uniform(1.0, 10))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), method=st.sampled_from(["fedcp-qq", "fedcp-avg", "fedcp2-qq"]),
           m=st.integers(1, 8), n=st.integers(1, 40))
    def test_one_uplink_per_agent_computed_from_its_own_row(self, data, method, m, n):
        # the smallest shapes that reach 0.8 at all: m*n >= 4 for the
        # quantile of quantiles, split rank <= n for the average
        assume(m * n >= 4 and (method != "fedcp-avg" or split_rank(n, 0.2) <= n))
        scores = st.lists(st.floats(1e-6, 1.0), min_size=m * n, max_size=m * n)
        block = np.reshape(data.draw(scores), (m, n))
        j = data.draw(st.integers(0, m - 1))
        redrawn = np.reshape(data.draw(scores), (m, n))
        redrawn[j] = block[j]
        spec = FederationSpec(m=m, n=n, alpha=0.2, seed=0)
        transcripts = []
        for agents in (block, redrawn):
            try:
                _, transcript = run_one_shot(spec, agents, method, dp_config=self._CONFIG,
                                             rng=np.random.default_rng(7))
            except InfeasibleError:  # n too small for the private rank correction
                assume(False)
            assert [agent for agent, _ in transcript.uplinks] == list(range(m))
            transcripts.append(transcript)
        assert transcripts[0].uplinks[j] == transcripts[1].uplinks[j]


class TestCoverageExperiment:
    def test_deterministic_for_fixed_spec(self):
        spec = FederationSpec(m=5, n=12, alpha=0.1, seed=31)
        first = coverage_experiment(spec, 20, "fedcp_qq", UniformScores(), 200)
        second = coverage_experiment(spec, 20, "fedcp_qq", UniformScores(), 200)
        assert first.rows == second.rows
        assert first.mean_coverage == second.mean_coverage

    def test_uniform_scores_hit_the_table_coverage(self):
        spec = FederationSpec(m=10, n=20, alpha=0.1, seed=5)
        _, expected = select_ranks(TableKey(10, 20), 0.1)
        reps = 800
        summary = coverage_experiment(spec, reps, "fedcp_qq", UniformScores(), 500)
        # per-replication coverage is an average over the test draw too, so
        # the binomial bound on reps * test_size trials is conservative
        se = math.sqrt(expected * (1 - expected) / reps)
        assert abs(summary.mean_coverage - expected) <= 3 * se

    def test_averaging_baseline_inflates_length_under_outliers(self):
        sampler = OutlierScores()
        spec = FederationSpec(m=20, n=20, alpha=0.1, seed=77)
        qq = coverage_experiment(spec, 50, "fedcp_qq", sampler, 200)
        avg = coverage_experiment(spec, 50, "fedcp_avg", sampler, 200)
        assert avg.mean_length > qq.mean_length

    def test_single_agent_is_more_conservative_than_collaboration(self):
        # same total sample size but no collaboration: guarantee further from target
        _, single = select_ranks(TableKey(1, 20), 0.1)
        _, federated = select_ranks(TableKey(50, 20), 0.1)
        assert single > federated

    def test_rows_export_round_trip(self, tmp_path):
        spec = FederationSpec(m=3, n=10, alpha=0.2, seed=0)
        summary = coverage_experiment(spec, 3, "fedcp_qq", UniformScores(), 50)
        path = tmp_path / "rows.csv"
        write_rows_csv(summary.rows, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[0]["method"] == "fedcp_qq"
        assert float(rows[1]["coverage"]) == summary.rows[1]["coverage"]

    @pytest.mark.parametrize("method", ["fedcp-qq", "fedcp-avg", "fedcp2-qq"])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**70 + 1])
    def test_rows_equal_the_per_replication_loop(self, method, seed):
        spec = FederationSpec(m=6, n=44, alpha=0.2, seed=seed)
        dp = DpConfig(epsilon=5.0, grid=BinGrid.uniform(60.0, 100))
        shifts = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        args = (spec, 9, method, OutlierScores(), 50)
        got = coverage_experiment(*args, dp_config=dp, shifts=shifts).rows
        assert got == coverage_rows_by_substream(*args, dp_config=dp, shifts=shifts)

    @pytest.mark.parametrize("method, gamma_searches", [("fedcp-qq", 0), ("fedcp2-qq", 1)])
    def test_ranks_and_gamma_are_searched_once_per_experiment(
        self, monkeypatch, method, gamma_searches
    ):
        walks, searches = [], []
        walk, search = coverage_table._walk_frontier, privacy.select_gamma
        for module in (coverage_table, privacy):  # privacy holds the walk by name
            monkeypatch.setattr(
                module, "_walk_frontier", lambda *args: walks.append(args) or walk(*args)
            )
        monkeypatch.setattr(
            privacy,
            "select_gamma",
            lambda *args, **kwargs: searches.append(args) or search(*args, **kwargs),
        )
        spec = FederationSpec(m=30, n=30, alpha=0.1, seed=2)
        dp = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 100))
        coverage_experiment(spec, 20, method, UniformScores(), 100, dp_config=dp)
        # the gamma search walks the frontier once per candidate
        expected_walks = len(DEFAULT_GAMMA_GRID) if gamma_searches else 1
        assert (len(walks), len(searches)) == (expected_walks, gamma_searches)

    def test_bound_method_calibrates_each_shape_like_its_calibrator(self):
        cfg = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 100))
        qq = federation.METHODS["fedcp-qq"].bind(0.2, table=None, dp_config=None)
        private = federation.METHODS["fedcp2-qq"].bind(0.2, table=None, dp_config=cfg)
        rng = np.random.default_rng(8)
        for m, n in [(6, 60), (8, 90), (6, 60)]:
            scores = rng.uniform(0.01, 1.0, size=(m, n))
            assert qq(scores, None) == fedcp_qq_calibrate(scores, 0.2)
            expected = fedcp2_qq_calibrate(scores, 0.2, cfg, np.random.default_rng(m))
            assert private(scores, np.random.default_rng(m).spawn) == expected
        with pytest.raises(InvalidArgumentError, match="NaN"):
            qq([[0.1, math.nan]] * 6, None)


SAMPLER_CLASSES = (UniformScores, ExponentialScores, OutlierScores)
# the boundary seeds of numpy's 32-bit entropy words, and random ones
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64]),
    st.integers(2**128, 2**200),
    st.integers(0, 2**64),
)
# key elements of one 32-bit word, and past it (which take several words)
KEY_ELEMENTS = st.one_of(
    st.integers(0, 2**32 - 1), st.sampled_from([2**32 - 1, 2**32, 2**40, 2**64 + 3])
)
KEYS = st.integers(0, 3).flatmap(
    lambda d: st.lists(st.tuples(*[KEY_ELEMENTS] * d), min_size=1, max_size=6)
)


def _preseeded(state):
    return np.random.Generator(np.random.PCG64(_Preseeded(state)))


class TestStreamSeeding:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=SEEDS, keys=KEYS)
    def test_bulk_states_equal_substream(self, seed, keys):
        states = _stream_states(seed, np.array(keys, dtype=object).reshape(len(keys), -1))
        for key, state in zip(keys, states):
            expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert np.array_equal(state, expected)
            for sampler in SAMPLER_CLASSES:
                draws = sampler().sample(_preseeded(state), 9)
                assert np.array_equal(draws, sampler().sample(substream(seed, *key), 9))

    @pytest.mark.parametrize("children", [0, 2])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 5])
    def test_replication_streams_equal_substream_across_passes(self, monkeypatch, seed, children):
        # 2 replications per pass; with m = 2 agents, stream 2 holds the test
        # scores and stream 3's children are the private round's agent streams
        monkeypatch.setattr(federation, "_KEYS_PER_PASS", 2 * (3 + children) + 1)
        reps = list(_replication_streams(seed, 5, 3, children))
        assert len(reps) == 5
        for rep, streams in enumerate(reps):
            expected = [substream(seed, rep, j) for j in range(3)]
            expected += substream(seed, rep, 3).spawn(children)
            assert len(streams) == len(expected)
            for stream, reference in zip(streams, expected):
                assert np.array_equal(stream.gumbel(size=7), reference.gumbel(size=7))

    def test_public_private_calibrator_spawns_m_streams_per_call(self):
        rng = np.random.default_rng(4)
        scores = np.random.default_rng(5).uniform(0.01, 1.0, size=(6, 60))
        config = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 100))
        for call in range(1, 4):
            fedcp2_qq_calibrate(scores, 0.2, config, rng)
            assert rng.bit_generator.seed_seq.n_children_spawned == 6 * call

    def test_preseeded_state_serves_only_pcg64(self):
        state = _stream_states(3, np.array([[0, 1]]))[0]
        with pytest.raises(InternalError, match="4 uint64 words"):
            _Preseeded(state).generate_state(4)
        with pytest.raises(InternalError, match="4 uint64 words"):
            _Preseeded(state).generate_state(8, np.uint64)


_SPEC = FederationSpec(m=3, n=10, alpha=0.2)

# a float where an integer count or rank belongs, and the name the refusal gives
NON_INTEGER_CALLS = {
    "spec m": (lambda: FederationSpec(m=2.5, n=10, alpha=0.1), "m"),
    "spec n": (lambda: FederationSpec(m=3, n=10.0, alpha=0.1), "n"),
    "replications": (
        lambda: coverage_experiment(_SPEC, 2.5, "fedcp-qq", UniformScores(), 10), "replications"
    ),
    "test_size": (
        lambda: coverage_experiment(_SPEC, 2, "fedcp-qq", UniformScores(), 10.0), "test_size"
    ),
    "conditional replications": (
        lambda: conditional_coverage_experiment(_SPEC, 2.0, sampler=UniformScores()),
        "replications",
    ),
    "uniform bins": (lambda: BinGrid.uniform(1.0, 10.0), "bins"),
    "correction bins": (lambda: rank_correction(5.0, 2.5, 3, 0.01), "bins"),
    "correction agents": (lambda: rank_correction(5.0, 100, 3.0, 0.01), "agents"),
    "draws": (
        lambda: heterogeneity_tv_penalty(
            [0.0] * 3, UniformScores(), TableKey(3, 10), 5, np.random.default_rng(0), draws=10.0
        ),
        "draws",
    ),
    "count": (lambda: synthetic_dataset(10.0, np.random.default_rng(0)), "count"),
    "order statistic rank": (lambda: order_statistic([1.0, 2.0, 3.0], 2.5), "rank"),
    "local rank": (lambda: quantile_of_quantiles([[1.0, 2.0], [3.0, 4.0]], 1.0, 1), "local rank"),
    "server rank": (
        lambda: quantile_of_quantiles([[1.0, 2.0], [3.0, 4.0]], 1, 2.0), "server rank"
    ),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CALLS))
def test_non_integer_count_or_rank_refused(name):
    call, argument = NON_INTEGER_CALLS[name]
    with pytest.raises(InvalidArgumentError, match=f"^{argument} must be an integer"):
        call()


class TestFederationSpec:
    def test_negative_seed_refused(self):
        with pytest.raises(InvalidArgumentError, match="seed"):
            FederationSpec(m=2, n=3, alpha=0.1, seed=-1)
        assert FederationSpec(m=2, n=3, alpha=0.1, seed=0).seed == 0

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(InvalidArgumentError, match="the seed must be an integer"):
            FederationSpec(m=3, n=10, alpha=0.2, seed=seed)

    def test_numpy_integer_seed_draws_like_its_int(self):
        rows = [
            coverage_experiment(
                FederationSpec(m=3, n=10, alpha=0.2, seed=seed), 3, "fedcp-qq", UniformScores(), 20
            ).rows
            for seed in (np.uint64(2**40), 2**40)
        ]
        assert rows[0] == rows[1]


class TestConditionalCoverage:
    def test_uniform_scores_give_one_minus_threshold(self):
        spec = FederationSpec(m=4, n=10, alpha=0.1, seed=3)
        ranks = RankPair(9, 4)
        result = conditional_coverage_experiment(
            spec, 5, sampler=UniformScores(), ranks=ranks
        )
        for rep in range(5):
            agents = [
                UniformScores().sample(substream(3, rep, j), 10) for j in range(4)
            ]
            values = sorted(order_statistic(a, 9) for a in agents)
            assert result.alpha_p[rep] == pytest.approx(1.0 - values[3], abs=1e-15)

    def test_mean_miscoverage_at_most_alpha(self):
        spec = FederationSpec(m=10, n=20, alpha=0.1, seed=8)
        result = conditional_coverage_experiment(spec, 2000, sampler=UniformScores())
        se = float(np.std(result.alpha_p, ddof=1) / math.sqrt(2000))
        assert result.mean <= 0.1 + 3 * se

    def test_high_probability_bound_holds(self):
        key = TableKey(10, 20)
        ranks = RankPair(19, 10)
        spec = FederationSpec(m=10, n=20, alpha=0.1, seed=21)
        result = conditional_coverage_experiment(
            spec, 3000, sampler=UniformScores(), ranks=ranks
        )
        bound = conditional_miscoverage_quantile(key, ranks, 0.1)
        fraction = float(np.mean(result.alpha_p <= bound))
        assert abs(fraction - 0.9) <= 3 * math.sqrt(0.9 * 0.1 / 3000)

    @pytest.mark.parametrize("sampler", SAMPLER_CLASSES)
    @pytest.mark.parametrize("seed", [0, 2**40])
    def test_alpha_p_equals_the_per_replication_loop(self, sampler, seed):
        spec = FederationSpec(m=7, n=13, alpha=0.1, seed=seed)
        result = conditional_coverage_experiment(spec, 40, sampler=sampler())
        expected = conditional_alpha_p_by_substream(spec, 40, sampler(), result.ranks)
        assert np.array_equal(result.alpha_p, expected)

    def test_sampler_without_cdf_rejected(self):
        class OpaqueSampler:
            def sample(self, rng, size):
                return rng.uniform(size=size)

        spec = FederationSpec(m=2, n=5, alpha=0.1, seed=0)
        with pytest.raises(InvalidArgumentError, match="cdf"):
            conditional_coverage_experiment(spec, 2, sampler=OpaqueSampler())


class TestPoissonBinomialDiagnostic:
    def test_equal_probabilities_collapse(self):
        out = poisson_binomial_diagnostic([0.3] * 8)
        assert out["exact_tv_to_binomial"] == pytest.approx(0.0, abs=1e-12)
        assert out["ehm_upper"] == pytest.approx(0.0, abs=1e-12)

    def test_two_point_extreme_case(self):
        # degenerate sum = 1 against Binomial(2, 1/2): distance exactly 1/2,
        # and the upper factor is sharp here
        out = poisson_binomial_diagnostic([0.0, 1.0])
        assert out["exact_tv_to_binomial"] == pytest.approx(0.5, abs=1e-12)
        assert out["ehm_upper"] == pytest.approx(0.5, abs=1e-12)

    def test_upper_bound_dominates_on_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            p = rng.uniform(size=m)
            out = poisson_binomial_diagnostic(p)
            assert out["exact_tv_to_binomial"] <= out["ehm_upper"] + 1e-12

    def test_degenerate_mean_returns_zero_bounds(self):
        out = poisson_binomial_diagnostic([0.0, 0.0, 0.0])
        assert out == {"exact_tv_to_binomial": 0.0, "ehm_upper": 0.0}

    @pytest.mark.parametrize("p", [[0.5, 1.5], [-0.5, 0.5], [0.5, math.nan]])
    def test_invalid_probabilities_rejected(self, p):
        with pytest.raises(InvalidArgumentError, match=r"lie in \[0, 1\]"):
            poisson_binomial_diagnostic(p)


class TestHeterogeneity:
    def test_identity_model_has_no_penalty(self):
        key = TableKey(6, 15)
        penalty = heterogeneity_tv_penalty(
            [0.0] * 6, UniformScores(), key, 13,
            np.random.default_rng(0), draws=500,
        )
        assert penalty == pytest.approx(0.0, abs=1e-12)

    def test_at_least_one_draw(self):
        with pytest.raises(InvalidArgumentError, match="draws"):
            heterogeneity_tv_penalty(
                [0.0] * 6, UniformScores(), TableKey(6, 15), 13, np.random.default_rng(0), draws=0
            )

    @pytest.mark.parametrize("shifts", [[0.0] * 5, [0.0] * 5 + [math.nan], [[0.0] * 6]])
    def test_one_finite_shift_per_agent(self, shifts):
        with pytest.raises(InvalidArgumentError, match="shift"):
            heterogeneity_tv_penalty(
                shifts, UniformScores(), TableKey(6, 15), 13, np.random.default_rng(0)
            )
        spec = FederationSpec(m=6, n=15, alpha=0.1, seed=0)
        with pytest.raises(InvalidArgumentError, match="shift"):
            coverage_experiment(spec, 2, "fedcp_qq", UniformScores(), 10, shifts=shifts)

    def test_penalty_grows_with_location_shifts(self):
        key = TableKey(6, 15)
        rng_seed = 4
        penalties = []
        for magnitude in (0.0, 0.1, 0.25):
            shifts = [magnitude * (-1) ** j for j in range(6)]
            penalties.append(
                heterogeneity_tv_penalty(
                    shifts, UniformScores(),
                    key, 13, np.random.default_rng(rng_seed), draws=2000,
                )
            )
        assert penalties[0] < penalties[1] < penalties[2]

    def test_empirical_coverage_respects_the_penalty_bound(self):
        m, n, alpha = 10, 20, 0.1
        shifts = [0.12 * (-1) ** j for j in range(m)]
        key = TableKey(m, n)
        ranks, _ = select_ranks(key, alpha)
        penalty = heterogeneity_tv_penalty(
            shifts, UniformScores(), key, ranks.local_rank,
            np.random.default_rng(123), draws=6000,
        )
        spec = FederationSpec(m=m, n=n, alpha=alpha, seed=55)
        summary = coverage_experiment(
            spec, 600, "fedcp_qq", UniformScores(), 400, shifts=shifts
        )
        assert summary.mean_coverage >= 1.0 - alpha - penalty - 3 * summary.coverage_se
        # and the shifts do measurably hurt a nonzero penalty
        assert penalty > 0.005
