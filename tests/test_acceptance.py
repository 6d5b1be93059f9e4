"""Release acceptance suite: one test per criterion, tolerances pinned.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion (pytest's own -v lines serve the same purpose when output capture
is on). Every expected value is either an exact collapse, a frozen fixture
computed from an independent route, or a Monte-Carlo band with its standard
error stated explicitly.
"""

import math
import time

import numpy as np
import pytest

from fedcal import (
    BinGrid,
    CoverageTable,
    DpConfig,
    FederationSpec,
    ProtocolViolationError,
    RankPair,
    TableKey,
    conditional_miscoverage_quantile,
    coverage_probability,
    fedcp2_qq_calibrate,
    fedcp_avg_calibrate,
    fedcp_qq_calibrate,
    rank_correction,
    run_one_shot,
    select_ranks,
    split_cp_calibrate,
    split_rank,
    substream,
)
from fedcal.federation import poisson_binomial_diagnostic
from fedcal.privacy import _release
from kit import synthetic_conditional_quantile, synthetic_dataset
from oracles import (
    conditional_alpha_p_by_substream,
    coverage_bruteforce_column,
    engine_column,
    max_report_coverage,
    mechanism_softmax,
)

EXACT_MATCH = 1e-10
COLLAPSE_MATCH = 1e-12
MASTER_SEED = 20260808


def _report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS  {detail}")


def test_c01_fast_path_equals_bruteforce_everywhere_small():
    """Exact agreement of the two evaluation routes on every small table."""
    start = time.time()
    worst = 0.0
    checked = 0
    for m in range(1, 37):
        for n in range(1, 36 // m + 1):
            key = TableKey(m, n)
            for local_rank in range(1, n + 1):
                brute = coverage_bruteforce_column(key, local_rank)
                fast = engine_column(key, local_rank)
                worst = max(worst, float(np.max(np.abs(brute - fast))))
                checked += fast.size
    elapsed = time.time() - start
    assert worst <= EXACT_MATCH, f"max |fast - brute| = {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, f"{checked} entries agree to {worst:.2e} in {elapsed:.1f}s")


def test_c02_top_rank_matches_gamma_closed_form():
    """Engine at local rank n equals the log-Gamma closed form, all k."""
    start = time.time()
    worst = 0.0
    for m in range(1, 51):
        for n in range(1, 51):
            column = engine_column(TableKey(m, n), n)
            closed = np.array([max_report_coverage(m, n, k) for k in range(1, m + 1)])
            worst = max(worst, float(np.max(np.abs(column - closed))))
    elapsed = time.time() - start
    assert worst <= EXACT_MATCH, f"max |engine - closed form| = {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, f"2500 shapes agree to {worst:.2e} in {elapsed:.1f}s")


def test_c03_boundary_collapses_exact():
    """Single-agent and single-score tables collapse to rank ratios."""
    worst = 0.0
    for n in range(1, 201):
        column_by_l = [
            coverage_probability(TableKey(1, n), RankPair(l, 1)) for l in range(1, n + 1)
        ]
        expected = np.arange(1, n + 1) / (n + 1)
        worst = max(worst, float(np.max(np.abs(np.array(column_by_l) - expected))))
    for m in range(1, 201):
        column = engine_column(TableKey(m, 1), 1)
        expected = np.arange(1, m + 1) / (m + 1)
        worst = max(worst, float(np.max(np.abs(column - expected))))
    assert worst <= COLLAPSE_MATCH, f"max collapse error = {worst}"
    _report(3, f"m=1 and n=1 collapses exact to {worst:.2e}")


def _mc_selected_coverage(m, n, alpha, reps, seed, batch=2000):
    ranks, expected = select_ranks(TableKey(m, n), alpha)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < reps:
        size = min(batch, reps - done)
        scores = rng.uniform(size=(size, m, n))
        local = np.partition(scores, ranks.local_rank - 1, axis=2)[:, :, ranks.local_rank - 1]
        q_hat = np.partition(local, ranks.server_rank - 1, axis=1)[:, ranks.server_rank - 1]
        hits += int(np.sum(rng.uniform(size=size) <= q_hat))
        done += size
    return expected, hits / reps


def test_c04_continuous_scores_attain_the_table_coverage():
    """For continuous scores the guarantee is an equality, checked by MC."""
    start = time.time()
    reps = 100_000
    details = []
    for (m, n) in [(10, 20), (50, 20)]:
        expected, estimate = _mc_selected_coverage(m, n, 0.1, reps, MASTER_SEED + m)
        se = math.sqrt(expected * (1.0 - expected) / reps)
        assert abs(estimate - expected) <= 3 * se, (
            f"(m={m}, n={n}): {estimate} vs {expected} (3se = {3 * se:.5f})"
        )
        details.append(f"(m={m},n={n}): |{estimate:.5f}-{expected:.5f}| <= {3 * se:.5f}")
    elapsed = time.time() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(4, "; ".join(details) + f" in {elapsed:.1f}s")


def test_c05_selected_coverage_tracks_the_centralized_band():
    """Selected coverage sits in [1-a, 1-a + 5/(mn+1)] on a sweep grid."""
    start = time.time()
    alpha = 0.1
    inside = 0
    total = 0
    for m in (5, 20):
        for n in range(10, 101):
            _, coverage = select_ranks(TableKey(m, n), alpha)
            total += 1
            if 1 - alpha <= coverage <= 1 - alpha + 5.0 / (m * n + 1):
                inside += 1
    elapsed = time.time() - start
    assert inside >= 0.95 * total, f"only {inside}/{total} grid points in band"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(5, f"{inside}/{total} sweep points inside the band in {elapsed:.1f}s")


def test_c06_synthetic_pipeline_matches_centralized_quality():
    """Quantile-pair calibration on the synthetic generator at desk scale.

    The predictor is the generator's own conditional 5%/95% quantile pair,
    so only the calibration layer is exercised.
    """
    start = time.time()
    m, n, alpha, reps = 50, 20, 0.1, 100
    cal_size, test_size = m * n, 1000
    grid_x = np.linspace(1.0, 5.0, 2001)
    lo_grid = synthetic_conditional_quantile(grid_x, alpha / 2)
    hi_grid = synthetic_conditional_quantile(grid_x, 1 - alpha / 2)
    table = CoverageTable(key=TableKey(m, n))
    cov_qq, len_qq, len_cent, len_avg = [], [], [], []
    for rep in range(reps):
        rng = substream(MASTER_SEED, 6, rep)
        x_cal, y_cal = synthetic_dataset(cal_size, rng)
        x_test, y_test = synthetic_dataset(test_size, rng)
        lo_cal = np.interp(x_cal, grid_x, lo_grid)
        hi_cal = np.interp(x_cal, grid_x, hi_grid)
        scores = np.maximum(lo_cal - y_cal, y_cal - hi_cal)
        matrix = scores.reshape(m, n).tolist()
        q_qq = fedcp_qq_calibrate(matrix, alpha, table=table).q_hat
        q_cent = split_cp_calibrate(scores, alpha).q_hat
        q_avg = fedcp_avg_calibrate(matrix, alpha).q_hat
        lo_test = np.interp(x_test, grid_x, lo_grid)
        hi_test = np.interp(x_test, grid_x, hi_grid)
        cov_qq.append(float(np.mean((y_test >= lo_test - q_qq) & (y_test <= hi_test + q_qq))))
        base = float(np.mean(hi_test - lo_test))
        len_qq.append(base + 2 * q_qq)
        len_cent.append(base + 2 * q_cent)
        len_avg.append(base + 2 * q_avg)
    mean_cov = float(np.mean(cov_qq))
    se_cov = float(np.std(cov_qq, ddof=1) / math.sqrt(reps))
    assert mean_cov >= 1 - alpha - 3 * se_cov, f"coverage {mean_cov} (se {se_cov})"
    mean_qq, mean_cent = float(np.mean(len_qq)), float(np.mean(len_cent))
    assert abs(mean_qq - mean_cent) <= 0.10 * mean_cent, (
        f"lengths {mean_qq:.4f} vs centralized {mean_cent:.4f}"
    )
    avg_longer = float(np.mean(np.array(len_avg) > np.array(len_qq)))
    assert avg_longer >= 0.80, f"averaging baseline longer in only {avg_longer:.0%} of runs"
    elapsed = time.time() - start
    _report(
        6,
        f"coverage {mean_cov:.4f} (-3se bound {1 - alpha - 3 * se_cov:.4f}), "
        f"length {mean_qq:.3f} vs centralized {mean_cent:.3f}, "
        f"baseline longer in {avg_longer:.0%}; {elapsed:.1f}s",
    )


def test_c07_mechanism_frequencies_match_their_law():
    """Empirical output frequencies of the block release match the softmax,
    transcribed independently in ``oracles.mechanism_softmax``."""
    start = time.time()
    draws = 100_000
    fixtures = [
        # two scores per bin at level 1/2: both edges exactly equally likely
        ([0.1, 0.2, 0.6, 0.7], BinGrid(edges=(0.0, 0.5, 1.0)), 0.5, 1.0),
        # asymmetric level on a spread-out sample
        ([0.05, 0.15, 0.35, 0.55, 0.75, 0.95], BinGrid.uniform(1.0, 5), 0.8, 2.0),
        # low level, coarse data, strong privacy
        ([0.42, 0.44, 0.46, 0.9], BinGrid.uniform(1.0, 4), 0.3, 0.5),
    ]
    for index, (scores, grid, q, epsilon) in enumerate(fixtures):
        expected = mechanism_softmax(scores, grid.edges, q, epsilon)
        rng = np.random.default_rng(MASTER_SEED + index)
        counts = np.zeros(grid.bins)
        edge_to_bin = {edge: b for b, edge in enumerate(grid.edges[1:])}
        agent = grid.bin_index(scores)[None]  # one agent's row of bin indices
        for _ in range(draws):
            counts[edge_to_bin[_release(agent, q, epsilon, grid, [rng])[0]]] += 1
        frequencies = counts / draws
        se = np.sqrt(expected * (1.0 - expected) / draws)
        gap = np.abs(frequencies - expected)
        assert np.all(gap <= 3 * se + 1e-12), f"fixture {index}: gaps {gap}, 3se {3 * se}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(7, f"3 fixtures x {draws} draws within 3 binomial se per bin in {elapsed:.1f}s")


def test_c08_private_calibration_stays_valid_and_conservative():
    """Private coverage >= target for every budget, growing as budgets shrink."""
    start = time.time()
    m, n, alpha, bins, reps = 5, 200, 0.1, 100, 500
    means = {}
    for epsilon in (10.0, 5.0, 1.0):
        cfg = DpConfig(epsilon=epsilon, grid=BinGrid.uniform(1.0, bins))
        table = CoverageTable(key=TableKey(m, n))
        coverages = np.empty(reps)
        for rep in range(reps):
            agents = [
                1.0 - substream(MASTER_SEED, 8, rep, j).uniform(size=n) for j in range(m)
            ]
            result = fedcp2_qq_calibrate(
                [a.tolist() for a in agents],
                alpha,
                cfg,
                substream(MASTER_SEED, 8, rep, m),
                table=table,
            )
            coverages[rep] = result.q_hat  # uniform scores: coverage is the threshold
        mean = float(np.mean(coverages))
        se = float(np.std(coverages, ddof=1) / math.sqrt(reps))
        assert mean >= 1 - alpha - 3 * se, f"epsilon={epsilon}: {mean} (se {se})"
        means[epsilon] = mean
    assert means[5.0] >= means[10.0] - 1e-9 and means[1.0] >= means[5.0] - 1e-9, (
        f"coverage not nondecreasing as the budget shrinks: {means}"
    )
    elapsed = time.time() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _report(
        8,
        "mean coverage " + ", ".join(f"eps={e}: {c:.4f}" for e, c in means.items())
        + f" in {elapsed:.1f}s",
    )


# frozen by direct high-precision evaluation of the correction formula
RANK_CORRECTION_FIXTURES = [
    (1.0, 100, 10, 0.05, 20),
    (1.0, 100, 5, 0.05, 19),
    (2.0, 100, 10, 0.05, 10),
    (5.0, 100, 10, 0.05, 4),
    (10.0, 100, 10, 0.05, 2),
    (1.0, 50, 10, 0.05, 19),
    (1.0, 200, 10, 0.05, 22),
    (1.0, 100, 10, 0.01, 24),
    (1.0, 100, 10, 0.2, 17),
    (0.5, 100, 10, 0.05, 40),
    (1.0, 1000, 10, 0.05, 25),
    (1.0, 100, 50, 0.05, 23),
    (1.0, 100, 1, 0.05, 16),
    (3.0, 64, 8, 0.02, 7),
    (7.5, 250, 12, 0.1, 3),
    (0.25, 10, 4, 0.3, 39),
    (2.0, 500, 25, 0.005, 15),
    (4.0, 100, 100, 0.05, 7),
    (1e6, 100, 10, 0.05, 1),
    (0.1, 100, 10, 0.05, 198),
]


def test_c09_rank_correction_fixtures_exact():
    """The integer correction matches twenty precomputed fixtures exactly."""
    for epsilon, bins, agents, gamma_alpha, expected in RANK_CORRECTION_FIXTURES:
        got = rank_correction(epsilon, bins, agents, gamma_alpha)
        assert got == expected, f"({epsilon}, {bins}, {agents}, {gamma_alpha}): {got} != {expected}"
    _report(9, f"{len(RANK_CORRECTION_FIXTURES)} correction fixtures exact")


def test_c10_conditional_miscoverage_bound_holds():
    """The exact conditional quantile is attained, two-sided, over 10^4 draws."""
    start = time.time()
    m, n, alpha, delta, reps = 10, 20, 0.1, 0.1, 10_000
    key = TableKey(m, n)
    selected, _ = select_ranks(key, alpha)
    band = 3 * math.sqrt(delta * (1 - delta) / reps)
    details = []
    for ranks in (RankPair(19, 10), RankPair(20, 9), selected):
        quantile = conditional_miscoverage_quantile(key, ranks, delta)
        seed = MASTER_SEED + 100 * ranks.local_rank + ranks.server_rank
        spec = FederationSpec(m=m, n=n, alpha=alpha, seed=seed)
        alpha_p = conditional_alpha_p_by_substream(spec, reps, _Uniform01(), ranks)
        fraction = float(np.mean(alpha_p <= quantile))
        assert abs(fraction - (1 - delta)) <= band, (
            f"{ranks}: fraction {fraction} outside {1 - delta} +- {band}"
        )
        details.append(
            f"{(ranks.local_rank, ranks.server_rank)}: P(alpha_p <= {quantile:.4f}) = "
            f"{fraction:.4f}"
        )
    elapsed = time.time() - start
    _report(10, "; ".join(details) + f", each within {band:.4f} of {1 - delta} in {elapsed:.1f}s")


class _Uniform01:
    def sample(self, rng, size):
        return rng.uniform(size=size)

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def test_c11_tv_distance_respects_the_upper_factor():
    """Exact Poisson-Binomial distance never exceeds its upper factor."""
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        p = rng.uniform(size=m)
        out = poisson_binomial_diagnostic(p)
        assert out["exact_tv_to_binomial"] <= out["ehm_upper"] + 1e-12
    equal = poisson_binomial_diagnostic([0.37] * 9)
    assert equal["exact_tv_to_binomial"] == pytest.approx(0.0, abs=1e-12)
    assert equal["ehm_upper"] == pytest.approx(0.0, abs=1e-12)
    _report(11, "1000 random vectors bounded; equal-probability case collapses to 0")


def test_c12_every_simulated_round_is_one_shot():
    """Each method produces exactly one uplink per agent, never more."""
    rng = np.random.default_rng(MASTER_SEED)
    rounds = 0
    for (m, n) in [(2, 40), (5, 50), (8, 64), (10, 100)]:
        agents = (1.0 - rng.uniform(size=(m, n))).tolist()
        spec = FederationSpec(m=m, n=n, alpha=0.1, seed=1)
        cfg = DpConfig(epsilon=5.0, grid=BinGrid.uniform(1.0, 20))
        for method in ("fedcp_qq", "fedcp_avg", "fedcp2_qq"):
            _, transcript = run_one_shot(spec, agents, method, dp_config=cfg)
            assert len(transcript.uplinks) == m
            assert sorted(a for a, _ in transcript.uplinks) == list(range(m))
            rounds += 1
    with pytest.raises(ProtocolViolationError):
        run_one_shot(
            FederationSpec(m=2, n=5, alpha=0.1, seed=0),
            [[1.0] * 5, [2.0] * 5],
            "centralized",
        )
    _report(12, f"{rounds} simulated rounds audited; centralized correctly rejected")
