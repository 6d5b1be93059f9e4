import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc, betaincinv, roots_legendre

from fedcal import (
    CoverageTable,
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    RankPair,
    ResourceLimitError,
    TableKey,
    conditional_miscoverage_quantile,
    coverage_probability,
    load_table,
    save_table,
    select_ranks,
    split_cp_calibrate,
)

from fedcal import coverage_table
from fedcal.coverage_table import (
    CELL_CAP,
    LEVEL_MARGIN,
    MONOTONE_TOL,
    _entry_engine,
    _legendre_rule,
    _reaches,
    _settled,
)

from oracles import (
    COLD_BAND,
    binomial_tail_mp,
    conditional_coverage_cdf_fraction,
    coverage_bruteforce,
    coverage_bruteforce_column,
    coverage_by_quadrature,
    coverage_column_by_convolution,
    coverage_exact_fraction,
    coverage_mp,
    engine_column,
    max_report_coverage,
    mc_qq_coverage,
    search_differences,
    select_ranks_by_convolution,
    select_ranks_by_gallop,
)


def _window_ends(m, k):
    """The (low, rest) that ``_entry_engine`` computes for its window at
    server rank k of m, read from its first ``betaincinv`` call (the engine
    imports betaincinv from scipy.special when called, so the spy replaces
    it there)."""
    ends = []

    def spy(a, b, y):
        ends.append(betaincinv(a, b, y))
        return ends[-1]

    _entry_engine.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy.special, "betaincinv", spy)
        _entry_engine(m, 1, 1, k)
    return ends[0]


class TestBruteForce:
    def test_single_agent_collapse(self):
        assert coverage_bruteforce(TableKey(1, 9), RankPair(9, 1)) == pytest.approx(0.9, abs=1e-14)

    def test_single_score_collapse(self):
        assert coverage_bruteforce(TableKey(3, 1), RankPair(1, 3)) == pytest.approx(0.75, abs=1e-14)

    def test_matches_exact_rationals(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            l, k = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
            expected = float(coverage_exact_fraction(m, n, l, k))
            got = coverage_bruteforce(TableKey(m, n), RankPair(l, k))
            assert got == pytest.approx(expected, abs=1e-13)

    def test_monte_carlo_agreement_small_case(self):
        exact = coverage_bruteforce(TableKey(2, 2), RankPair(2, 2))
        estimate, se = mc_qq_coverage(2, 2, 2, 2, reps=10**7, seed=123, batch=250_000)
        assert abs(estimate - exact) <= 3 * se

    def test_cell_guard(self):
        with pytest.raises(ResourceLimitError):
            coverage_bruteforce(TableKey(10, 10), RankPair(5, 5))


class TestFastPath:
    def test_matches_bruteforce_on_random_shapes(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            key = TableKey(m, n)
            for l in range(1, n + 1):
                brute = coverage_bruteforce_column(key, l)
                fast = engine_column(key, l)
                np.testing.assert_allclose(fast, brute, atol=1e-12)

    def test_matches_quadrature_on_medium_shapes(self):
        for (m, n, l, k) in [(10, 20, 18, 9), (20, 15, 14, 17), (7, 40, 36, 4), (50, 20, 18, 35)]:
            got = coverage_probability(TableKey(m, n), RankPair(l, k))
            assert got == pytest.approx(coverage_by_quadrature(m, n, l, k), abs=1e-11)

    def test_legendre_rule(self):
        for count in (2, 3, 7, 64):
            x, w = roots_legendre(count)
            t, v = _legendre_rule(count)
            np.testing.assert_allclose(t, (x + 1) / 2, rtol=0, atol=1e-15)
            np.testing.assert_allclose(v, w / 2, rtol=1e-11, atol=0)
        t, v = _legendre_rule(4096)
        for degree in (0, 1, 7, 100, 1000, 8191):  # exact up to degree 2 * 4096 - 1
            assert abs(v @ t**degree - 1 / (degree + 1)) < 1e-15

    def test_window_skips_most_nodes(self, monkeypatch):
        # at (20, 40), ranks (36, 18): G and the integrand are each read once,
        # at the 128 nodes mapped to the window, which the check rule shares;
        # a rule exact on all of [0, 1] has 512
        # the engine imports betainc from scipy.special when called, so the spy
        # replaces it there
        sizes = []
        monkeypatch.setattr(
            scipy.special, "betainc", lambda a, b, x: sizes.append(np.size(x)) or betainc(a, b, x)
        )
        _entry_engine.cache_clear()
        _entry_engine(20, 40, 36, 18)
        assert sizes == [128, 128]

    def test_ladder_stops_at_512_nodes(self, monkeypatch):
        # a check that never agrees: the engine doubles 128 to 512, then gives up
        sizes = []
        rule = coverage_table._checked_rule

        def disagreeing(count):
            sizes.append(count)
            t, w, check = rule(count)
            return t, w, check + 1.0

        monkeypatch.setattr(coverage_table, "_checked_rule", disagreeing)
        with pytest.raises(InternalError, match=r"rules disagree at ranks \(36, 18\)"):
            _entry_engine.__wrapped__(20, 40, 36, 18)
        assert sizes == [128, 256, 512]

    def test_check_accepts_only_entries_near_a_1024_node_rule(self, monkeypatch):
        # entries cold searches read at shapes of m n >= 2000: a seeded 1000,
        # plus every one at (10^5, 10). Each is integrated on its own window
        # with one rule: 128 nodes, the 7-of-8 check rule, and 1024 nodes.
        # The check's estimate |128 - check| can fall short of the real error
        # |128 - 1024| (by 3.0e-14 at (10^5, 10), ranks (5, 10^5)), but every
        # entry it accepts must be within the engine's LEVEL_MARGIN / 4
        read = set()
        for m, n in [(50, 100), (200, 200), (500, 500), (1000, 1000), (100, 10**4), (10**5, 10)]:
            for alpha in (0.05, 0.1, 0.2):
                table = CoverageTable(key=TableKey(m, n))
                select_ranks(table.key, alpha, table=table)
                read.update((m, n, l, k) for l, k in table.entries)
        tall = sorted(entry for entry in read if entry[:2] == (10**5, 10))
        rest = sorted(read.difference(tall))
        picks = np.random.default_rng(33).choice(len(rest), 1000, replace=False)
        sample = tall + [rest[i] for i in picks]

        t, w, check = coverage_table._checked_rule(128)
        fine = _legendre_rule(1024)
        now = {}
        monkeypatch.setattr(coverage_table, "_checked_rule", lambda count: now["rule"])

        def on(t, w, entry):
            now["rule"] = (t, w, np.zeros_like(w))
            return _entry_engine.__wrapped__(*entry)

        accepted = 0
        for entry in sample:
            value = on(t, w, entry)
            estimate, error = abs(value - on(t, w + check, entry)), abs(value - on(*fine, entry))
            assert error - estimate < 1e-13, entry
            if estimate <= LEVEL_MARGIN / 4:
                accepted += 1
                assert error <= LEVEL_MARGIN / 4, entry
        assert accepted >= 1000

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.integers(1, CELL_CAP))
    def test_tail_outside_the_window_is_a_negligible_zero_or_one(self, data, m):
        # the engine reads the integrand as 0 where G < low and as 1 where
        # 1 - G < rest, the complement passed explicitly
        k = data.draw(st.sampled_from([1, m]) | st.integers(1, m))
        low, rest = _window_ends(m, k)
        high = 1.0 - rest
        nearby = (np.nextafter(low, 0), np.nextafter(high, 1), np.nextafter(rest, 0))
        edges = st.sampled_from(
            [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1 - 2**-53, low, high, rest]
            + [x for x in nearby if x <= 1]
        )
        g = np.array(data.draw(st.lists(edges | st.floats(0.0, 1.0), min_size=1, max_size=40)))
        tail = betainc(k, m - k + 1, g)
        assert np.all(tail[g < low] <= 2.0**-80)
        assert np.all(tail[g > high] == 1.0)
        # with g read as 1 - G: P(Bin(m, G) < k) = P(Bin(m, 1 - G) >= m - k + 1)
        assert np.all(betainc(m - k + 1, k, g[g < rest]) <= 2.0**-80)

    def test_lower_window_end_at_the_top_rank_is_closed_form(self):
        # P(Bin(m, G) >= m) = G^m, so the 2^-81 quantile is 2^(-81 / m)
        for m in (1, 2, 7, 1000, 10**6):
            low, _ = _window_ends(m, m)
            assert abs(low - 2.0 ** (-81 / m)) <= 4 * np.spacing(2.0 ** (-81 / m)), m

    def test_column_monotone_in_both_ranks(self):
        key = TableKey(6, 8)
        grid = np.array([engine_column(key, l) for l in range(1, 9)])
        assert np.all(np.diff(grid, axis=0) >= -1e-12)
        assert np.all(np.diff(grid, axis=1) >= -1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.integers(1, 12), n=st.integers(1, 30))
    def test_probability_nondecreasing_in_both_ranks(self, data, m, n):
        key = TableKey(m, n)
        l = data.draw(st.integers(1, n))
        k = data.draw(st.integers(1, m))
        here = coverage_probability(key, RankPair(l, k))
        if l < n:
            assert coverage_probability(key, RankPair(l + 1, k)) >= here - MONOTONE_TOL
        if k < m:
            assert coverage_probability(key, RankPair(l, k + 1)) >= here - MONOTONE_TOL

    def test_boundary_collapses(self):
        for n in (1, 7, 70):
            for l in range(1, n + 1):
                got = coverage_probability(TableKey(1, n), RankPair(l, 1))
                assert got == pytest.approx(l / (n + 1), abs=1e-13)
        for m in (1, 7, 70):
            for k in range(1, m + 1):
                got = coverage_probability(TableKey(m, 1), RankPair(1, k))
                assert got == pytest.approx(k / (m + 1), abs=1e-13)

    @pytest.mark.parametrize("size", [10**3, 10**4, 10**5, 10**6])
    def test_closed_forms_at_large_shapes(self, size):
        # l / (n + 1) for one agent, and the local-rank-n product for m agents
        # of n = 10^6 / m scores, to 1e-14 at up to 10^6 cells
        for l in sorted({1, 2, size // 3, size // 2, 9 * size // 10, size - 1, size}):
            got = coverage_probability(TableKey(1, size), RankPair(l, 1))
            assert abs(got - l / (size + 1)) <= 1e-14, l
        m = min(size, 10**5)
        n = 10**6 // m
        for k in sorted({1, 2, m // 3, m // 2, 9 * m // 10, m - 1, m}):
            got = coverage_probability(TableKey(m, n), RankPair(n, k))
            assert abs(got - max_report_coverage(m, n, k)) <= 1e-14, k

    @pytest.mark.parametrize("m, n", [(200, 200), (1000, 1000), (10**5, 10), (10, 10**5), (999, 1001)])
    def test_reflected_entries_sum_to_one(self, m, n):
        # coverage(l, k) + coverage(n + 1 - l, m + 1 - k) = 1 (reflect every
        # score) checks the engine where no exact oracle reaches: entries
        # on the frontier of seeded levels, within LEVEL_MARGIN / 2
        key, rng = TableKey(m, n), np.random.default_rng(m + 7 * n)
        checked = 0
        for _ in range(200):
            if checked == 8:
                break
            l, level = int(rng.integers(1, n + 1)), float(rng.uniform(0.02, 0.98))
            low, high = 1, m  # the smallest k whose coverage reaches the level
            if coverage_probability(key, RankPair(l, m)) < level:
                continue
            while low < high:
                middle = (low + high) // 2
                if coverage_probability(key, RankPair(l, middle)) >= level:
                    high = middle
                else:
                    low = middle + 1
            here = coverage_probability(key, RankPair(l, low))
            if not 0.01 < here < 0.99:
                continue
            mirrored = coverage_probability(key, RankPair(n + 1 - l, m + 1 - low))
            assert abs(here + mirrored - 1.0) <= LEVEL_MARGIN / 2, (l, low)
            checked += 1
        assert checked == 8

    def test_rank_bounds_validated(self):
        with pytest.raises(InvalidArgumentError):
            coverage_probability(TableKey(3, 4), RankPair(5, 1))
        with pytest.raises(InvalidArgumentError):
            coverage_probability(TableKey(3, 4), RankPair(1, 4))


class TestConvolutionOracle:
    """The production quadrature against the log-space convolution route."""

    def test_matches_on_medium_shapes(self):
        for (m, n, l, k) in [(10, 20, 18, 9), (20, 15, 14, 17), (7, 40, 36, 4), (50, 20, 18, 35)]:
            got = coverage_probability(TableKey(m, n), RankPair(l, k))
            assert got == pytest.approx(coverage_column_by_convolution(m, n, l)[k - 1], abs=1e-12)

    def test_same_ranks_on_the_sweep_grid(self):
        for m in (5, 20):
            for n in range(10, 101):
                ranks, _ = select_ranks(TableKey(m, n), 0.1)
                expected = select_ranks_by_convolution(m, n, 0.1)
                assert (ranks.local_rank, ranks.server_rank) == expected, (m, n)


# the pair chosen at alpha = 0.1 and the frontier entries of the local ranks
# on either side, then (10^5, 10, 5, 10^5), where the 7-of-8 check
# underestimates the 128-node rule's error
THIRTY_DIGIT_SHAPES = {
    (200, 200): [(182, 75), (181, 94), (183, 58)],
    (1000, 1000): [(897, 649), (896, 687), (898, 610)],
    (10**5, 10): [(9, 73611), (8, 92982), (10, 34869)],
    (10, 10**5): [(90063, 3), (90062, 4), (90064, 3)],
}
THIRTY_DIGIT_ENTRIES = [
    (m, n, l, k) for (m, n), pairs in THIRTY_DIGIT_SHAPES.items() for l, k in pairs
] + [(10**5, 10, 5, 10**5)]


class TestThirtyDigitOracle:
    """The engine against ``coverage_mp``, which takes no value from scipy."""

    def test_binomial_tail_matches_mpmath_betainc(self):
        from mpmath import mp, mpf

        with mp.workdps(30):
            for a, b, x in [(9, 2, "0.8"), (182, 19, "0.9"), (75, 126, "0.37"), (649, 352, "0.649")]:
                exact = mp.betainc(a, b, 0, mpf(x), regularized=True)
                assert abs(binomial_tail_mp(a + b - 1, a, mpf(x)) - exact) < 1e-29, (a, b)

    def test_matches_exact_rationals(self):
        from mpmath import mp, mpf

        with mp.workdps(30):
            for m, n, l, k in [(1, 5, 3, 1), (3, 4, 2, 2), (4, 5, 4, 3)]:
                exact = coverage_exact_fraction(m, n, l, k)
                error = coverage_mp(m, n, l, k) - mpf(exact.numerator) / exact.denominator
                assert abs(error) < 1e-28, (m, n, l, k)

    def test_entries_are_each_choice_and_its_frontier_neighbours(self):
        for (m, n), (chosen, *beside) in THIRTY_DIGIT_SHAPES.items():
            key = TableKey(m, n)
            assert select_ranks(key, 0.1)[0] == RankPair(*chosen)
            for l, k in beside:
                assert coverage_probability(key, RankPair(l, k - 1)) < 0.9
                assert coverage_probability(key, RankPair(l, k)) >= 0.9

    @pytest.mark.parametrize("m, n, l, k", THIRTY_DIGIT_ENTRIES)
    def test_engine_within_a_quarter_margin(self, m, n, l, k):
        assert abs(_entry_engine(m, n, l, k) - coverage_mp(m, n, l, k)) <= LEVEL_MARGIN / 4


class TestCertifiedLevel:
    """Entries equal to 1 - alpha, where a float compare can go either way."""

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 1), (1, 19), (19, 1)])
    def test_true_tie_is_feasible(self, m, n):
        table = CoverageTable(key=TableKey(m, n))
        ranks, coverage = select_ranks(TableKey(m, n), 0.25, table=table)
        rank = math.ceil(0.75 * (m * n + 1))
        assert (ranks.local_rank, ranks.server_rank) == ((rank, 1) if m == 1 else (1, rank))
        assert coverage == 0.75
        assert table.entries[(ranks.local_rank, ranks.server_rank)] == 0.75

    def test_margin_decides_the_route(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            coverage_table, "_settled", lambda *entry: calls.append(entry) or Fraction(9, 10)
        )
        below, near, above = 0.9 - 2 * LEVEL_MARGIN, 0.9 - LEVEL_MARGIN / 2, 0.9 + 2 * LEVEL_MARGIN
        table = CoverageTable(TableKey(3, 4), entries={(1, 1): below, (1, 2): near, (1, 3): above})
        assert not _reaches(table, 1, 1, 0.1) and _reaches(table, 1, 3, 0.1)
        assert calls == []
        assert _reaches(table, 1, 2, 0.1)
        assert calls == [(3, 4, 1, 2)]
        assert table.entries == {(1, 1): below, (1, 2): 0.9, (1, 3): above}

    def test_exact_route_below_the_level_is_infeasible(self, monkeypatch):
        # 1e-20 below 3/4: rounds to 0.75, yet misses the level 0.75
        monkeypatch.setattr(
            coverage_table, "_settled", lambda *entry: Fraction(3, 4) - Fraction(1, 10**20)
        )
        table = CoverageTable(TableKey(3, 4), entries={(2, 2): 0.75})
        assert not _reaches(table, 2, 2, 0.25)
        assert table.entries == {(2, 2): 0.75}

    @pytest.mark.parametrize("m, n", [(60, 60), (20, 40)])
    def test_near_tie_no_closed_form_settles_counts_as_missing(self, m, n):
        # at 1 - alpha equal to the coverage of an entry that no closed form
        # settles, above 2500 cells and below, the entry fails, and the
        # search takes another pair that reaches the level
        key = TableKey(m, n)
        ranks, value = select_ranks(key, 0.1)
        l, k = ranks.local_rank, ranks.server_rank
        assert 1 < l < n and (2 * l, 2 * k) != (n + 1, m + 1)
        assert _settled(m, n, l, k) is None
        alpha = 1.0 - value
        table = CoverageTable(key=key)
        tied, reached = select_ranks(key, alpha, table=table)
        assert abs(table.entries[(l, k)] - (1.0 - alpha)) <= LEVEL_MARGIN
        assert tied != ranks
        assert reached >= 1.0 - alpha
        assert table.entries[(tied.local_rank, tied.server_rank)] == reached

    @pytest.mark.parametrize(
        "m, n, pair",
        [(49, 51, (26, 25)), (51, 51, (26, 26)), (61, 61, (31, 31)), (101, 99, (50, 51)), (3, 1001, (501, 2))],
    )
    def test_median_tie_settles_at_the_centre(self, m, n, pair):
        # at alpha = 0.5 the centre entry covers exactly 1/2, the smallest
        # coverage any feasible pair can have, and its closed form settles it
        assert (2 * pair[0], 2 * pair[1]) == (n + 1, m + 1)
        table = CoverageTable(key=TableKey(m, n))
        ranks, value = select_ranks(TableKey(m, n), 0.5, table=table)
        assert (ranks.local_rank, ranks.server_rank) == pair
        assert value == 0.5
        assert table.entries[pair] == 0.5

    @staticmethod
    def _small_entries(m):
        # every entry of every shape with m agents and m n <= 12
        return [
            (m, n, l, k)
            for n in range(1, 12 // m + 1)
            for l in range(1, n + 1)
            for k in range(1, m + 1)
        ]

    @staticmethod
    def _closed_form(m, n, l, k):
        # which of _settled's closed forms applies, if any
        if m == 1:
            return "one agent"
        if l == n:
            return "top local rank"
        if l == 1:
            return "bottom local rank"
        if (2 * l, 2 * k) == (n + 1, m + 1):
            return "centre"
        return None

    @pytest.mark.parametrize("m", range(1, 13))
    def test_settled_matches_exact_rationals(self, m):
        # a value wherever a closed form applies, equal to the exact rational,
        # and None wherever none does
        for case in self._small_entries(m):
            settled = _settled(*case)
            if self._closed_form(*case) is None:
                assert settled is None, case
            else:
                assert settled == coverage_exact_fraction(*case), case

    def test_settled_sweep_reaches_every_route(self):
        # the sweep above takes all four closed forms, and entries none settles
        cases = [case for m in range(1, 13) for case in self._small_entries(m)]
        assert len(cases) == 264
        routes = {self._closed_form(*case) for case in cases}
        assert routes == {"one agent", "top local rank", "bottom local rank", "centre", None}
        assert any(_settled(*case) is None for case in cases)

    def test_reflected_entries_sum_to_one_exactly(self):
        # reflecting every score maps the (l, k) threshold to minus the
        # (n + 1 - l, m + 1 - k) one, so the two coverages sum to 1
        for (m, n, l, k) in [case for size in range(1, 13) for case in self._small_entries(size)]:
            mirrored = coverage_exact_fraction(m, n, n + 1 - l, m + 1 - k)
            assert coverage_exact_fraction(m, n, l, k) + mirrored == 1, (m, n, l, k)

    def test_closed_forms_match_exact_rationals(self):
        # one agent, l = n, n = 1, l = 1 and the centre take closed forms
        for (m, n, l, k) in [
            (1, 6, 4, 1), (3, 4, 4, 2), (4, 3, 3, 1), (5, 1, 1, 3), (3, 4, 1, 2), (4, 3, 1, 4),
            (3, 3, 2, 2), (5, 3, 2, 3),
        ]:
            assert _settled(m, n, l, k) == coverage_exact_fraction(m, n, l, k)

    @pytest.mark.parametrize(
        "m, n, alpha, pair, value",
        [
            (999, 1, 0.1, (1, 900), 0.9),
            (9999, 1, 0.1, (1, 9000), 0.9),
            (1, 9999, 0.1, (9000, 1), 0.9),
            (99, 101, 1e-4, (101, 99), 0.9999),
        ],
    )
    def test_systematic_ties_settle_quickly(self, m, n, alpha, pair, value):
        # k / (m + 1), l / (n + 1) and the top entry m n / (m n + 1) are
        # exact ties at these levels; settling them must not build the
        # integer polynomial of a large shape
        table = CoverageTable(key=TableKey(m, n))
        start = time.perf_counter()
        ranks, coverage = select_ranks(TableKey(m, n), alpha, table=table)
        assert time.perf_counter() - start < 60
        assert (ranks.local_rank, ranks.server_rank) == pair
        assert coverage == value
        assert len(table.entries) < 2 * n + 100  # the search steps over server ranks

class TestMaxReportClosedForm:
    def test_single_score_gives_server_collapse(self):
        assert max_report_coverage(3, 1, 2) == pytest.approx(0.5, abs=1e-14)

    def test_matches_bruteforce(self):
        expected = coverage_bruteforce(TableKey(5, 10), RankPair(10, 5))
        assert max_report_coverage(5, 10, 5) == pytest.approx(expected, abs=1e-12)

    def test_matches_engine_at_top_rank(self):
        for (m, n) in [(5, 10), (12, 7), (30, 3)]:
            column = engine_column(TableKey(m, n), n)
            for k in range(1, m + 1):
                assert column[k - 1] == pytest.approx(max_report_coverage(m, n, k), abs=1e-11)

    def test_large_m_limit_reaches_target(self):
        # with server rank ceil(m * (1-alpha)^n) the coverage approaches 1-alpha
        m, n, alpha = 10**4, 3, 0.1
        k = math.ceil(m * (1 - alpha) ** n)
        assert max_report_coverage(m, n, k) >= 1 - alpha - 0.01


class TestSelectRanks:
    def test_single_agent_example(self):
        ranks, coverage = select_ranks(TableKey(1, 19), 0.1)
        assert (ranks.local_rank, ranks.server_rank) == (18, 1)
        assert coverage == pytest.approx(0.9, abs=1e-12)

    def test_single_score_example(self):
        ranks, coverage = select_ranks(TableKey(19, 1), 0.1)
        assert (ranks.local_rank, ranks.server_rank) == (1, 18)
        assert coverage == pytest.approx(0.9, abs=1e-12)

    def test_matches_exhaustive_grid_argmin(self):
        key = TableKey(10, 20)
        ranks, coverage = select_ranks(key, 0.1)
        candidates = []
        for l in range(1, 21):
            column = engine_column(key, l)
            for k in range(1, 11):
                if column[k - 1] >= 0.9:
                    candidates.append((column[k - 1], l, k))
        best = min(candidates)
        assert (best[1], best[2]) == (ranks.local_rank, ranks.server_rank)
        assert best[0] == coverage

    def test_selected_coverage_feasible_and_minimal_over_table(self):
        key = TableKey(7, 13)
        table = CoverageTable(key=key)
        ranks, coverage = select_ranks(key, 0.2, table=table)
        assert coverage >= 0.8
        feasible = [v for v in table.entries.values() if v >= 0.8]
        assert coverage == min(feasible)
        table.validate()

    def test_single_agent_takes_smallest_reaching_rank(self):
        # one agent covers with probability l / (n + 1), so the search reads
        # only the feasibility entry (n, 1) and its answer; at the exact ties
        # (n = 9, 19, 99 at alpha = 0.1) the answer is settled exactly. It is
        # the centralized split rank, which rounding (n + 1)(1 - alpha) in
        # floats would miss at (9, 0.3) and (299, 0.19)
        for n in range(1, 401):
            for alpha in (0.009, 0.01, 0.05, 0.1, 0.19, 0.2, 0.3, 1 / 3, 0.5):
                level = 1 - Fraction(alpha)
                table = CoverageTable(key=TableKey(1, n))
                try:
                    ranks, value = select_ranks(TableKey(1, n), alpha, table=table)
                except InfeasibleError:
                    assert Fraction(n, n + 1) < level
                    assert split_cp_calibrate(np.zeros(n), alpha).params["rank"] == n + 1
                    continue
                l = ranks.local_rank
                assert ranks.server_rank == 1
                assert split_cp_calibrate(np.zeros(n), alpha).params["rank"] == l, (n, alpha)
                assert Fraction(l, n + 1) >= level > Fraction(l - 1, n + 1)
                assert abs(value - Fraction(l, n + 1)) <= LEVEL_MARGIN / 2
                if abs(Fraction(l, n + 1) - level) <= LEVEL_MARGIN:
                    assert value == float(Fraction(l, n + 1))
                assert len(table.entries) <= 2
        table = CoverageTable(key=TableKey(1, 9999))
        assert select_ranks(TableKey(1, 9999), 0.1, table=table) == (RankPair(9000, 1), 0.9)
        assert len(table.entries) <= 2

    def test_matches_the_plain_gallop_on_the_cold_band(self):
        # tests/cold_band.py checks all 3,636 inputs
        rng = np.random.default_rng(2302)
        inputs = [COLD_BAND[i] for i in rng.choice(len(COLD_BAND), 300, replace=False)]
        assert [problem for case in inputs for problem in search_differences(*case)] == []

    @pytest.mark.parametrize(
        "m, n, alpha", [(99, 101, 1e-4), (9999, 1, 0.1), (50, 100, 0.1), (100, 100, 0.05)]
    )
    def test_matches_the_plain_gallop_beyond_the_cold_band(self, m, n, alpha):
        # exact ties, and the 4096- and 8192-node rules at ordinary levels
        assert search_differences(m, n, alpha) == []

    def test_underflowed_prediction_steps_up_from_the_floor(self):
        # 0.1^330 reads 0.0, so every column starts at the previous column's
        # answer, and the walk's upward steps total at most m
        table = CoverageTable(key=TableKey(10, 330))
        ranks, value = select_ranks(table.key, 0.9, table=table)
        pair, expected, _ = select_ranks_by_gallop(10, 330, 0.9)
        assert (pair, expected) == ((34, 5), 0.10001213865128689)
        assert ((ranks.local_rank, ranks.server_rank), value) == (pair, expected)
        assert len(table.entries) <= 330 + 10 + 1

    def test_search_starts_near_the_frontier(self):
        # the gallop from the previous column's frontier read 33 entries
        table = CoverageTable(key=TableKey(20, 40))
        select_ranks(table.key, 0.1, table=table)
        assert len(table.entries) <= 20

    def test_large_shape_builds_no_rule_above_256_nodes(self, monkeypatch):
        sizes = []
        rule = coverage_table._legendre_rule
        monkeypatch.setattr(
            coverage_table, "_legendre_rule", lambda count: sizes.append(count) or rule(count)
        )
        coverage_table._checked_rule.cache_clear()
        _entry_engine.cache_clear()
        table = CoverageTable(key=TableKey(1000, 1000))
        select_ranks(table.key, 0.1, table=table)
        assert len(table.entries) > 100
        assert 0 < max(sizes) <= 256

    def test_infeasible_alpha_raises(self):
        # the all-maximum entry has coverage mn/(mn+1); below that nothing works
        with pytest.raises(InfeasibleError):
            select_ranks(TableKey(2, 2), 0.1)

    def test_infeasible_message_names_a_level_below_one(self):
        # 1.0 - 1e-300 rounds to 1.0; the message names the level exactly
        with pytest.raises(InfeasibleError, match=r"is below 1 - 1e-300; no rank pair"):
            select_ranks(TableKey(5, 20), 1e-300)

    def test_table_reuse_avoids_engine(self):
        key = TableKey(5, 12)
        table = CoverageTable(key=key)
        first = select_ranks(key, 0.1, table=table)
        entries = dict(table.entries)
        second = select_ranks(key, 0.1, table=table)
        assert first == second
        assert table.entries == entries

    def test_search_settles_a_stored_entry_near_the_level(self):
        key = TableKey(8, 60)
        expected = select_ranks(key, 0.2)
        # a stored (n, m) entry just above the level: the walk settles it to
        # its exact value
        table = CoverageTable(key=key, entries={(60, 8): 0.8 + LEVEL_MARGIN / 2})
        assert select_ranks(key, 0.2, table=table) == expected
        assert table.entries[(60, 8)] == 480 / 481  # 1 - 1/(m*n + 1), settled exactly

    def test_forged_chosen_entry_refused_on_a_repeated_search(self):
        key = TableKey(8, 60)
        table = CoverageTable(key=key)
        for _ in range(2):
            ranks, coverage = select_ranks(key, 0.2, table=table)
        assert ranks == RankPair(46, 7)
        table.entries[(46, 7)] = coverage - 1e-9  # still feasible, and still the smallest
        with pytest.raises(InvalidArgumentError, match=r"\(46, 7\)"):
            select_ranks(key, 0.2, table=table)

    def test_repeated_search_sees_a_forged_frontier_entry(self):
        key = TableKey(8, 60)
        table = CoverageTable(key=key)
        for _ in range(2):
            ranks, coverage = select_ranks(key, 0.2, table=table)
        # another column's first feasible entry, whose server-rank neighbour failed
        l, k = next(
            (l, k)
            for (l, k), value in sorted(table.entries.items())
            if l != ranks.local_rank and value >= 0.8 and table.entries.get((l, k - 1), 1.0) < 0.8
        )
        table.entries[(l, k)] = coverage - 1e-9  # now the smallest feasible entry
        with pytest.raises(InvalidArgumentError, match=rf"\({l}, {k}\)"):
            select_ranks(key, 0.2, table=table)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TableKey(10.5, 20),
        lambda: TableKey(10, 20.5),
        lambda: coverage_probability(TableKey(3, 4), RankPair(2.5, 2)),
        lambda: coverage_probability(TableKey(3, 4), RankPair(2, 1.5)),
        lambda: TableKey(True, 5),
        lambda: coverage_probability(TableKey(3, 4), RankPair(True, 2)),
    ],
    ids=["table-key", "table-key-n", "rank-pair", "rank-pair-server", "table-key-bool", "rank-pair-bool"],
)
def test_non_integer_sizes_and_ranks_refused(call):
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        call()


class TestConditionalBound:
    """The exact training-conditional quantile, the inverse of the law
    P(F(q_hat) <= x) = I_{G(x)}(k, m - k + 1)."""

    def test_direct_evaluation(self):
        key = TableKey(20, 30)
        ranks, _ = select_ranks(key, 0.1)
        assert ranks == RankPair(28, 9)
        assert round(conditional_miscoverage_quantile(key, ranks, 0.1), 4) == 0.1185

    def test_matches_rational_law_on_random_shapes(self):
        rng = np.random.default_rng(2302)
        for _ in range(200):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            l, k = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
            delta = float(10 ** rng.uniform(-6, math.log10(0.9)))
            level = conditional_miscoverage_quantile(TableKey(m, n), RankPair(l, k), delta)
            law = conditional_coverage_cdf_fraction(m, n, l, k, 1 - Fraction(level))
            assert float(law) == pytest.approx(delta, rel=1e-9, abs=0), (m, n, l, k, delta)

    def test_mean_is_the_table_miscoverage(self):
        # the quantile function integrates over delta to the mean miscoverage
        for (m, n, l, k) in [(1, 1, 1, 1), (3, 5, 4, 2), (7, 3, 1, 7), (10, 20, 19, 5)]:
            key, ranks = TableKey(m, n), RankPair(l, k)
            mean, _ = quad(
                lambda d: conditional_miscoverage_quantile(key, ranks, d),
                0, 1, epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            assert mean == pytest.approx(1 - coverage_probability(key, ranks), abs=1e-10)

    def test_monotone_in_delta(self):
        key, ranks = TableKey(10, 20), RankPair(19, 5)
        levels = [conditional_miscoverage_quantile(key, ranks, d) for d in (0.01, 0.1, 0.5, 0.9)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_vanishes_with_data(self):
        # the law concentrates: at (1000, 1000) its 10% and 90% points nearly meet
        key, ranks = TableKey(1000, 1000), RankPair(900, 500)
        high = conditional_miscoverage_quantile(key, ranks, 0.1)
        low = conditional_miscoverage_quantile(key, ranks, 0.9)
        assert 0 < high - low < 2e-3
        assert low == pytest.approx(0.1, abs=5e-3)

    def test_delta_range(self):
        for delta in (0.0, 1.0, -0.1, 1.5, float("nan")):
            with pytest.raises(InvalidArgumentError, match="delta"):
                conditional_miscoverage_quantile(TableKey(2, 2), RankPair(1, 1), delta)

    def test_out_of_range_ranks_rejected(self):
        for ranks in (RankPair(21, 1), RankPair(0, 1), RankPair(1, 11)):
            with pytest.raises(InvalidArgumentError, match="rank must be in"):
                conditional_miscoverage_quantile(TableKey(10, 20), ranks, 0.1)


class TestPersistence:
    def test_round_trip_is_bit_faithful(self, tmp_path):
        key = TableKey(4, 6)
        table = CoverageTable(key=key)
        select_ranks(key, 0.25, table=table)
        path = tmp_path / "table.txt"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.key.m == 4 and loaded.key.n == 6
        assert loaded.entries == table.entries
        loaded.validate()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.integers(1, 8), n=st.integers(1, 12))
    def test_engine_entries_round_trip_bit_identical(self, tmp_path_factory, data, m, n):
        pairs = data.draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, m)),
                                  max_size=m * n))
        table = CoverageTable(key=TableKey(m, n))
        for l, k in pairs:
            table.entries[(l, k)] = _entry_engine(m, n, l, k)
        path = tmp_path_factory.mktemp("cache") / "table.txt"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.key == table.key
        assert {pair: value.hex() for pair, value in loaded.entries.items()} == {
            pair: value.hex() for pair, value in table.entries.items()
        }

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        key = TableKey(4, 6)
        table = CoverageTable(key=key)
        select_ranks(key, 0.25, table=table)
        path = tmp_path / "table.txt"
        save_table(table, path)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            save_table(CoverageTable(key=key), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_table(path).entries == table.entries
        assert list(tmp_path.iterdir()) == [path]

    def test_newer_version_refused(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("fedcal-coverage-table 99\nm 2\nn 2\nentries 0\n")
        with pytest.raises(InvalidArgumentError):
            load_table(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fedcal-coverage-table 1\nm 2\nn 2\nentries -1\n", "negative"),
            ("fedcal-coverage-table -3\nm 2\nn 2\nentries 0\n", "not a valid version"),
            ("fedcal-coverage-table 1\nm 2\nn 2\nentries 2\n1 1 0.5\n1 1 0.6\n", "repeat"),
            ("fedcal-coverage-table 1\nm 2\nn 2\nentries 1\n1 1 0.5\n1 2 0.6\n", "after"),
        ],
        ids=["negative_count", "version_below_one", "duplicate_pair", "trailing_text"],
    )
    def test_malformed_header_or_layout_refused(self, tmp_path, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=f"table.txt: .*{message}"):
            load_table(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("fedcal-coverage-table 1\nm 2\nn 2\nentries 1\n1 1 0.5\n\n \n")
        assert load_table(path).entries == {(1, 1): 0.5}

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        for text in (
            "not a table\n",
            "fedcal-coverage-table 1\nm 2000\nn 2000\nentries 0\n",  # m*n over the cap
        ):
            path.write_text(text)
            with pytest.raises(InvalidArgumentError, match="table.txt"):
                load_table(path)

    def test_full_column_cache_from_the_oracle(self, tmp_path):
        key = TableKey(7, 13)
        table = CoverageTable(key=key)
        for l in range(1, 14):
            column = coverage_column_by_convolution(7, 13, l)
            table.entries.update(((l, k), v) for k, v in enumerate(column, start=1))
        path = tmp_path / "table.txt"
        save_table(table, path)
        expected = {alpha: select_ranks(key, alpha)[0] for alpha in (0.05, 0.1, 0.2)}
        _entry_engine.cache_clear()
        loaded = load_table(path)
        for alpha, ranks in expected.items():
            assert select_ranks(key, alpha, table=loaded)[0] == ranks
        # the search reads only the table; each chosen entry is recomputed
        assert _entry_engine.cache_info().misses == len(set(expected.values()))

    def test_forged_monotone_entry_refused(self, tmp_path):
        key = TableKey(8, 60)
        table = CoverageTable(key=key)
        assert select_ranks(key, 0.2, table=table)[0] == RankPair(46, 7)
        # true coverage 0.79879; the forged value keeps the table monotone
        table.entries[(44, 8)] = 0.8000001
        path = tmp_path / "table.txt"
        save_table(table, path)
        with pytest.raises(InvalidArgumentError, match=r"\(44, 8\)"):
            select_ranks(key, 0.2, table=load_table(path))

    @pytest.mark.parametrize(
        "entries",
        [
            "1 1 0.5\n1 2 0.4\n",  # coverage falls as the server rank grows
            "1 1 0.5\n1 x 0.6\n",  # a rank that is not an integer
        ],
    )
    def test_load_rejects_corrupt_entries(self, tmp_path, entries):
        path = tmp_path / "table.txt"
        path.write_text("fedcal-coverage-table 1\nm 2\nn 2\nentries 2\n" + entries)
        with pytest.raises(InvalidArgumentError, match="table.txt"):
            load_table(path)

    def test_validate_catches_monotonicity_break(self):
        table = CoverageTable(key=TableKey(2, 2))
        table.entries[(1, 1)] = 0.5
        table.entries[(2, 1)] = 0.4
        with pytest.raises(InternalError):
            table.validate()

    @pytest.mark.parametrize(
        "entries, error, message",
        [
            ({(1, 1): 0.5, (3, 1): 0.6}, InvalidArgumentError, r"local rank must be in \[1, 2\], got 3"),
            ({(1, 0): 0.5}, InvalidArgumentError, r"server rank must be in \[1, 2\], got 0"),
            ({(1, 1): 0.5, (2, 2): 1.5}, InternalError, r"entry \(2, 2\) = 1.5 outside \[0, 1\]"),
            ({(1, 1): float("nan")}, InternalError, r"entry \(1, 1\) = nan outside"),
            ({(1, 1): 0.5, (2, 1): 0.4}, InternalError, r"in local rank at \(1, 1\)"),
            ({(1, 1): 0.5, (1, 2): 0.4}, InternalError, r"in server rank at \(1, 1\)"),
            # the first bad entry in insertion order is the one reported
            ({(2, 1): 0.4, (1, 2): 0.3, (1, 1): 0.5}, InternalError, r"in local rank at \(1, 1\)"),
        ],
    )
    def test_validate_names_the_first_bad_entry(self, entries, error, message):
        table = CoverageTable(key=TableKey(2, 2), entries=dict(entries))
        with pytest.raises(error, match=message):
            table.validate()


class TestTableKey:
    def test_cell_cap(self):
        with pytest.raises(ResourceLimitError):
            TableKey(2000, 2000)

    def test_positivity(self):
        with pytest.raises(InvalidArgumentError):
            TableKey(0, 5)
