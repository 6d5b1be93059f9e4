import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

from fedcal import (
    CoverageTable,
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    RankPair,
    ResourceLimitError,
    TableKey,
    conditional_miscoverage_quantile,
    coverage_column,
    coverage_probability,
    load_table,
    save_table,
    select_ranks,
    select_ranks_unbalanced,
    unbalanced_coverage,
)

from fedcal import coverage_table
from fedcal.coverage_table import (
    LEVEL_MARGIN,
    MONOTONE_TOL,
    _entry_engine,
    _legendre_rule,
    _meets_level,
    _settled,
    unbalanced_local_ranks,
)

from oracles import (
    conditional_coverage_cdf_fraction,
    coverage_bruteforce,
    coverage_bruteforce_column,
    coverage_by_quadrature,
    coverage_column_by_convolution,
    coverage_exact_fraction,
    inid_coverage_exact_fraction,
    max_report_coverage,
    mc_qq_coverage,
    select_ranks_by_convolution,
    unbalanced_coverage_by_convolution,
)


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
                fast = coverage_column(key, l)
                np.testing.assert_allclose(fast, brute, atol=1e-12)

    def test_matches_quadrature_on_medium_shapes(self):
        for (m, n, l, k) in [(10, 20, 18, 9), (20, 15, 14, 17), (7, 40, 36, 4), (50, 20, 18, 35)]:
            got = coverage_probability(TableKey(m, n), RankPair(l, k))
            assert got == pytest.approx(coverage_by_quadrature(m, n, l, k), abs=1e-11)

    def test_entry_equals_its_column_element_bit_for_bit(self):
        for m, n in [(1, 19), (10, 20), (40, 25), (7, 40)]:
            key = TableKey(m, n)
            for l in sorted({1, n // 2 + 1, n}):
                entries = [coverage_probability(key, RankPair(l, k)) for k in range(1, m + 1)]
                assert entries == coverage_column(key, l).tolist()

    def test_legendre_rule(self):
        for count in (2, 3, 7, 64):
            x, w = roots_legendre(count)
            t, v = _legendre_rule(count)
            np.testing.assert_allclose(t, (x + 1) / 2, rtol=0, atol=1e-15)
            np.testing.assert_allclose(v, w / 2, rtol=1e-11, atol=0)
        t, v = _legendre_rule(4096)
        for degree in (0, 1, 7, 100, 1000, 8191):  # exact up to degree 2 * 4096 - 1
            assert abs(v @ t**degree - 1 / (degree + 1)) < 1e-15

    def test_entries_bit_identical_to_their_column(self):
        key = TableKey(9, 14)
        for l in range(1, 15):
            column = coverage_column(key, l)
            for k in range(1, 10):
                assert coverage_probability(key, RankPair(l, k)) == column[k - 1]

    def test_column_monotone_in_both_ranks(self):
        key = TableKey(6, 8)
        grid = np.array([coverage_column(key, l) for l in range(1, 9)])
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

    def test_unbalanced_matches(self):
        cases = [([7, 12, 30, 5], [6, 11, 27, 5]), ([40, 3], [36, 3]), ([9, 1, 17], [10, 1, 16])]
        for sizes, ranks in cases:
            np.testing.assert_allclose(
                unbalanced_coverage(sizes, ranks),
                unbalanced_coverage_by_convolution(sizes, ranks),
                rtol=0.0,
                atol=1e-12,
            )


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

    @pytest.mark.parametrize("agents", [3, 19])
    def test_true_tie_with_unequal_size_route(self, agents):
        ranks, k, coverage = select_ranks_unbalanced([1] * agents, 0.25)
        assert ranks == [1] * agents
        assert k == math.ceil(0.75 * (agents + 1))
        assert coverage == 0.75

    def test_margin_decides_the_route(self):
        calls = []

        def settle():
            calls.append(1)
            return Fraction(9, 10)

        assert _meets_level(0.9 + 2 * LEVEL_MARGIN, 0.1, settle) == (True, 0.9 + 2 * LEVEL_MARGIN)
        assert _meets_level(0.9 - 2 * LEVEL_MARGIN, 0.1, settle) == (False, 0.9 - 2 * LEVEL_MARGIN)
        assert calls == []
        assert _meets_level(0.9 - LEVEL_MARGIN / 2, 0.1, settle) == (True, 0.9)
        assert calls == [1]

    def test_exact_route_below_the_level_is_infeasible(self):
        # 1e-20 below 3/4: rounds to 0.75, yet misses the level 0.75
        assert _meets_level(0.75, 0.25, lambda: Fraction(3, 4) - Fraction(1, 10**20)) == (
            False,
            0.75,
        )

    def test_settled_matches_exact_rationals(self):
        for (m, n, l, k) in [(3, 4, 2, 2), (2, 3, 2, 1), (4, 2, 2, 4), (1, 5, 3, 1)]:
            assert _settled((n,) * m, (l,) * m, k) == coverage_exact_fraction(m, n, l, k)
        for sizes, ranks, k in [((5, 3), (6, 2), 1), ((2, 3, 4), (2, 3, 4), 2), ((4, 2), (3, 1), 2)]:
            assert _settled(sizes, ranks, k) == inid_coverage_exact_fraction(sizes, ranks, k)

    def test_closed_forms_match_exact_rationals(self):
        # one agent, l = n, n = 1 and l = 1 take closed forms
        for (m, n, l, k) in [(1, 6, 4, 1), (3, 4, 4, 2), (4, 3, 3, 1), (5, 1, 1, 3), (3, 4, 1, 2), (4, 3, 1, 4)]:
            assert _settled((n,) * m, (l,) * m, k) == coverage_exact_fraction(m, n, l, k)
        # agents whose rank exceeds their size drop out before the closed form
        for sizes, ranks, k in [((4, 4, 2), (4, 4, 3), 1), ((4, 4, 2), (4, 4, 3), 3), ((1, 1, 2), (1, 1, 3), 2)]:
            assert _settled(sizes, ranks, k) == inid_coverage_exact_fraction(sizes, ranks, k)

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
        assert len(table.entries) < 2 * n + 100  # the search gallops over server ranks

    def test_many_singletons_settle_quickly(self):
        start = time.perf_counter()
        ranks, k, coverage = select_ranks_unbalanced([1] * 999, 0.1)
        assert time.perf_counter() - start < 60
        assert (ranks, k, coverage) == ([1] * 999, 900, 0.9)


class TestMaxReportClosedForm:
    def test_single_score_gives_server_collapse(self):
        assert max_report_coverage(3, 1, 2) == pytest.approx(0.5, abs=1e-14)

    def test_matches_bruteforce(self):
        expected = coverage_bruteforce(TableKey(5, 10), RankPair(10, 5))
        assert max_report_coverage(5, 10, 5) == pytest.approx(expected, abs=1e-12)

    def test_matches_engine_at_top_rank(self):
        for (m, n) in [(5, 10), (12, 7), (30, 3)]:
            column = coverage_column(TableKey(m, n), n)
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
            column = coverage_column(key, l)
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

    def test_infeasible_alpha_raises(self):
        # the all-maximum entry has coverage mn/(mn+1); below that nothing works
        with pytest.raises(InfeasibleError):
            select_ranks(TableKey(2, 2), 0.1)

    def test_table_reuse_avoids_engine(self):
        key = TableKey(5, 12)
        table = CoverageTable(key=key)
        first = select_ranks(key, 0.1, table=table)
        entries = dict(table.entries)
        second = select_ranks(key, 0.1, table=table)
        assert first == second
        assert table.entries == entries

    def test_memoised_search_reads_no_new_entry(self, monkeypatch):
        key = TableKey(8, 60)
        table = CoverageTable(key=key)
        walks = []
        walk = coverage_table._walk_frontier
        monkeypatch.setattr(
            coverage_table, "_walk_frontier", lambda t, a: walks.append(a) or walk(t, a)
        )
        first = select_ranks(key, 0.2, table=table)
        misses = _entry_engine.cache_info().misses
        assert [select_ranks(key, 0.2, table=table) for _ in range(3)] == [first] * 3
        assert _entry_engine.cache_info().misses == misses
        # the first walk fills the table; the second leaves it as it was and is kept
        assert walks == [0.2, 0.2]
        select_ranks(key, 0.1, table=table)  # another level is another walk
        assert walks == [0.2, 0.2, 0.1]
        # the memo is neither compared nor shown
        assert table == CoverageTable(key=key, entries=dict(table.entries))
        assert "memo" not in repr(table)

    def test_forged_chosen_entry_refused_after_memoised_search(self):
        key = TableKey(8, 60)
        table = CoverageTable(key=key)
        for _ in range(2):
            ranks, coverage = select_ranks(key, 0.2, table=table)
        assert ranks == RankPair(46, 7)
        table.entries[(46, 7)] = coverage - 1e-9  # still feasible, and still the smallest
        with pytest.raises(InvalidArgumentError, match=r"\(46, 7\)"):
            select_ranks(key, 0.2, table=table)

    def test_memoised_search_sees_a_forged_frontier_entry(self):
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


class TestUnbalanced:
    def test_equal_sizes_reduce_to_balanced(self):
        ranks, k, coverage = select_ranks_unbalanced([9, 9, 9], 0.1)
        assert ranks == [9, 9, 9]
        column = coverage_column(TableKey(3, 9), 9)
        feasible = next(i for i, v in enumerate(column) if v >= 0.9)
        assert k == feasible + 1
        assert coverage == pytest.approx(column[feasible], abs=1e-12)

    def test_nineteen_singletons(self):
        ranks, k, coverage = select_ranks_unbalanced([1] * 19, 0.1)
        assert ranks == [1] * 19
        assert k == 18
        assert coverage == pytest.approx(0.9, abs=1e-12)

    def test_rank_rule_caps_at_local_size(self):
        assert unbalanced_local_ranks([1, 5, 10], 0.1) == [1, 5, 10]
        assert unbalanced_local_ranks([99], 0.1) == [90]

    def test_matches_exact_rationals(self):
        for sizes, ranks in [([5, 10], [6, 10]), ([5, 10], [5, 10]), ([2, 3, 4], [2, 3, 4]), ([4, 2], [3, 1])]:
            column = unbalanced_coverage(sizes, ranks)
            for k in range(1, len(sizes) + 1):
                expected = float(inid_coverage_exact_fraction(sizes, ranks, k))
                assert column[k - 1] == pytest.approx(expected, abs=1e-12)

    def test_overflowing_rank_forces_full_coverage_at_top(self):
        # an agent whose rank exceeds its sample always reports the sentinel,
        # so requiring every agent covered is vacuous
        column = unbalanced_coverage([5, 10], [6, 10])
        assert column[-1] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_sizes_raise(self):
        with pytest.raises(InfeasibleError):
            select_ranks_unbalanced([1, 1], 0.1)


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
