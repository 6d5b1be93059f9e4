import math
import os

import numpy as np
import pytest

from fedcal import (
    CoverageTable,
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    RankPair,
    ResourceLimitError,
    TableKey,
    conditional_miscoverage_bound,
    coverage_bruteforce,
    coverage_column,
    coverage_probability,
    load_table,
    max_report_coverage,
    rank_condition_holds,
    save_table,
    select_ranks,
    select_ranks_unbalanced,
    unbalanced_coverage,
)
from fedcal.coverage_table import coverage_bruteforce_column, unbalanced_local_ranks

from oracles import (
    coverage_by_quadrature,
    coverage_exact_fraction,
    inid_coverage_exact_fraction,
    mc_qq_coverage,
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

    def test_column_monotone_in_both_ranks(self):
        key = TableKey(6, 8)
        grid = np.array([coverage_column(key, l) for l in range(1, 9)])
        assert np.all(np.diff(grid, axis=0) >= -1e-12)
        assert np.all(np.diff(grid, axis=1) >= -1e-12)

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
        assert table.selected == (ranks, coverage)
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
    def test_direct_evaluation(self):
        bound = conditional_miscoverage_bound(TableKey(10, 20), 0.1, 0.5)
        assert bound == pytest.approx(0.1 + math.sqrt(math.log(2.0) / 400.0), abs=1e-15)
        assert bound == pytest.approx(0.141627, abs=1e-6)

    def test_monotone_in_delta(self):
        key = TableKey(10, 20)
        assert conditional_miscoverage_bound(key, 0.1, 0.01) > conditional_miscoverage_bound(key, 0.1, 0.5)

    def test_vanishes_with_data(self):
        assert conditional_miscoverage_bound(TableKey(1000, 1000), 0.1, 0.1) == pytest.approx(0.1, abs=2e-3)

    def test_delta_range(self):
        with pytest.raises(InvalidArgumentError):
            conditional_miscoverage_bound(TableKey(2, 2), 0.1, 0.7)

    def test_rank_condition(self):
        key = TableKey(10, 20)
        assert rank_condition_holds(key, RankPair(19, 10), 0.1)
        assert not rank_condition_holds(key, RankPair(10, 10), 0.1)


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

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("not a table\n")
        with pytest.raises(InvalidArgumentError):
            load_table(path)

    def test_validate_catches_monotonicity_break(self):
        table = CoverageTable(key=TableKey(2, 2))
        table.entries[(1, 1)] = 0.5
        table.entries[(2, 1)] = 0.4
        with pytest.raises(InternalError):
            table.validate()


class TestTableKey:
    def test_cell_cap(self):
        with pytest.raises(ResourceLimitError):
            TableKey(2000, 2000)
        TableKey(2000, 2000, cell_cap=4 * 10**6)

    def test_positivity(self):
        with pytest.raises(InvalidArgumentError):
            TableKey(0, 5)
