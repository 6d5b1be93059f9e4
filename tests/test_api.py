"""The public API, pinned: adding, removing or renaming an export of
``fedcal`` shows up as a diff of this list."""

import fedcal

PUBLIC_API = [
    "BinGrid",
    "CalibrationResult",
    "ConditionalCoverageResult",
    "CoverageTable",
    "DpConfig",
    "ExperimentResult",
    "ExponentialScores",
    "FedcalError",
    "FederationSpec",
    "GammaSelection",
    "InfeasibleError",
    "InternalError",
    "InvalidArgumentError",
    "OutlierScores",
    "PredictionInterval",
    "ProtocolViolationError",
    "RankPair",
    "ResourceLimitError",
    "ScoreFunction",
    "TableKey",
    "Transcript",
    "UniformScores",
    "conditional_coverage_experiment",
    "conditional_miscoverage_quantile",
    "coverage_column",
    "coverage_experiment",
    "coverage_probability",
    "evaluate_intervals",
    "fedcp2_qq_calibrate",
    "fedcp_avg_calibrate",
    "fedcp_qq_calibrate",
    "heterogeneity_tv_penalty",
    "load_table",
    "order_statistic",
    "poisson_binomial_diagnostic",
    "predict_interval",
    "private_quantile",
    "private_quantile_distribution",
    "quantile_of_quantiles",
    "rank_correction",
    "read_score_matrix_csv",
    "read_scores_csv",
    "run_one_shot",
    "save_table",
    "select_gamma",
    "select_ranks",
    "select_ranks_unbalanced",
    "split_cp_calibrate",
    "split_rank",
    "substream",
    "synthetic_conditional_quantile",
    "synthetic_dataset",
    "unbalanced_coverage",
    "write_rows_csv",
]


def test_all_is_the_pinned_api():
    assert len(PUBLIC_API) == 54
    assert sorted(fedcal.__all__) == PUBLIC_API


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from fedcal import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API
