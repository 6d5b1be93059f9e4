"""The public API, pinned: adding, removing or renaming an export of
``fedcal`` shows up as a diff of this list."""

import importlib
import pkgutil

import pytest

import fedcal

PUBLIC_API = [
    "BinGrid",
    "CalibrationResult",
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
    "conditional_miscoverage_quantile",
    "coverage_experiment",
    "coverage_probability",
    "fedcp2_qq_calibrate",
    "fedcp_avg_calibrate",
    "fedcp_qq_calibrate",
    "heterogeneity_tv_penalty",
    "load_table",
    "predict_interval",
    "quantile_of_quantiles",
    "rank_correction",
    "read_score_matrix_csv",
    "save_table",
    "select_gamma",
    "select_ranks",
    "split_cp_calibrate",
    "split_rank",
    "substream",
    "write_rows_csv",
]


def test_all_is_the_pinned_api():
    assert len(PUBLIC_API) == 40
    assert sorted(fedcal.__all__) == PUBLIC_API


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from fedcal import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API


MODULES_WITH_ALL = [
    info.name
    for info in pkgutil.iter_modules(fedcal.__path__)
    if hasattr(importlib.import_module(f"fedcal.{info.name}"), "__all__")
]


def test_the_package_modules_declare_their_exports():
    assert {"order_stats", "conformal", "coverage_table", "privacy", "federation"} <= set(
        MODULES_WITH_ALL
    )


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_star_import_of_each_module_binds_its_all(name):
    # a stale name in __all__ makes the star import itself raise
    namespace: dict = {}
    exec(f"from fedcal.{name} import *", namespace)
    declared = importlib.import_module(f"fedcal.{name}").__all__
    assert len(declared) == len(set(declared))
    assert set(declared) <= set(namespace)
