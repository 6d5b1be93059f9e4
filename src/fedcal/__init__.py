"""One-shot federated conformal calibration.

Agents each publish a single local order statistic; the server aggregates
them by another order statistic whose ranks are chosen from an exactly
computed coverage table, yielding distribution-free marginal coverage in a
single communication round. A locally private variant releases the local
quantiles through an exponential mechanism, and a simulator reproduces the
coverage/length behaviour of the methods at desk scale.
"""

from .conformal import (
    CalibrationResult,
    PredictionInterval,
    ScoreFunction,
    fedcp_avg_calibrate,
    fedcp_qq_calibrate,
    predict_interval,
    read_score_matrix_csv,
    split_cp_calibrate,
)
from .coverage_table import (
    CoverageTable,
    RankPair,
    TableKey,
    conditional_miscoverage_quantile,
    coverage_probability,
    load_table,
    save_table,
    select_ranks,
)
from .errors import (
    FedcalError,
    InfeasibleError,
    InternalError,
    InvalidArgumentError,
    ProtocolViolationError,
    ResourceLimitError,
)
from .federation import (
    ExperimentResult,
    ExponentialScores,
    FederationSpec,
    OutlierScores,
    Transcript,
    UniformScores,
    coverage_experiment,
    heterogeneity_tv_penalty,
    substream,
    write_rows_csv,
)
from .order_stats import quantile_of_quantiles, split_rank
from .privacy import (
    BinGrid,
    DpConfig,
    GammaSelection,
    fedcp2_qq_calibrate,
    rank_correction,
    select_gamma,
)

__version__ = "0.1.0"

# the import lists above spell out the public API once; __all__ is every
# class and function they bring in, sorted
__all__ = sorted(
    name
    for name, value in globals().items()
    if getattr(value, "__module__", "").startswith("fedcal.")
)
