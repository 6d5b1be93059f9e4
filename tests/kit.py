"""The heteroscedastic synthetic regression generator of the paper's
experiments, with the exact conditional quantiles of its response.

Acceptance criterion c06 calibrates the generator's own conditional
quantile pair on its draws, so only the calibration layer is exercised;
``test_federation`` pins the draws and the quantiles.
"""

import numpy as np
from scipy.special import ndtr

from fedcal.errors import InvalidArgumentError, check_integer

_POISSON_TERMS = 32
_OUTLIER_PROB = 0.01
_OUTLIER_SD = 25.0
# 80 halvings shrink the initial bracket (width about 630) below 1e-21
_BISECTION_STEPS = 80


def synthetic_dataset(
    count: int, rng: np.random.Generator, *, outliers: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Draws of the heteroscedastic benchmark generator.

    X is uniform on [1, 5]; Y given X is Poisson(sin^2(X) + 0.1) plus
    0.03 * X * gaussian noise, plus (optionally) a 1%-frequency gaussian
    outlier burst with standard deviation 25.
    """
    if check_integer(count, "count") < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    x = rng.uniform(1.0, 5.0, count)
    rate = np.sin(x) ** 2 + 0.1
    y = rng.poisson(rate).astype(float) + 0.03 * x * rng.standard_normal(count)
    if outliers:
        burst = rng.uniform(0.0, 1.0, count) < _OUTLIER_PROB
        y = y + _OUTLIER_SD * burst * rng.standard_normal(count)
    return x, y


def _synthetic_cdf(y: np.ndarray, x: np.ndarray, outliers: bool) -> np.ndarray:
    """P(Y <= y | X = x) under the synthetic generator; shapes broadcast."""
    rate = np.sin(x) ** 2 + 0.1
    counts = np.arange(_POISSON_TERMS, dtype=float)
    log_pois = counts * np.log(rate)[..., None] - rate[..., None] - np.cumsum(
        np.concatenate([[0.0], np.log(np.maximum(counts[1:], 1.0))])
    )
    weights = np.exp(log_pois)
    narrow_sd = 0.03 * x
    shifted = y[..., None] - counts
    cdf = ndtr(shifted / narrow_sd[..., None])
    if outliers:
        wide_sd = np.sqrt(narrow_sd**2 + _OUTLIER_SD**2)
        cdf = (1.0 - _OUTLIER_PROB) * cdf + _OUTLIER_PROB * ndtr(shifted / wide_sd[..., None])
    return np.sum(weights * cdf, axis=-1)


def synthetic_conditional_quantile(x, level: float, *, outliers: bool = True) -> np.ndarray:
    """Exact conditional ``level``-quantile of Y given X under the generator.

    Inverts the mixture c.d.f. by ``_BISECTION_STEPS`` bisection steps;
    serves as a stand-in predictor so experiments exercise calibration
    without training any model.
    """
    if not 0.0 < level < 1.0:
        raise InvalidArgumentError(f"level must be in (0, 1), got {level}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = np.full(x.shape, -12.0 * _OUTLIER_SD)
    hi = np.full(x.shape, _POISSON_TERMS + 12.0 * _OUTLIER_SD)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = _synthetic_cdf(mid, x, outliers) < level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
