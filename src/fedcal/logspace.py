"""Binomial log-masses for the federation diagnostics.

The heterogeneity diagnostics in ``federation`` compare a Poisson-Binomial
law with the Binomial law of the same mean. Binomial masses are formed in
log space from log-Gamma values, so large m neither overflows the
coefficients nor flushes the tails before they are exponentiated.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import InternalError

__all__ = ["log_binom_coeff", "log_binom_pmf"]


def log_binom_coeff(n: int | np.ndarray, k: int | np.ndarray) -> np.ndarray | float:
    """log of the binomial coefficient C(n, k)."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def log_binom_pmf(n: int, t: float | np.ndarray) -> np.ndarray:
    """Log-mass of Binomial(n, t) on 0..n along the last axis; requires 0 < t < 1.

    An array ``t`` broadcasts against the support, so a column of shape
    (k, 1) gives k mass functions at once.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < 1.0)):
        raise InternalError(f"binomial parameter out of (0, 1): t={t}")
    x = np.arange(n + 1, dtype=float)
    return log_binom_coeff(float(n), x) + x * np.log(t) + (n - x) * np.log1p(-t)
