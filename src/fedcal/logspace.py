"""Log-domain primitives for exact distribution arithmetic.

Everything downstream of the coverage engine works on log-weights: binomial
log-masses routinely span thousands of nats across their support, so linear
float arithmetic would silently flush the tails that the coverage sums
divide back up. Convolutions are therefore evaluated coefficient by
coefficient with a max-shifted log-sum-exp, which keeps full relative
precision on every coefficient at once.

An FFT product was considered for long convolutions and rejected: its error
is absolute with respect to the peak coefficient, while the downstream sums
divide each coefficient by a matched binomial mass, amplifying peak-relative
noise in the tails without bound.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln, logsumexp

from .errors import InternalError

__all__ = ["log_binom_coeff", "log_binom_pmf", "log_convolve", "suffix_logsumexp"]

# rows of the windowed term matrix processed per pass; bounds peak memory
_BLOCK_ROWS = 65536


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


def log_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact linear convolution of two log-weight arrays.

    Returns ``c`` with ``exp(c) == convolve(exp(a), exp(b))`` where every
    coefficient keeps near machine relative precision. Works blockwise over
    output coefficients to bound memory.
    """
    if len(a) == 0 or len(b) == 0:
        raise InternalError("cannot convolve an empty weight array")
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    if lb == 1:
        return a + b[0]
    out_len = la + lb - 1
    pad = np.full(lb - 1, -np.inf)
    padded = np.concatenate([pad, np.asarray(a, dtype=float), pad])
    windows = sliding_window_view(padded, lb)  # row r holds a[r-lb+1 .. r]
    b_rev = b[::-1]
    out = np.empty(out_len)
    for start in range(0, out_len, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, out_len)
        out[start:stop] = logsumexp(windows[start:stop] + b_rev, axis=1)
    if np.any(np.isnan(out)) or np.any(out == np.inf):
        raise InternalError("log-convolution produced a non-finite weight")
    return out


def suffix_logsumexp(log_terms: np.ndarray) -> np.ndarray:
    """``out[i] = logsumexp(log_terms[i:])``, computed right to left."""
    out = np.empty(len(log_terms))
    acc = -np.inf
    for i in range(len(log_terms) - 1, -1, -1):
        acc = np.logaddexp(acc, log_terms[i])
        out[i] = acc
    return out
