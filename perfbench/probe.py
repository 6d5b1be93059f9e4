"""Machine-speed probe: the unit of the benchmark's reported times.

A shared machine's speed drifts by half within a minute: on a 2-core
2.0 GHz container a fixed cold rank selection went from 184 ms to 286 ms
in 60 s.
The probe is a fixed mix of the kinds of work fedcal does (windowed
log-sum-exp reductions, fresh generators with tiny arrays, parsing and
dictionary work), using none of fedcal's code, so it drifts with the
machine (correlation 0.7 to 0.9 against a cold rank selection and against
a simulate batch) but not with changes to fedcal. Times are reported in
reference seconds: wall time multiplied by the speed the probe measured
around it.
"""

from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import logsumexp

_PROBE_A = np.linspace(-50.0, 0.0, 700)
_PROBE_B = np.linspace(-5.0, 0.0, 130)
_PROBE_TEXT = [repr(x) for x in np.random.default_rng(0).random(3000).tolist()]


def _probe_numpy() -> None:
    """A windowed log-sum-exp convolution as large as the coverage engine's
    biggest ones, whose temporaries spill out of the core's own caches."""
    pad = np.full(_PROBE_B.size - 1, -np.inf)
    windows = sliding_window_view(np.concatenate([pad, _PROBE_A, pad]), _PROBE_B.size)
    logsumexp(windows + _PROBE_B, axis=1)


def _probe_small() -> None:
    """Fresh generators and tiny arrays, the simulator's kind of work."""
    for key in range(120):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(key,)))
        sample = rng.uniform(0.0, 1.0, 30)
        float(np.partition(sample, 20)[20] + np.mean(sample))


def _probe_interp() -> None:
    """Parsing and dictionary work, the CLI and CSV ingest's kind of work."""
    counts: dict[int, int] = {}
    for i, text in enumerate(_PROBE_TEXT):
        counts[i % 97] = counts.get(i % 97, 0) + int(float(text) * 1000)


# each part with its median wall time on a 2-core 2.0 GHz machine
_PARTS = ((_probe_numpy, 0.0036), (_probe_small, 0.0042), (_probe_interp, 0.0031))
_REFERENCE_S = sum(seconds for _, seconds in _PARTS)


def machine_probe() -> float:
    """Speed of the machine right now relative to the reference machine:
    the probe's reference time over its wall time."""
    start = perf_counter()
    for part, _ in _PARTS:
        part()
    return _REFERENCE_S / (perf_counter() - start)
