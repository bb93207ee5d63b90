"""Order statistics shared by the runner and ``compare``.

Percentiles interpolate linearly between the two nearest ranks (the
``inclusive`` method of ``statistics.quantiles``), so they move smoothly as
the samples do.  A percentile is only *supported* when at least ten samples
lie beyond it, so a p90 needs 100 samples and a p99 needs 1000; the runner
states the sample count next to every latency it prints.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) of ``values``, interpolated."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def min_samples(q: float) -> int:
    """Smallest sample count with ``SAMPLES_BEYOND`` samples past the ``q``-th."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - q / 100.0) - 1e-9)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting the ``q``-th percentile."""
    return count >= min_samples(q)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
