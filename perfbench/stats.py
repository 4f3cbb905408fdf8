"""Order statistics used by the benchmark."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolating linearly between order statistics.

    Matches ``numpy.percentile`` with its default method: position
    ``(len - 1) * q / 100`` in the sorted values.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
