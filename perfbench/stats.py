"""Summary statistics for timing samples."""

from __future__ import annotations

import statistics


def summary(values):
    """Median, first and third quartile and sample count.

    Quartiles are ``statistics.quantiles(values, n=4)``; a single sample is
    its own median and quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}

