"""Arithmetic the benchmark reports with: medians, tail percentiles, spreads, ratios."""

from __future__ import annotations

import math
import statistics

import numpy as np

# Percentiles considered for the tail figure, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten samples beyond it, or None.

    With n samples, percentile p leaves n * (1 - p/100) samples above it; the
    rule keeps only percentiles where that is at least TAIL_MIN_BEYOND.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def summarize(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    values = list(values)
    out = {"n": len(values), "median": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_percentile"] = p
        out["tail"] = float(np.percentile(values, p))
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def ratio(part: float, whole: float) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def ok_share(failed: int, attempted: int) -> float:
    """Share of attempted operations that did not fail."""
    return 1.0 - ratio(failed, attempted)


def cost_limit_ratio(totals, thresholds) -> float:
    """max(1, max_k total_k / alpha_k): 1 while every limit holds, above 1 by the excess."""
    worst = 1.0
    for total, alpha in zip(totals, thresholds):
        worst = max(worst, total / alpha)
    return worst
