"""Order statistics for the report: medians, tails, geometric means."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


#: Percentiles a report may state a tail at, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def supported_percentile(count: int, beyond: int = 10) -> float:
    """The highest ladder percentile leaving ``beyond`` samples past it
    among ``count`` (the median when none does)."""
    for percentile in LADDER:
        if count - math.ceil(percentile / 100.0 * count) >= beyond:
            return percentile
    return 50.0


def tail(values: Iterable[float], percentile: float) -> Tuple[float, int]:
    """``(value, samples beyond it)`` at ``percentile``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan"), 0
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_group_medians(samples: Dict[str, List[float]]) -> Dict[str, float]:
    return {key: median(values) for key, values in samples.items() if values}
