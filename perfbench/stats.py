"""Percentiles that refuse thin samples, and small summary helpers."""

from __future__ import annotations

import math
import statistics


class ThinSample(ValueError):
    """A percentile was asked of a sample with < 10 values beyond it."""


#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Raises :class:`ThinSample` unless at least :data:`MIN_BEYOND` samples
    lie strictly beyond the reported rank, so a p99 needs 1000 samples.
    Infinite values (failed requests) sort last, as slower than any limit.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ThinSample(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted(values)[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
