"""Order statistics for call times.

``p50`` is the interpolated median. ``tail`` is the highest percentile
with at least ``TAIL_MIN_BEYOND`` samples beyond it: the sample with
exactly that many above it, at percentile ``100 (n - 10) / n``. With 20
samples or fewer that sample is not above the median, so the tail is
reported as the p50 (and ``tail_pct`` says so).
"""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def tail_rule(n: int) -> tuple[float, int]:
    """(percentile, samples beyond it) of the tail for ``n`` samples."""
    if n > 2 * TAIL_MIN_BEYOND:
        return 100.0 * (n - TAIL_MIN_BEYOND) / n, TAIL_MIN_BEYOND
    return 50.0, n // 2


def summarize(samples: list[float]) -> dict:
    """p50, tail and the sample counts behind them."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    n = len(xs)
    pct, beyond = tail_rule(n)
    p50 = statistics.median(xs)
    tail = p50 if pct == 50.0 else xs[n - beyond - 1]
    return {"p50": p50, "tail": tail, "tail_pct": pct,
            "tail_beyond": beyond, "n": n}
