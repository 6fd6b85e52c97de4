"""Percentiles, the tail-percentile rule and interval arithmetic."""

from __future__ import annotations

import math

#: A reported tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(count: int, pct: float) -> int:
    """Samples strictly beyond the ``pct`` percentile of ``count``."""
    return count - math.ceil(count * pct / 100.0 - 1e-9)


def tail_percentile(values) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(pct, value, sample_count)``, or ``None`` when even the
    median has fewer than ten samples beyond it.
    """
    count = len(values)
    for pct in TAIL_CANDIDATES:
        if beyond(count, pct) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct), count
    return None


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals count once, so a parent's self time stays
    non-negative when its children overlap (threads, nested wrappers).
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its children cover."""
    return (end - start) - union_length(children, start, end)
