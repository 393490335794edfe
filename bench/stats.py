"""The benchmark's own arithmetic: percentiles, span self time, and the
per-layer derivations.  Pure functions, tested in `test_stats.py`."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Hashable, Iterable, Sequence

TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The pct-th percentile of values by the nearest-rank rule."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n jobs beyond it.

    Beyond means ranked after the nearest-rank position of the
    percentile.  Raises ValueError when n leaves no such percentile.
    """
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            return pct
    raise ValueError(f"{n} jobs leave no percentile with {TAIL_BEYOND} beyond it")


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    A span is (name, start, end, parent, job) with parent the index of
    the enclosing span or None.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, job in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, job), kids in zip(spans, children):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in kids if hi > start and lo < end]
        out.append((end - start) - covered(clipped))
    return out


def repeat_share(keys: Sequence[Hashable]) -> float:
    """Share of calls whose key already appeared earlier in the pass."""
    if not keys:
        return 0.0
    return (len(keys) - len(set(keys))) / len(keys)


def scanned(elements: Sequence[int], found: int | None) -> int:
    """Parameters a least-first scan of sorted elements looks at: the
    rank of the returned element plus one, or all of them when None."""
    if found is None:
        return len(elements)
    rank = bisect_left(elements, found)
    if rank == len(elements) or elements[rank] != found:
        raise ValueError(f"{found:#x} is not among the scanned elements")
    return rank + 1


def degree_sum(degrees: Iterable[int]) -> int:
    """Sum of returned splitting degrees D (the iterations of the loop)."""
    return sum(degrees)
