"""Small statistics helpers of the benchmark: percentiles and span self time.

Kept free of any import of the program under test so the helper tests
run without it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples above it;
#: fewer and the tail value is one or two unlucky samples, not a
#: property of the system.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to carry it."""


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` percentile has ``MIN_BEYOND``
    samples beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (linear interpolation, 0 < q < 1) of ``values``.

    Refuses with :class:`TooFewSamples` when fewer than ``MIN_BEYOND``
    samples would lie beyond it.
    """
    n = len(values)
    need = min_samples(q)
    if n < need:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has fewer than {MIN_BEYOND} "
            f"beyond it; it needs at least {need}")
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float,
                                                      float]:
    """(median, q1, q3, (q3 - q1) / median) as the steadiness check
    computes them (``statistics.quantiles`` with ``n=4``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Intervals may overlap each other and stick out of ``[lo, hi]``;
    each point is counted once.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in clipped:
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Tuple[str, float, float, int]]
               ) -> List[float]:
    """Self time of every span: its duration minus the part of it that
    its child spans cover.

    ``spans`` are ``(name, start, end, parent)`` with ``parent`` the
    index of the parent span in the same list, or ``-1`` for a root.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        kids = children.get(index)
        busy = covered(kids, start, end) if kids else 0.0
        out.append((end - start) - busy)
    return out
