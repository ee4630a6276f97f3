"""Statistics helpers shared by the benchmark's workloads and its tests.

Timings are reported as a median plus a *tail*: the highest percentile
that still has at least ten samples beyond it (see the choosing-metrics
method in ``README.md``).  Quartiles across runs give the run-to-run
spread that ``BENCHMARK.json``'s bounds are compared against.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: Samples that must lie strictly beyond a tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` samples
    sorted ascending the tail is the ``(beyond + 1)``-th largest, so
    exactly ``beyond`` samples lie above it, and its percentile is
    ``100 * (n - beyond) / n``.  Raises when there are not more than
    ``beyond`` samples, because no such percentile exists.
    """
    count = len(values)
    if count <= beyond:
        raise ValueError(
            f"a tail needs more than {beyond} samples, got {count}"
        )
    ordered = sorted(values)
    return (
        float(ordered[count - beyond - 1]),
        100.0 * (count - beyond) / count,
        count,
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("relative spread of a zero median")
    return (q3 - q1) / abs(q2)


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over *attempted* ones (not completed ones).

    An operation that never completed still counts in the base, so a
    run that fails early cannot look better than one that finishes.
    """
    if attempted < 1:
        raise ValueError("error rate of zero attempted operations")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def success_rate(failed: int, attempted: int) -> float:
    """``1 - error_rate``: the end-to-end form, which is never 0."""
    return 1.0 - error_rate(failed, attempted)


def self_times(
    spans: Sequence[Tuple[int, int, str, float, float]],
) -> Dict[str, float]:
    """Per-name self time of ``(id, parent_id, name, start, end)`` spans.

    A span's self time is its duration minus the time its direct
    children cover; ``parent_id`` is ``0`` for a top-level span.
    """
    child_time: Dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _, name, start, end in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals
