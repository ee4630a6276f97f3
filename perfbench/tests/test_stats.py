import statistics

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    value, percentile, count = stats.tail(values)
    assert value == 90.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == 90.0
    assert count == 100


def test_tail_is_order_independent_and_tracks_sample_count():
    values = [float(v) for v in range(500, 0, -1)]
    value, percentile, count = stats.tail(values)
    assert value == 490.0
    assert percentile == pytest.approx(98.0)
    assert count == 500


def test_tail_needs_more_than_ten_samples():
    stats.tail([1.0] * 11)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_quartiles_match_statistics_quantiles():
    values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = stats.quartiles(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)


def test_relative_spread_of_identical_runs_is_zero():
    assert stats.relative_spread([2.0] * 10) == 0.0


def test_error_rate_counts_against_attempted_operations():
    # Four attempted, one failed: the base is 4, not the 3 that completed.
    assert stats.error_rate(1, 4) == 0.25
    assert stats.success_rate(1, 4) == 0.75
    assert stats.success_rate(0, 7) == 1.0
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(5, 4)


def test_self_times_subtract_direct_children():
    spans = [
        (1, 0, "outer", 0.0, 10.0),
        (2, 1, "inner", 1.0, 4.0),
        (3, 1, "inner", 5.0, 6.0),
        (4, 2, "leaf", 2.0, 3.0),
    ]
    own = stats.self_times(spans)
    assert own == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert sum(own.values()) == 10.0
