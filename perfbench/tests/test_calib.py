"""Host speed scaling, and how a traced run fills in every layer metric."""

import pytest

import calib
from checks import Tally
from run import Outcome, at_reference_speed, every_layer


def test_each_segment_is_scaled_by_the_samples_around_it():
    speed = calib.SpeedLog()
    speed.work_s = [1.0, 3.0, 0.5]
    speed.kernel_s = [0.010, 0.005, 0.0025]
    reference = calib.REFERENCE_KERNEL_S
    first = 1.0 * reference / 0.010
    second = 3.0 * reference / 0.0075
    third = 0.5 * reference / 0.00375
    assert speed.raw_s() == 4.5 and speed.raw_s(1) == 1.0
    assert speed.scaled_s() == pytest.approx(first + second + third)
    assert speed.factor(2) == pytest.approx((first + second) / 4.0)


def test_samples_end_segments_and_leave_their_own_time_out():
    speed = calib.SpeedLog()
    speed.sample()
    speed.mark()
    speed.sample()
    assert len(speed.work_s) == len(speed.kernel_s) == 2
    assert speed.spent_s >= sum(speed.kernel_s)
    assert speed.marks == [1]


def test_times_scale_with_the_factor_and_rates_against_it():
    assert at_reference_speed(2.0, "s", 0.5) == 1.0
    assert at_reference_speed(2.0, "ms", 0.5) == 1.0
    assert at_reference_speed(2.0, "us", 0.5) == 1.0
    assert at_reference_speed(2.0, "1/s", 0.5) == 4.0
    assert at_reference_speed(2.0, "count", 0.5) == 2.0


def test_idle_layers_read_zero_and_missing_layers_are_left_out():
    unit_of = {
        "core.simulate_s": "s",
        "core.simulate_calls": "count",
        "reorder.restructure_s": "s",
        "netserve.connect_ms": "ms",
    }
    outcome = Outcome(
        {"core.simulate_s": 3.0, "core.simulate_calls": 12.0}, Tally(), [], {},
        missing=["reorder.restructure"], speed_factor=0.5,
    )
    every_layer(outcome, unit_of)
    assert outcome.metrics == {
        "core.simulate_s": 1.5,
        "core.simulate_calls": 12.0,
        "netserve.connect_ms": 0.0,
    }
    assert "netserve.connect_ms" in outcome.notes[-1]
