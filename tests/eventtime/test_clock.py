"""SlotClock and EventTimeConfig: the event-time coordinate system."""

import pytest

from repro.errors import ConfigurationError
from repro.eventtime import EventTimeConfig, SlotClock
from repro.timeseries.seasonal import SLOTS_PER_WEEK


class TestSlotClock:
    def test_week_of_and_slot_in_week(self):
        clock = SlotClock()
        assert clock.week_of(0) == 0
        assert clock.week_of(SLOTS_PER_WEEK - 1) == 0
        assert clock.week_of(SLOTS_PER_WEEK) == 1
        assert clock.slot_in_week(SLOTS_PER_WEEK + 7) == 7

    def test_week_bounds_half_open(self):
        clock = SlotClock()
        start, end = 2 * SLOTS_PER_WEEK, 3 * SLOTS_PER_WEEK
        assert clock.week_of(start - 1) == 1
        assert clock.week_of(start) == 2
        assert clock.week_of(end - 1) == 2
        assert clock.week_of(end) == 3

    def test_skew_sign_convention(self):
        clock = SlotClock()
        # Positive skew: the meter's declared slot is ahead of the
        # head-end's reference (a fast meter clock).
        assert clock.skew(12, 10) == 2
        assert clock.skew(8, 10) == -2
        assert clock.skew(10, 10) == 0

    def test_slot_seconds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SlotClock(slot_seconds=0.0)
        with pytest.raises(ConfigurationError):
            SlotClock(slot_seconds=-1800.0)


class TestEventTimeConfig:
    def test_defaults(self):
        config = EventTimeConfig()
        assert config.lateness_slots == 48
        assert config.grace_weeks == 1
        assert config.grace_slots == SLOTS_PER_WEEK

    def test_finalization_slot(self):
        config = EventTimeConfig(grace_weeks=1)
        # Week 0 finalises once week 0 itself plus one grace week have
        # been fully released.
        assert config.finalization_slot(0) == 2 * SLOTS_PER_WEEK
        assert config.finalization_slot(3) == 5 * SLOTS_PER_WEEK

    def test_finalization_scales_with_grace(self):
        assert EventTimeConfig(grace_weeks=2).finalization_slot(0) == (
            3 * SLOTS_PER_WEEK
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EventTimeConfig(lateness_slots=-1)
        with pytest.raises(ConfigurationError):
            EventTimeConfig(grace_weeks=-1)
        with pytest.raises(ConfigurationError):
            EventTimeConfig(max_pending_readings=0)
