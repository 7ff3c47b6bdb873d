"""EventTimeConfig: the event-time coordinate system (slots and weeks)."""

import pytest

from repro.errors import ConfigurationError
from repro.eventtime import EventTimeConfig
from repro.timeseries.seasonal import SLOTS_PER_WEEK


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
