"""WatermarkTracker: fleet frontier, lateness bound, lag accounting."""

from repro.eventtime import WatermarkTracker


class TestWatermark:
    def test_empty_tracker_has_nothing_closed(self):
        tracker = WatermarkTracker(lateness_slots=8)
        assert tracker.frontier == -1
        assert tracker.watermark == -1 - 8

    def test_watermark_trails_frontier_by_lateness(self):
        tracker = WatermarkTracker(lateness_slots=8)
        tracker.observe("c1", 100)
        assert tracker.frontier == 100
        assert tracker.watermark == 92

    def test_frontier_is_fleet_maximum(self):
        tracker = WatermarkTracker(lateness_slots=0)
        tracker.observe("c1", 10)
        tracker.observe("c2", 50)
        tracker.observe("c3", 30)
        assert tracker.frontier == 50

    def test_high_mark_never_regresses(self):
        tracker = WatermarkTracker(lateness_slots=0)
        tracker.observe("c1", 50)
        tracker.observe("c1", 20)  # out-of-order arrival
        assert tracker.high_marks["c1"] == 50

    def test_consumer_lag(self):
        tracker = WatermarkTracker(lateness_slots=0)
        tracker.observe("c1", 50)
        tracker.observe("c2", 40)
        assert tracker.consumer_lag("c1") == 0
        assert tracker.consumer_lag("c2") == 10
        # A never-seen meter trails the whole frontier.
        assert tracker.consumer_lag("ghost") == 51

    def test_state_roundtrip(self):
        tracker = WatermarkTracker(lateness_slots=4)
        tracker.observe("c1", 17)
        tracker.observe("c2", 3)
        restored = WatermarkTracker.from_state(tracker.state_dict())
        assert restored == tracker
        assert restored.watermark == tracker.watermark
