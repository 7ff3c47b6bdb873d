"""Tests for the metrics registry: primitives, exposition, merging."""

import math
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    FRACTION_BUCKETS,
    MetricsRegistry,
    global_registry,
    parse_prometheus,
    set_global_registry,
    use_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("jobs_total")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_samples_are_independent(self):
        counter = MetricsRegistry().counter(
            "alerts_total", labels=("nature",)
        )
        counter.inc(nature="attacker")
        counter.inc(3, nature="victim")
        assert counter.value(nature="attacker") == 1.0
        assert counter.value(nature="victim") == 3.0
        assert counter.value(nature="unseen") == 0.0

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("jobs_total")
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_rejects_wrong_label_set(self):
        counter = MetricsRegistry().counter("x_total", labels=("a",))
        with pytest.raises(ConfigurationError, match="expects labels"):
            counter.inc(b=1)
        with pytest.raises(ConfigurationError, match="expects labels"):
            counter.inc()

    def test_non_string_label_values_are_stringified(self):
        counter = MetricsRegistry().counter("x_total", labels=("week",))
        counter.inc(week=7)
        assert counter.value(week=7) == 1.0
        assert counter.value(week="7") == 1.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.inc(-4)
        assert gauge.value() == 3.0

    def test_labelled(self):
        gauge = MetricsRegistry().gauge("state", labels=("name",))
        gauge.set(2, name="open")
        gauge.set(0, name="open")
        assert gauge.value(name="open") == 0.0


class TestHistogram:
    def test_observations_land_in_first_fitting_bucket(self):
        hist = MetricsRegistry().histogram(
            "lat", buckets=(0.1, 1.0, 10.0)
        )
        hist.observe(0.05)   # <= 0.1
        hist.observe(0.5)    # <= 1.0
        hist.observe(100.0)  # above all bounds: only +Inf
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(100.55)
        cumulative = hist.cumulative_buckets()
        assert cumulative == [(0.1, 1), (1.0, 2), (10.0, 2), (math.inf, 3)]

    def test_boundary_value_is_inclusive(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.cumulative_buckets()[0] == (1.0, 1)

    @pytest.mark.parametrize(
        "values",
        [
            # on every bound, between bounds, below the first bound
            [0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9, -1.0],
            # above the last bound, and NaN: only the +Inf bucket
            [0.3, 1.5, float("nan"), 0.5, float("inf"), 0.1 + 0.2],
            # many values whose float sum depends on the order
            [0.1 * k for k in range(1, 200)] + [1e-17, 3.3, 1e16, 1.0],
        ],
    )
    def test_observe_many_matches_observe_one_by_one(self, values):
        buckets = (0.25, 0.5, 0.75, 1.0)
        one, many = MetricsRegistry(), MetricsRegistry()
        single = one.histogram("cov", labels=("shard",), buckets=buckets)
        for value in values:
            single.observe(value, shard="a")
        many.histogram("cov", labels=("shard",), buckets=buckets).observe_many(
            iter(values), shard="a"
        )
        assert many.to_prometheus() == one.to_prometheus()

    def test_observe_many_of_nothing_adds_no_sample(self):
        empty, declared = MetricsRegistry(), MetricsRegistry()
        empty.histogram("cov", buckets=(0.5, 1.0)).observe_many([])
        declared.histogram("cov", buckets=(0.5, 1.0))
        assert empty.to_prometheus() == declared.to_prometheus()

    def test_bound_observer_exports_like_observe(self):
        buckets = (0.5, 1.0)
        values = [0.1, 0.5, 0.7, 3.0, math.nan]
        one, bound = MetricsRegistry(), MetricsRegistry()
        single = one.histogram("lat", labels=("stage",), buckets=buckets)
        observe = bound.histogram(
            "lat", labels=("stage",), buckets=buckets
        ).bind(stage="a")
        for value in values:
            single.observe(value, stage="a")
            observe(value)
        assert bound.to_prometheus() == one.to_prometheus()

    def test_empty_labelset_reads_as_zero(self):
        hist = MetricsRegistry().histogram("lat", labels=("d",))
        assert hist.count(d="none") == 0
        assert hist.sum(d="none") == 0.0
        assert hist.cumulative_buckets(d="none")[-1] == (math.inf, 0)

    def test_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="at least one"):
            registry.histogram("a", buckets=())
        with pytest.raises(ConfigurationError, match="strictly increase"):
            registry.histogram("b", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="finite"):
            registry.histogram("c", buckets=(1.0, math.inf))

    def test_default_bucket_ladders(self):
        assert DEFAULT_LATENCY_BUCKETS == tuple(
            sorted(DEFAULT_LATENCY_BUCKETS)
        )
        assert FRACTION_BUCKETS[-1] == 1.0


class TestRegistry:
    def test_accessors_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("a")

    def test_label_schema_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a", labels=("x",))
        with pytest.raises(ConfigurationError, match="labels"):
            registry.counter("a", labels=("y",))

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(ConfigurationError, match="invalid label name"):
            registry.counter("ok", labels=("bad-label",))
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.counter("ok", labels=("a", "a"))

    def test_contains(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        assert "a_total" in registry
        assert "b_total" not in registry

    def test_pickle_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a_total", labels=("k",)).inc(2, k="v")
        registry.histogram("lat").observe(0.3)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.to_prometheus() == registry.to_prometheus()
        assert clone.snapshot() == registry.snapshot()


class TestExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs seen.").inc(3)
        registry.gauge("depth", labels=("q",)).set(1.5, q="main")
        text = registry.to_prometheus()
        assert "# HELP jobs_total Jobs seen.\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert "jobs_total 3\n" in text
        assert "# TYPE depth gauge\n" in text
        assert 'depth{q="main"} 1.5\n' in text

    def test_histogram_bucket_sum_count_invariants(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        families = parse_prometheus(registry.to_prometheus())
        buckets = families["lat_bucket"]
        assert [(lbl["le"], v) for lbl, v in buckets] == [
            ("0.1", 1.0),
            ("1", 2.0),
            ("+Inf", 3.0),
        ]
        assert families["lat_count"] == [({}, 3.0)]
        assert families["lat_sum"][0][1] == pytest.approx(5.55)

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'back\\slash "quoted"\nnewline'
        registry.counter("c_total", labels=("v",)).inc(v=tricky)
        text = registry.to_prometheus()
        assert '\\\\' in text and '\\"' in text and "\\n" in text
        families = parse_prometheus(text)
        assert families["c_total"] == [({"v": tricky}, 1.0)]

    def test_help_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "line one\nline two").inc()
        text = registry.to_prometheus()
        assert "# HELP c_total line one\\nline two\n" in text
        parse_prometheus(text)  # still well formed

    def test_deterministic_output(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("a_total", labels=("k",)).inc(k="x")
            registry.counter("a_total", labels=("k",)).inc(k="y")
            registry.histogram("lat").observe(0.2)
            return registry

        assert build().to_prometheus() == build().to_prometheus()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
        assert parse_prometheus("") == {}

    def test_write_prometheus_and_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        registry.write_prometheus(prom)
        registry.write_json(js)
        assert parse_prometheus(prom.read_text())["a_total"] == [({}, 1.0)]
        import json

        snapshot = json.loads(js.read_text())
        assert snapshot["families"][0]["name"] == "a_total"


class TestParser:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus("this is not exposition format")

    def test_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus("a_total{oops} 1")

    def test_rejects_malformed_value(self):
        with pytest.raises(ValueError, match="malformed value"):
            parse_prometheus("a_total pancake")

    def test_rejects_malformed_comment(self):
        with pytest.raises(ValueError, match="malformed comment"):
            parse_prometheus("# NOPE a_total")

    def test_rejects_histogram_missing_sum(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="+Inf"} 1\n'
            "lat_count 1\n"
        )
        with pytest.raises(ValueError, match="missing _sum"):
            parse_prometheus(text)

    def test_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 5\n'
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 1.0\n"
            "lat_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            parse_prometheus(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 1\n'
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 1.0\n"
            "lat_count 4\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf bucket"):
            parse_prometheus(text)

    def test_rejects_missing_inf_bucket(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 1\n'
            "lat_sum 1.0\n"
            "lat_count 1\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_prometheus(text)

    def test_rejects_histogram_with_no_series_at_all(self):
        text = "# TYPE lat histogram\nlat_sum 1.0\n"
        with pytest.raises(ValueError, match="missing series"):
            parse_prometheus(text)

    def test_rejects_bucket_without_le_label(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{shard="a"} 1\n'
            "lat_sum 1.0\n"
            "lat_count 1\n"
        )
        with pytest.raises(ValueError, match="missing le"):
            parse_prometheus(text)

    def test_rejects_bucket_labelset_without_count(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{shard="a",le="+Inf"} 1\n'
            'lat_sum{shard="a"} 1.0\n'
            'lat_count{shard="b"} 1\n'
        )
        with pytest.raises(ValueError, match="no _count"):
            parse_prometheus(text)


class TestLabelEscapeRoundTrip:
    """Exposition -> parse must invert escaping for any label value."""

    # The nasty cases: literal backslash-n (NOT a newline), nested
    # escapes, quotes, and trailing backslashes.  A sequential
    # str.replace unescaper corrupts several of these.
    VALUES = (
        "plain",
        "with space",
        'quo"ted',
        "new\nline",
        "back\\slash",
        "a\\nb",  # literal backslash then 'n'
        "a\\\nb",  # literal backslash then a real newline
        '\\"',  # backslash then quote
        "trailing\\",
        "\\\\n",
    )

    @pytest.mark.parametrize("value", VALUES)
    def test_round_trips_through_exposition(self, value):
        registry = MetricsRegistry()
        registry.counter("fdeta_roundtrip_total", labels=("tag",)).inc(
            tag=value
        )
        parsed = parse_prometheus(registry.to_prometheus())
        ((labels, count),) = parsed["fdeta_roundtrip_total"]
        assert labels["tag"] == value
        assert count == 1.0

    def test_distinct_tricky_values_stay_distinct(self):
        # "a\nb" (newline) and "a\\nb" (backslash-n) must not collide
        # after an escape/unescape cycle.
        registry = MetricsRegistry()
        counter = registry.counter(
            "fdeta_roundtrip_total", labels=("tag",)
        )
        counter.inc(tag="a\nb")
        counter.inc(2, tag="a\\nb")
        parsed = parse_prometheus(registry.to_prometheus())
        by_tag = {
            labels["tag"]: value
            for labels, value in parsed["fdeta_roundtrip_total"]
        }
        assert by_tag == {"a\nb": 1.0, "a\\nb": 2.0}


class TestSnapshotMerge:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("k",)).inc(2, k="x")
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(0.5, 1.0)).observe(0.4)
        return registry

    def test_from_snapshot_reconstructs(self):
        original = self._populated()
        clone = MetricsRegistry()
        clone.merge_snapshot(original.snapshot())
        assert clone.to_prometheus() == original.to_prometheus()

    def test_counters_and_histograms_add(self):
        a = self._populated()
        b = self._populated()
        a.merge(b)
        assert a.counter("c_total", labels=("k",)).value(k="x") == 4.0
        assert a.histogram("h", buckets=(0.5, 1.0)).count() == 2

    def test_gauges_take_last_write(self):
        a = self._populated()
        b = MetricsRegistry()
        b.gauge("g").set(1)
        a.merge(b)
        assert a.gauge("g").value() == 1.0

    def test_merge_into_empty_equals_source(self):
        source = self._populated()
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.totals() == source.totals()

    def test_totals_exclude_latency_sums(self):
        registry = self._populated()
        names = {name for name, _labels in registry.totals()}
        assert names == {"c_total", "h_count"}

    def test_snapshot_is_json_safe(self):
        import json

        snapshot = self._populated().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestGlobalRegistry:
    def test_use_registry_swaps_and_restores(self):
        before = global_registry()
        mine = MetricsRegistry()
        with use_registry(mine) as active:
            assert active is mine
            assert global_registry() is mine
            global_registry().counter("scoped_total").inc()
        assert global_registry() is before
        assert mine.counter("scoped_total").value() == 1.0

    def test_use_registry_restores_on_error(self):
        before = global_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert global_registry() is before

    def test_set_global_registry_returns_previous(self):
        before = global_registry()
        mine = MetricsRegistry()
        try:
            assert set_global_registry(mine) is before
            assert global_registry() is mine
        finally:
            set_global_registry(before)
