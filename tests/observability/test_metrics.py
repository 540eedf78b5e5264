"""Units for the metrics registry, histograms, and trace feeding."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    METRIC_FAMILIES,
    VOLATILE_METRIC_PREFIXES,
    Counter,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
    match_metric_family,
    observe_frame_trace,
)
from repro.streaming.pipeline import FrameTrace


class TestCounter:
    def test_increments(self):
        c = Counter("frames")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("frames").inc(-1)


class TestHistogram:
    def test_streaming_stats(self):
        h = Histogram("lat", bounds=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 555.5
        assert h.min == 0.5
        assert h.max == 500.0
        assert h.counts == [1, 1, 1, 1]  # last is the overflow bucket

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=[1.0, 1.0])

    def test_default_buckets_are_log_spaced(self):
        buckets = default_latency_buckets()
        assert buckets[0] == 0.01
        assert all(b2 / b1 == 2.0 for b1, b2 in zip(buckets, buckets[1:]))


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("frames_total") is reg.counter("frames_total")
        assert reg.histogram("frame_total_ms") is reg.histogram("frame_total_ms")

    def test_cross_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("frames_total")
        with pytest.raises(ValueError):
            reg.histogram("frames_total")
        reg.histogram("frame_total_ms")
        with pytest.raises(ValueError):
            reg.counter("frame_total_ms")

    def test_unregistered_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="'bogus/name' is not a registered"):
            reg.counter("bogus/name")
        with pytest.raises(ValueError, match="not a registered"):
            reg.histogram("stage_msx/decode")
        assert reg.names() == []

    def test_kind_clash_raises_on_first_emission(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="registered as a counter"):
            reg.histogram("frames_total")
        with pytest.raises(ValueError, match="registered as a histogram"):
            reg.counter("stage_ms/decode")  # dynamic family, wrong kind
        assert reg.names() == []

    def test_export_json_roundtrip(self):
        # The registry travels in the trace export as its to_dict().
        reg = MetricsRegistry()
        reg.counter("frames_total").inc(2)
        reg.histogram("stage_ms/decode").observe(3.0)
        data = json.loads(json.dumps(reg.to_dict()))
        assert data["frames_total"]["value"] == 2
        assert data["stage_ms/decode"]["count"] == 1


class TestObserveFrameTrace:
    def _trace(self, dropped=False, retx=0):
        trace = FrameTrace(index=0, frame_type="P")
        trace.add_span("network", 12.0, n_retransmissions=retx, dropped=dropped)
        trace.add_span("decode", 3.0)
        return trace

    def test_feeds_stage_histograms_and_counters(self):
        reg = MetricsRegistry()
        observe_frame_trace(reg, self._trace())
        observe_frame_trace(reg, self._trace())
        assert reg.counter("frames_total").value == 2
        assert reg.histogram("stage_ms/network").count == 2
        assert reg.histogram("stage_ms/network").mean == 12.0
        assert reg.histogram("frame_total_ms").mean == 15.0

    def test_transport_outcomes_surface_as_counters(self):
        reg = MetricsRegistry()
        observe_frame_trace(reg, self._trace(dropped=True, retx=3))
        observe_frame_trace(reg, self._trace())
        assert reg.counter("frames_dropped").value == 1
        assert reg.counter("network_retransmissions").value == 3


class TestMetricFamilies:
    # match_metric_family resolves a name by exact hit, then by the first
    # dynamic ``prefix*`` family it starts with; the table tests below
    # keep that resolution unambiguous.
    DYNAMIC = [f for f in METRIC_FAMILIES if f.endswith("*")]
    EXACT = [f for f in METRIC_FAMILIES if not f.endswith("*")]

    def test_backend_named_total_cannot_merge_into_aggregate(self):
        # Regression: per-backend counts used to live at
        # f"sr.dispatch/tiles_{name}", so a backend literally named
        # "total" silently merged into the aggregate counter.
        reg = MetricsRegistry()
        trace = FrameTrace(index=0, frame_type="P")
        trace.add_span(
            "client",
            1.0,
            dispatch={
                "tiles_total": 6,
                "overflow_tiles": 1,
                "backend_tiles": {"total": 4, "edsr": 2},
            },
        )
        observe_frame_trace(reg, trace)
        assert reg.counter("sr.dispatch/tiles_total").value == 6
        assert reg.counter("sr.dispatch/overflow_tiles").value == 1
        assert reg.counter("sr.dispatch/backend_tiles/total").value == 4
        assert reg.counter("sr.dispatch/backend_tiles/edsr").value == 2

    def test_match_metric_family(self):
        assert match_metric_family("frames_total") == "frames_total"
        assert match_metric_family("stage_ms/network") == "stage_ms/*"
        assert (
            match_metric_family("sr.dispatch/backend_tiles/fsrcnn")
            == "sr.dispatch/backend_tiles/*"
        )
        assert match_metric_family("unknown/name") is None

    def test_aggregate_is_out_of_every_dynamic_familys_reach(self):
        family = match_metric_family("sr.dispatch/tiles_total")
        assert family == "sr.dispatch/tiles_total"  # exact, never a wildcard

    def test_registered_kinds_are_well_formed(self):
        assert set(METRIC_FAMILIES.values()) <= {"counter", "histogram"}

    def test_no_two_dynamic_families_overlap(self):
        for i, a in enumerate(self.DYNAMIC):
            for b in self.DYNAMIC[i + 1 :]:
                assert not (a[:-1].startswith(b[:-1]) or b[:-1].startswith(a[:-1])), (
                    f"dynamic families {a!r} and {b!r} can generate a common name"
                )

    def test_no_exact_family_is_generable_by_a_dynamic_one(self):
        # The sr.dispatch/tiles_total vs sr.dispatch/tiles_* shape.
        for exact in self.EXACT:
            for dynamic in self.DYNAMIC:
                assert not exact.startswith(dynamic[:-1]), (
                    f"{exact!r} can also be generated by {dynamic!r}"
                )

    def test_every_volatile_prefix_covers_a_family(self):
        for prefix in VOLATILE_METRIC_PREFIXES:
            assert any(f.startswith(prefix) for f in METRIC_FAMILIES), prefix
