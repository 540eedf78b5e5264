"""Per-frame observability: metrics registry + trace export schema.

This package is intentionally free of streaming imports (the streaming
session loop imports *us*): :class:`MetricsRegistry` is fed duck-typed
:class:`~repro.streaming.pipeline.FrameTrace` objects via
:func:`observe_frame_trace`, and :mod:`repro.observability.schema` pins
the JSON contract of the session trace export.
"""

from __future__ import annotations

from .metrics import Counter, Histogram, MetricsRegistry, default_latency_buckets
from .schema import (
    FRAME_TRACE_SCHEMA,
    METRIC_FAMILIES,
    SESSION_TRACE_SCHEMA,
    STAGE_SPAN_SCHEMA,
    VOLATILE_METRIC_PREFIXES,
    SchemaError,
    canonicalize_session_trace,
    match_metric_family,
    validate,
    validate_session_trace,
)

__all__ = [
    "Counter",
    "FRAME_TRACE_SCHEMA",
    "Histogram",
    "METRIC_FAMILIES",
    "MetricsRegistry",
    "SESSION_TRACE_SCHEMA",
    "STAGE_SPAN_SCHEMA",
    "SchemaError",
    "VOLATILE_METRIC_PREFIXES",
    "canonicalize_session_trace",
    "default_latency_buckets",
    "match_metric_family",
    "observe_frame_trace",
    "validate",
    "validate_session_trace",
]


def observe_frame_trace(registry: MetricsRegistry, trace) -> None:
    """Feed one frame's trace into the registry.

    Records a latency histogram per stage (``stage_ms/<name>``), frame and
    retransmission counters, and deadline-drop counts surfaced by the
    transport stage metadata. ``trace`` is duck-typed so this package
    never imports the streaming layer.
    """
    registry.counter("frames_total").inc()
    for span in trace.spans:
        registry.histogram(f"stage_ms/{span.name}").observe(span.modeled_ms)
        registry.histogram(f"stage_wall_ms/{span.name}").observe(span.wall_ms)
        if span.metadata.get("dropped"):
            registry.counter("frames_dropped").inc()
        retx = span.metadata.get("n_retransmissions")
        if retx:
            registry.counter("network_retransmissions").inc(retx)
        reuse = span.metadata.get("reuse")
        if reuse is not None:
            _observe_reuse(registry, reuse)
        dispatch = span.metadata.get("dispatch")
        if dispatch is not None:
            _observe_dispatch(registry, dispatch)
        scenario = span.metadata.get("scenario")
        if scenario is not None:
            _observe_scenario(registry, scenario)
        abr = span.metadata.get("abr")
        if abr is not None:
            _observe_abr(registry, abr)
    registry.histogram("frame_total_ms").observe(trace.total_modeled_ms)


def _observe_reuse(registry: MetricsRegistry, reuse: dict) -> None:
    """Record one frame's GOP-reuse decision (``reuse`` span metadata)."""
    registry.counter("sr.reuse/frames").inc()
    # Names spelled out (not interpolated from the dict keys) so the
    # metric-schema lint pass can pin each one against METRIC_FAMILIES.
    count = int(reuse.get("tiles_reused", 0))
    if count:
        registry.counter("sr.reuse/tiles_reused").inc(count)
    count = int(reuse.get("tiles_recomputed_sr", 0))
    if count:
        registry.counter("sr.reuse/tiles_recomputed_sr").inc(count)
    count = int(reuse.get("tiles_recomputed_bilinear", 0))
    if count:
        registry.counter("sr.reuse/tiles_recomputed_bilinear").inc(count)
    if reuse.get("refresh"):
        registry.counter("sr.reuse/refreshes").inc()
        reason = reuse.get("reason")
        if reason:
            registry.counter(f"sr.reuse/refresh_{reason}").inc()
    registry.histogram("sr.reuse/warp_ms").observe(float(reuse.get("warp_ms", 0.0)))
    registry.histogram("sr.reuse/dirty_fraction").observe(
        float(reuse.get("dirty_fraction", 1.0))
    )


def _observe_dispatch(registry: MetricsRegistry, dispatch: dict) -> None:
    """Record one frame's tile-dispatch plan (``dispatch`` span metadata,
    the :meth:`repro.sr.dispatch.DispatchPlan.meta` payload)."""
    registry.counter("sr.dispatch/frames").inc()
    registry.counter("sr.dispatch/tiles_total").inc(
        int(dispatch.get("tiles_total", 0))
    )
    overflow = int(dispatch.get("overflow_tiles", 0))
    if overflow:
        registry.counter("sr.dispatch/overflow_tiles").inc(overflow)
    # Dynamic per-backend family lives under its own namespace: the old
    # f"sr.dispatch/tiles_{name}" spelling could collide with the static
    # "sr.dispatch/tiles_total" aggregate (a backend named "total" would
    # silently merge counts) — the metric-schema lint pass pins this.
    for name, count in (dispatch.get("backend_tiles") or {}).items():
        if count:
            registry.counter(f"sr.dispatch/backend_tiles/{name}").inc(int(count))
    for engine, ms in (dispatch.get("engine_ms") or {}).items():
        registry.histogram(f"sr.dispatch/engine_ms_{engine}").observe(float(ms))
    registry.histogram("sr.dispatch/upscale_ms").observe(
        float(dispatch.get("upscale_ms", 0.0))
    )
    registry.histogram("sr.dispatch/mean_difficulty").observe(
        float(dispatch.get("mean_difficulty", 0.0))
    )


def _observe_scenario(registry: MetricsRegistry, scenario: dict) -> None:
    """Record the trace-driven link conditions one frame transmitted
    under (``scenario`` network-span metadata from
    :class:`repro.network.trace.TraceDrivenLink`)."""
    registry.counter("net.scenario/frames").inc()
    name = scenario.get("scenario")
    if name:
        registry.counter(f"net.scenario/frames_{name}").inc()
    if scenario.get("burst_state") == "bad":
        registry.counter("net.scenario/burst_frames").inc()
    registry.histogram("net.scenario/bandwidth_mbps").observe(
        float(scenario.get("bandwidth_mbps", 0.0))
    )
    registry.histogram("net.scenario/propagation_ms").observe(
        float(scenario.get("propagation_ms", 0.0))
    )
    registry.histogram("net.scenario/jitter_ms").observe(
        float(scenario.get("jitter_ms", 0.0))
    )
    registry.histogram("net.scenario/loss_rate").observe(
        float(scenario.get("loss_rate", 0.0))
    )


def _observe_abr(registry: MetricsRegistry, abr: dict) -> None:
    """Record one frame's ABR operating point (``abr`` network-span
    metadata from :class:`repro.streaming.abr.ABRController`)."""
    registry.counter("abr/frames").inc()
    rung = abr.get("rung")
    if rung:
        registry.counter(f"abr/frames_{rung}").inc()
    if abr.get("switched"):
        registry.counter("abr/switches").inc()
    if abr.get("force_idr"):
        registry.counter("abr/idr_requests").inc()
    registry.histogram("abr/quality").observe(float(abr.get("quality", 0.0)))
    registry.histogram("abr/roi_side").observe(float(abr.get("roi_side", 0.0)))
