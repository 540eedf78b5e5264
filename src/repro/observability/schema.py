"""Trace-export JSON schema and a dependency-free validator.

The per-session trace export (``SessionResult.to_trace_dict``) is the
machine-readable contract between the simulator and external tooling
(dashboards, regression diffing, the pipeline smoke in
``scripts/check.sh``). :data:`SESSION_TRACE_SCHEMA` pins that contract;
:func:`validate` checks an instance against the JSON-Schema subset used
here (type / properties / required / items / enum / additionalProperties)
without pulling in a jsonschema dependency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

__all__ = [
    "SchemaError",
    "METRIC_FAMILIES",
    "SESSION_TRACE_SCHEMA",
    "FRAME_TRACE_SCHEMA",
    "STAGE_SPAN_SCHEMA",
    "VOLATILE_METRIC_PREFIXES",
    "canonicalize_session_trace",
    "match_metric_family",
    "validate",
    "validate_session_trace",
]

#: Metric-name prefixes whose values depend on wall-clock measurement
#: rather than the deterministic platform model.
#: :func:`canonicalize_session_trace` strips them so two runs of the same
#: seeded session compare byte-identical.
VOLATILE_METRIC_PREFIXES = ("stage_wall_ms/",)

#: The pinned metric-name registry: every counter/histogram the
#: observability layer may emit, mapped to its kind. Families ending in
#: ``*`` are dynamic: the suffix is interpolated per span/backend/rung
#: at the call site. The ``metric-schema`` lint pass statically collects
#: every registry call site and checks it against this table (unknown
#: family, kind mismatch, or a concrete name a dynamic family can also
#: generate are all lint errors), so the trace export's metric namespace
#: cannot drift or collide without a deliberate edit here.
METRIC_FAMILIES: Dict[str, str] = {
    "frames_total": "counter",
    "frames_dropped": "counter",
    "network_retransmissions": "counter",
    "frame_total_ms": "histogram",
    "stage_ms/*": "histogram",
    "stage_wall_ms/*": "histogram",
    "sr.reuse/frames": "counter",
    "sr.reuse/tiles_reused": "counter",
    "sr.reuse/tiles_recomputed_sr": "counter",
    "sr.reuse/tiles_recomputed_bilinear": "counter",
    "sr.reuse/refreshes": "counter",
    "sr.reuse/refresh_*": "counter",
    "sr.reuse/warp_ms": "histogram",
    "sr.reuse/dirty_fraction": "histogram",
    "sr.dispatch/frames": "counter",
    "sr.dispatch/tiles_total": "counter",
    "sr.dispatch/overflow_tiles": "counter",
    "sr.dispatch/backend_tiles/*": "counter",
    "sr.dispatch/engine_ms_*": "histogram",
    "sr.dispatch/upscale_ms": "histogram",
    "sr.dispatch/mean_difficulty": "histogram",
    "net.scenario/frames": "counter",
    "net.scenario/frames_*": "counter",
    "net.scenario/burst_frames": "counter",
    "net.scenario/bandwidth_mbps": "histogram",
    "net.scenario/propagation_ms": "histogram",
    "net.scenario/jitter_ms": "histogram",
    "net.scenario/loss_rate": "histogram",
    "abr/frames": "counter",
    "abr/frames_*": "counter",
    "abr/switches": "counter",
    "abr/idr_requests": "counter",
    "abr/quality": "histogram",
    "abr/roi_side": "histogram",
}


def match_metric_family(name: str) -> Union[str, None]:
    """The METRIC_FAMILIES key a concrete metric name belongs to.

    Exact entries win over dynamic ``prefix*`` families; returns None
    for a name outside the registry entirely.
    """
    if name in METRIC_FAMILIES:
        return name
    for family in METRIC_FAMILIES:
        if family.endswith("*") and name.startswith(family[:-1]):
            return family
    return None


class SchemaError(ValueError):
    """An instance violated the schema; ``path`` points at the offender."""


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[expected])


def validate(instance: Any, schema: Dict[str, Any], path: str = "$") -> None:
    """Validate ``instance`` against the supported JSON-Schema subset."""
    expected = schema.get("type")
    if expected is not None:
        types: List[str] = [expected] if isinstance(expected, str) else list(expected)
        if not any(_type_ok(instance, t) for t in types):
            raise SchemaError(
                f"{path}: expected type {' or '.join(types)}, "
                f"got {type(instance).__name__}"
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(f"{path}: {instance!r} not in enum {schema['enum']}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                raise SchemaError(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        for name, subschema in properties.items():
            if name in instance:
                validate(instance[name], subschema, f"{path}.{name}")
        if schema.get("additionalProperties") is False:
            extra = set(instance) - set(properties)
            if extra:
                raise SchemaError(f"{path}: unexpected properties {sorted(extra)}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], f"{path}[{i}]")


_NON_NEGATIVE_NUMBER = {"type": "number"}

STAGE_SPAN_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["name", "modeled_ms", "wall_ms", "mtp", "energy"],
    "properties": {
        "name": {"type": "string"},
        "modeled_ms": _NON_NEGATIVE_NUMBER,
        "wall_ms": _NON_NEGATIVE_NUMBER,
        "mtp": {"type": "boolean"},
        "energy": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["component", "ms", "category"],
                "properties": {
                    "component": {"type": "string"},
                    "ms": _NON_NEGATIVE_NUMBER,
                    "category": {"enum": ["network", "decode", "upscale"]},
                },
            },
        },
        "metadata": {"type": "object"},
    },
}

FRAME_TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["index", "frame_type", "total_modeled_ms", "spans"],
    "properties": {
        "index": {"type": "integer"},
        "frame_type": {"type": ["string", "null"]},
        "total_modeled_ms": _NON_NEGATIVE_NUMBER,
        "spans": {"type": "array", "items": STAGE_SPAN_SCHEMA},
    },
}

SESSION_TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["session", "frames", "metrics"],
    "properties": {
        "session": {
            "type": "object",
            "required": ["game_id", "design", "device", "n_frames", "gop_size"],
            "properties": {
                "game_id": {"type": "string"},
                "design": {"type": "string"},
                "device": {"type": "string"},
                "n_frames": {"type": "integer"},
                "gop_size": {"type": "integer"},
            },
        },
        "frames": {"type": "array", "items": FRAME_TRACE_SCHEMA},
        "metrics": {"type": "object"},
    },
}


def validate_session_trace(instance: Any) -> None:
    """Validate one session trace export against the pinned schema."""
    validate(instance, SESSION_TRACE_SCHEMA)


def canonicalize_session_trace(instance: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministic view of a session trace export.

    Returns a deep copy with every span's ``wall_ms`` zeroed and all
    metrics under :data:`VOLATILE_METRIC_PREFIXES` removed. Everything
    left — span names and order, ``modeled_ms``, energy attributions,
    metadata, modeled-latency metrics — is a pure function of the session
    configuration, so two canonicalized exports of the same session are
    equal however the host was loaded. The seeded-replay tests compare
    these.
    """
    out = {
        "session": dict(instance["session"]),
        "frames": [],
        "metrics": {},
    }
    for frame in instance["frames"]:
        f = dict(frame)
        f["spans"] = [{**span, "wall_ms": 0.0} for span in frame["spans"]]
        out["frames"].append(f)
    for name, metric in instance["metrics"].items():
        if not name.startswith(VOLATILE_METRIC_PREFIXES):
            out["metrics"][name] = metric
    return out
