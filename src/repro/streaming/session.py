"""End-to-end streaming session driver and result aggregation.

:func:`run_session` streams ``n_frames`` of one game through a server and
a client design, collecting per-frame latencies, MTP breakdowns, energy,
and (optionally) quality against the native HR render. All of the paper's
evaluation figures are computed from :class:`SessionResult` objects.

The loop is staged end to end: every frame carries a merged
:class:`~repro.streaming.pipeline.FrameTrace` (server render/RoI/encode/
network spans + client decode/upscale/display spans) from which the MTP
and energy aggregates are derived, and which feeds the session's
:class:`~repro.observability.MetricsRegistry`. Two optional, default-off
extension hooks wire previously-orphaned subsystems into the loop:

* ``link`` — a lossy :class:`~repro.network.NetworkLink` transport stage
  replacing the flat bandwidth model: per-frame packetization, random
  loss, retransmission rounds, and deadline-based frame drops, all
  surfaced in the network span (Sec. II-A's motivation, end to end).
* ``adaptive`` — an :class:`~repro.streaming.adaptive.AdaptiveRoIController`
  policy fed each frame's measured upscale span, driving the server's
  RoI window side (and a pinned client-side modeled RoI) via AIMD.

With both left at ``None`` the session is numerically identical to the
paper's static configuration (guarded by the equivalence tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..metrics.lpips import lpips as lpips_metric
from ..metrics.psnr import psnr as psnr_metric
from ..network.link import NetworkLink, TransmitResult
from ..network.trace import build_scenario
from ..observability import MetricsRegistry, observe_frame_trace
from ..platform import calibration as cal
from ..platform.device import DeviceProfile
from ..platform.energy import Component, EnergyBreakdown, overhead_mj, stage_energy_mj
from .abr import ABRController
from .adaptive import AdaptiveRoIController
from .client import StreamingClient
from .frames import ClientFrameResult, ServerFrame, StreamGeometry
from .mtp import MTPBreakdown, mtp_from_frame
from .pipeline import FrameTrace, split_transmission
from .server import GameStreamServer

__all__ = [
    "FrameRecord",
    "SessionResult",
    "apply_client_knobs",
    "run_session",
    "energy_of_frame",
    "energy_from_trace",
]


def energy_of_frame(
    device: DeviceProfile, client_result: ClientFrameResult
) -> EnergyBreakdown:
    """Integrate one frame's energy stages into a Fig. 12 breakdown."""
    totals = {"decode": 0.0, "upscale": 0.0, "network": 0.0}
    for category, stages in client_result.energy_stages.items():
        if category not in totals:
            raise ValueError(f"unknown energy category {category!r}")
        for component, ms in stages:
            totals[category] += stage_energy_mj(device, component, ms)
    return EnergyBreakdown(
        decode=totals["decode"],
        upscale=totals["upscale"],
        network=totals["network"],
        display=overhead_mj(device),
    )


def energy_from_trace(device: DeviceProfile, trace: FrameTrace) -> EnergyBreakdown:
    """Integrate a frame trace's energy attributions into a Fig. 12 breakdown.

    Walks spans in recording order and accumulates per-category totals in
    the same order as :func:`energy_of_frame` does over the dict view, so
    both paths produce bit-identical sums.
    """
    totals = {"decode": 0.0, "upscale": 0.0, "network": 0.0}
    for span in trace.spans:
        for attr in span.energy:
            category = attr.resolved_category(span.name)
            if category not in totals:
                raise ValueError(f"unknown energy category {category!r}")
            totals[category] += stage_energy_mj(device, attr.component, attr.ms)
    return EnergyBreakdown(
        decode=totals["decode"],
        upscale=totals["upscale"],
        network=totals["network"],
        display=overhead_mj(device),
    )


@dataclass(frozen=True)
class FrameRecord:
    """Everything measured for one streamed frame."""

    index: int
    frame_type: str
    upscale_ms: float
    mtp: MTPBreakdown
    energy: EnergyBreakdown
    modeled_size_bytes: int
    psnr_db: Optional[float] = None
    lpips: Optional[float] = None
    #: Transport-stage outcome (always False/0 on the flat default link).
    dropped: bool = False
    network_retransmissions: int = 0
    #: Merged server+client stage trace for this frame.
    trace: Optional[FrameTrace] = None

    @property
    def is_reference(self) -> bool:
        return self.frame_type == "I"

    @property
    def upscale_fps(self) -> float:
        """Output frame rate the upscaling stage alone can sustain."""
        return 1000.0 / self.upscale_ms if self.upscale_ms > 0 else float("inf")


@dataclass
class SessionResult:
    """Aggregated metrics of one streaming session."""

    game_id: str
    design: str
    device_name: str
    geometry: StreamGeometry
    gop_size: int
    records: List[FrameRecord] = field(default_factory=list)
    #: Per-session metrics registry fed from the frame traces.
    metrics: Optional[MetricsRegistry] = None

    def _select(self, reference: Optional[bool]) -> List[FrameRecord]:
        if reference is None:
            return self.records
        return [r for r in self.records if r.is_reference == reference]

    def mean_upscale_ms(self, reference: Optional[bool] = None) -> float:
        records = self._select(reference)
        if not records:
            raise ValueError("no matching frames in session")
        return float(np.mean([r.upscale_ms for r in records]))

    def upscale_fps(self, reference: Optional[bool] = None) -> float:
        return 1000.0 / self.mean_upscale_ms(reference)

    def gop_upscale_ms(self) -> float:
        """Total upscaling time across the session (GOP throughput basis)."""
        return float(np.sum([r.upscale_ms for r in self.records]))

    def mean_mtp(self, reference: Optional[bool] = None) -> MTPBreakdown:
        return MTPBreakdown.mean([r.mtp for r in self._select(reference)])

    def mean_energy(self) -> EnergyBreakdown:
        return EnergyBreakdown.mean([r.energy for r in self.records])

    def mean_psnr(self) -> float:
        vals = [r.psnr_db for r in self.records if r.psnr_db is not None]
        if not vals:
            raise ValueError("session was run without quality evaluation")
        return float(np.mean(vals))

    def mean_lpips(self) -> float:
        vals = [r.lpips for r in self.records if r.lpips is not None]
        if not vals:
            raise ValueError("session was run without quality evaluation")
        return float(np.mean(vals))

    def psnr_series(self) -> List[float]:
        return [r.psnr_db for r in self.records if r.psnr_db is not None]

    # -- transport/observability aggregates ------------------------------

    def frame_traces(self) -> List[FrameTrace]:
        """The merged per-frame traces (empty for hand-built records)."""
        return [r.trace for r in self.records if r.trace is not None]

    def drop_rate(self) -> float:
        """Fraction of frames the transport stage dropped past deadline."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.dropped) / len(self.records)

    def total_retransmissions(self) -> int:
        return sum(r.network_retransmissions for r in self.records)

    def to_trace_dict(self) -> Dict[str, Any]:
        """Structured JSON-able export: session header + per-frame traces
        + metrics snapshot (schema: ``repro.observability.schema``)."""
        return {
            "session": {
                "game_id": self.game_id,
                "design": self.design,
                "device": self.device_name,
                "n_frames": len(self.records),
                "gop_size": self.gop_size,
            },
            "frames": [t.to_dict() for t in self.frame_traces()],
            "metrics": self.metrics.to_dict() if self.metrics is not None else {},
        }

    def export_trace_json(self, path: Path | str) -> Path:
        """Write the per-frame trace export as JSON and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_trace_dict(), indent=2))
        return path

    # -- GOP-weighted aggregates -----------------------------------------
    # Per-frame-type costs are deterministic given the platform model, so
    # metrics for the paper's 60-frame GOPs (1 reference + 59 dependents)
    # can be synthesized from shorter simulated sessions.

    def gop_weighted_upscale_ms(self, gop_size: int = 60) -> float:
        """Mean per-frame upscaling latency over a synthetic GOP."""
        if gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {gop_size}")
        ref = self.mean_upscale_ms(reference=True)
        if gop_size == 1:
            return ref
        nonref = self.mean_upscale_ms(reference=False)
        return (ref + (gop_size - 1) * nonref) / gop_size

    def gop_weighted_energy(self, gop_size: int = 60) -> EnergyBreakdown:
        """Mean per-frame energy breakdown over a synthetic GOP."""
        if gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {gop_size}")
        ref = EnergyBreakdown.mean(
            [r.energy for r in self.records if r.is_reference]
        )
        if gop_size == 1:
            return ref
        nonref = EnergyBreakdown.mean(
            [r.energy for r in self.records if not r.is_reference]
        )
        return (ref + nonref.scaled(gop_size - 1)).scaled(1.0 / gop_size)

    def realtime_conformant(self, deadline_ms: float = cal.REALTIME_DEADLINE_MS) -> bool:
        """Do all frames meet the 60 FPS upscaling deadline?"""
        return all(r.upscale_ms <= deadline_ms for r in self.records)

    def conformance_rate(
        self, deadline_ms: float = cal.REALTIME_DEADLINE_MS
    ) -> float:
        """Fraction of frames delivered *and* upscaled inside budget.

        The per-scenario headline of ``bench_netscen``: a frame conforms
        when the transport did not drop it and its upscale stage met the
        realtime deadline. (Skipped frames have ``upscale_ms == 0`` but
        fail on ``dropped``/``reference_lost``.)
        """
        if not self.records:
            return 0.0
        ok = 0
        for r in self.records:
            skipped = (
                r.trace is not None
                and r.trace.span("upscale").metadata.get("skipped", False)
            )
            if not r.dropped and not skipped and r.upscale_ms <= deadline_ms:
                ok += 1
        return ok / len(self.records)

    def mean_bitrate_mbps(self, fps: float = cal.TARGET_FPS) -> float:
        mean_bytes = float(np.mean([r.modeled_size_bytes for r in self.records]))
        return mean_bytes * 8 * fps / 1e6


def _transport_stage(
    server_frame: ServerFrame,
    link: NetworkLink,
    deadline_ms: float,
    at_ms: float = 0.0,
) -> TransmitResult:
    """Run the injected lossy transport and amend the network span.

    Replaces the server's flat ``transmission_ms`` span with the measured
    :meth:`NetworkLink.transmit` outcome (serialization + propagation +
    retransmission rounds) and keeps the ``server_timings_ms`` view in
    sync. ``at_ms`` is the frame's session-time transmit instant — the
    static link ignores it; a trace-driven link resolves its conditions
    there and the span picks up the ``scenario`` metadata.
    """
    outcome = link.transmit(
        server_frame.modeled_size_bytes, deadline_ms=deadline_ms, at_ms=at_ms
    )
    scenario_meta = getattr(link, "last_transmit_meta", None)
    extra = {"scenario": dict(scenario_meta)} if scenario_meta else {}
    if server_frame.trace is not None:
        server_frame.trace.amend_span(
            "network",
            modeled_ms=outcome.latency_ms,
            n_packets=outcome.n_packets,
            n_retransmissions=outcome.n_retransmissions,
            dropped=outcome.dropped,
            transport="lossy_link",
            **extra,
        )
    # server_timings_ms is a materialized view of the trace: keep it in
    # sync so dict consumers (mtp fallback, reports) see the transport.
    server_frame.server_timings_ms["network"] = outcome.latency_ms
    return outcome


def _resolve_scenario(
    scenario: Optional[object], link: Optional[NetworkLink]
) -> Optional[NetworkLink]:
    """Materialize the ``scenario=`` knob into the session's link.

    ``scenario`` is a canned/synthetic name (see
    :func:`repro.network.trace.build_scenario`) or an already-built
    :class:`NetworkLink`; mutually exclusive with an explicit ``link``.
    """
    if scenario is None:
        return link
    if link is not None:
        raise ValueError("scenario= and link= are mutually exclusive")
    if isinstance(scenario, NetworkLink):
        return scenario
    if isinstance(scenario, str):
        return build_scenario(scenario, seed=0)
    raise TypeError(
        f"scenario must be a name or NetworkLink, got {type(scenario).__name__}"
    )


def _apply_roi_side(
    server: GameStreamServer,
    client: StreamingClient,
    controller: AdaptiveRoIController,
) -> Optional[int]:
    """Push the controller's (modeled-scale) window side into the pipeline.

    The controller plans on the modeled geometry (the paper's 720p frame);
    the server detects on the eval frame, so the side is rescaled by frame
    height exactly like ``RoIWindowPlan.side_for_frame`` does. A client
    with a pinned ``modeled_roi_side`` follows the controller directly.
    Returns the eval-scale side (``None`` when the server has no RoI
    detector).
    """
    eval_side = None
    if server.detector is not None:
        geometry = server.geometry
        eval_side = int(
            round(
                controller.side
                * geometry.eval_lr_height
                / geometry.modeled_lr_height
            )
        )
        eval_side = max(2, min(eval_side, geometry.eval_lr_height))
        server.set_roi_side(eval_side)
    if getattr(client, "modeled_roi_side", None) is not None:
        client.modeled_roi_side = controller.side
    return eval_side


def _apply_abr_knobs(
    server: GameStreamServer, client: StreamingClient, abr: ABRController
) -> None:
    """Actuate the ABR decision for the next frame before production.

    The RoI side follows the rung-capped controller side like the
    adaptive path; ``force_idr`` resets the encoder's GOP phase (the next
    frame is an I-frame regardless of position). The SR backend switches
    only when the rung actually changed it (``set_sr_backend`` rebuilds
    the upscaler) and only on designs that expose the zoo knob.
    """
    knobs = abr.next_frame_knobs(_apply_roi_side(server, client, abr))
    server.encoder.quality = knobs["quality"]
    server.encoder.gop_size = knobs["gop_size"]
    if knobs["force_idr"]:
        server.encoder.reset()
    backend = abr.client_backend()
    if backend is not None and hasattr(client, "set_sr_backend"):
        if getattr(client, "sr_backend", None) is not backend:
            client.set_sr_backend(backend)


def _require_knob(client: StreamingClient, knob: str) -> None:
    """Reject a per-session knob the client design does not expose.

    Only the RoI-SR designs (``GameStreamSRClient``,
    ``SRIntegratedDecoderClient``) carry the optional execution knobs;
    asking any other design is a configuration error, not a silent
    no-op.
    """
    if not hasattr(client, knob):
        raise ValueError(
            f"design {client.design!r} does not support {knob}; use "
            "GameStreamSRClient or SRIntegratedDecoderClient"
        )


def apply_client_knobs(
    client: StreamingClient,
    *,
    gop_reuse: bool = False,
    sr_backend=None,
    dispatch=None,
) -> None:
    """Validate and enable the per-session client execution knobs.

    One shared entry point for every caller (session loop, CLI), so
    support checks and the mutual-exclusion rule live in exactly one
    place. All-defaults is a no-op.
    """
    if gop_reuse:
        _require_knob(client, "gop_reuse")
        client.gop_reuse = True
    if sr_backend is not None:
        _require_knob(client, "sr_backend")
        client.set_sr_backend(sr_backend)
    if dispatch is not None:
        _require_knob(client, "dispatch")
        client.set_dispatch(dispatch)
    if gop_reuse and hasattr(client, "_validate_sr_knobs"):
        # set_sr_backend/set_dispatch validate on their own; a lone
        # gop_reuse=True must still catch a knob set at construction.
        client._validate_sr_knobs()


def _validate_abr_knobs(
    abr: Optional[ABRController],
    *,
    adaptive: Optional[AdaptiveRoIController],
    gop_reuse: bool,
    sr_backend,
    dispatch,
) -> None:
    """Reject knob combinations the ABR controller subsumes.

    ABR owns the RoI loop (it *is* an :class:`AdaptiveRoIController`)
    and switches SR backends per rung, so a simultaneous ``adaptive``
    controller or a static ``gop_reuse``/``sr_backend``/``dispatch``
    pin would fight it frame by frame.
    """
    if abr is None:
        return
    conflicts = [
        name
        for name, on in (
            ("adaptive", adaptive is not None),
            ("gop_reuse", gop_reuse),
            ("sr_backend", sr_backend is not None),
            ("dispatch", dispatch is not None),
        )
        if on
    ]
    if conflicts:
        raise ValueError(
            f"abr= is mutually exclusive with {', '.join(conflicts)}"
        )


def _skipped_client_result(frame: ServerFrame, reason: str) -> ClientFrameResult:
    """The client-side record of a skipped (never decoded) frame.

    With ``skip_dropped`` enabled the client never decodes or upscales a
    frame the transport declared lost (``reason="transport_drop"``) or a
    P-frame whose reference chain a skipped frame broke
    (``reason="reference_lost"``): the RX radio window was still spent
    (the bytes arrived, the deadline did not hold), so the network span
    keeps its energy attribution, while decode/upscale/display are
    recorded as zeroed spans tagged ``skipped`` — the "zeroed upscale
    span" consumers can aggregate without special-casing. The display
    keeps showing the previous frame; the placeholder HR output is black
    and is excluded from quality scoring by the session loop.
    """
    geometry = frame.geometry
    trace = FrameTrace(index=frame.index, frame_type=frame.encoded.frame_type)
    with trace.stage("network", mtp=False) as st:
        split = split_transmission(frame.modeled_size_bytes)
        st.modeled_ms = split.serialization_ms
        st.add_energy(Component.NETWORK_RX, split.serialization_ms)
        st.meta(modeled_bytes=frame.modeled_size_bytes)
    for name in ("decode", "upscale", "display"):
        trace.add_span(name, 0.0, skipped=True, reason=reason)
    hr = np.zeros(
        (
            geometry.eval_lr_height * geometry.scale,
            geometry.eval_lr_width * geometry.scale,
            3,
        ),
        dtype=np.float64,
    )
    return ClientFrameResult(
        index=frame.index,
        frame_type=frame.encoded.frame_type,
        hr_frame=hr,
        client_timings_ms=trace.timings_ms(("decode", "upscale", "display")),
        energy_stages=trace.energy_stages(),
        trace=trace,
    )


def _consume_frame(
    server_frame: ServerFrame,
    client: StreamingClient,
    metrics: MetricsRegistry,
    *,
    link: Optional[NetworkLink],
    link_deadline_ms: float,
    adaptive: Optional[AdaptiveRoIController],
    evaluate_quality: bool,
    with_lpips: bool,
    lpips_stride: int,
    hr_fn: Optional[Callable[[int], np.ndarray]],
    skip_dropped: bool,
    reference_broken: bool,
    abr: Optional[ABRController],
    at_ms: float,
) -> Tuple[FrameRecord, bool]:
    """Run the client half of the pipeline on one produced server frame.

    Covers transport, decode/SR, controller observation, quality scoring
    and trace/energy assembly. ``reference_broken`` says whether the
    previous frame was skipped; the returned bool says whether this one
    was, and is fed back in for the next frame.
    """
    dropped, retransmissions = False, 0
    if link is not None:
        outcome = _transport_stage(server_frame, link, link_deadline_ms, at_ms)
        dropped, retransmissions = outcome.dropped, outcome.n_retransmissions
        if abr is not None:
            if server_frame.trace is not None and abr.frame_meta:
                server_frame.trace.amend_span("network", abr=dict(abr.frame_meta))
            abr.observe_network(
                outcome, server_frame.modeled_size_bytes, at_ms=at_ms
            )

    # A skipped frame breaks the decoder's reference chain: every later
    # P-frame is undecodable (its reference is missing or stale) until a
    # delivered I-frame resets the decoder.
    skipped, skip_reason = False, ""
    if skip_dropped:
        if dropped:
            skipped, skip_reason = True, "transport_drop"
        elif reference_broken and server_frame.encoded.frame_type == "P":
            skipped, skip_reason = True, "reference_lost"
    if skipped:
        client_result = _skipped_client_result(server_frame, skip_reason)
    else:
        client_result = client.process(server_frame)
        controller = abr if abr is not None else adaptive
        if controller is not None:
            controller.observe(client_result.upscale_ms)

    psnr_db = lpips_val = None
    if evaluate_quality and not skipped:
        assert hr_fn is not None, "quality evaluation requires an HR source"
        reference = hr_fn(server_frame.index)
        psnr_db = psnr_metric(reference, client_result.hr_frame)
        if with_lpips and server_frame.index % lpips_stride == 0:
            lpips_val = lpips_metric(reference, client_result.hr_frame)

    trace = None
    if server_frame.trace is not None and client_result.trace is not None:
        trace = server_frame.trace.extend(client_result.trace)
        observe_frame_trace(metrics, trace)

    energy = (
        energy_from_trace(client.device, trace)
        if trace is not None
        else energy_of_frame(client.device, client_result)
    )
    return FrameRecord(
        index=server_frame.index,
        frame_type=client_result.frame_type,
        upscale_ms=client_result.upscale_ms,
        mtp=mtp_from_frame(server_frame, client_result),
        energy=energy,
        modeled_size_bytes=server_frame.modeled_size_bytes,
        psnr_db=psnr_db,
        lpips=lpips_val,
        dropped=dropped,
        network_retransmissions=retransmissions,
        trace=trace,
    ), skipped


def run_session(
    server: GameStreamServer,
    client: StreamingClient,
    n_frames: int,
    evaluate_quality: bool = False,
    with_lpips: bool = False,
    lpips_stride: int = 1,
    hr_reference_fn: Optional[Callable[[int], np.ndarray]] = None,
    link: Optional[NetworkLink] = None,
    link_deadline_ms: float = float("inf"),
    adaptive: Optional[AdaptiveRoIController] = None,
    skip_dropped: bool = False,
    gop_reuse: bool = False,
    sr_backend=None,
    dispatch=None,
    scenario=None,
    abr: Optional[ABRController] = None,
) -> SessionResult:
    """Stream ``n_frames`` through ``server`` -> ``client`` and aggregate.

    ``evaluate_quality`` renders the native HR ground truth per frame and
    scores PSNR (and LPIPS when ``with_lpips``) of the client's output —
    substantially slower, so latency/energy benches leave it off.
    ``lpips_stride`` scores LPIPS on every k-th frame only (it is the
    most expensive metric); ``hr_reference_fn`` overrides the ground-truth
    source (used to share renders across designs).

    ``link`` injects a lossy :class:`NetworkLink` transport stage in place
    of the flat bandwidth model (frames missing ``link_deadline_ms`` are
    flagged dropped); ``adaptive`` closes the RoI-sizing loop from
    measured upscale spans. Both default off, keeping the paper's static
    configuration numerically identical to the pre-staged pipeline.

    ``skip_dropped`` (default off) short-circuits the client for frames
    the transport dropped: no decode/SR work runs, a zeroed upscale span
    is recorded instead, the frame is excluded from quality scoring, and
    the adaptive controller never observes it. Because a skipped frame
    breaks the decoder's reference chain, subsequent P-frames are
    skipped too (tagged ``reason="reference_lost"``) until the next
    delivered I-frame resets the decoder — decoding them against a
    missing or stale reference would crash or silently corrupt. With the
    default ``False`` the client still processes dropped frames in full
    — the historical behavior, pinned by the regression tests.

    ``gop_reuse`` (default off) turns on the compressed-domain SR cache
    on clients that support it (:mod:`repro.sr.gop_reuse`): P-frames warp
    the previous frame's SR output by the decoded motion field and only
    re-upscale the blocks whose residual energy marks them dirty, with a
    mandatory full refresh on I-frames and reference-chain breaks. With
    the default ``False`` the session traces stay byte-identical to the
    per-frame-SR configuration (pinned by the equivalence tests).

    ``sr_backend`` / ``dispatch`` (default off) swap the RoI SR executor
    for a model-zoo :class:`~repro.sr.backends.SRBackend` or a
    :class:`~repro.sr.dispatch.DifficultyDispatcher` on the clients that
    support them; mutually exclusive with each other and with
    ``gop_reuse`` (see :func:`apply_client_knobs`).

    ``scenario`` (default off) streams over a trace-driven time-varying
    link: a canned name (``"lte_drive"``), a ``"synthetic:<seed>"``
    generator spec, or a prebuilt :class:`NetworkLink`; mutually
    exclusive with ``link``. Frames transmit at their session-time
    instant (``index / fps``) so the link's bandwidth/RTT/loss schedule
    lines up with the stream, and the network span carries the
    instantaneous conditions as ``scenario`` metadata.

    ``abr`` (default off) closes the bitrate control loop: an
    :class:`~repro.streaming.abr.ABRController` observes each frame's
    transmit outcome and co-adapts codec quality, GOP structure, RoI
    size, and SR backend before the next frame is produced. Subsumes
    (and is mutually exclusive with) ``adaptive`` and the static
    ``gop_reuse``/``sr_backend``/``dispatch`` knobs.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    if lpips_stride < 1:
        raise ValueError(f"lpips_stride must be >= 1, got {lpips_stride}")
    link = _resolve_scenario(scenario, link)
    _validate_abr_knobs(
        abr, adaptive=adaptive, gop_reuse=gop_reuse,
        sr_backend=sr_backend, dispatch=dispatch,
    )
    apply_client_knobs(
        client, gop_reuse=gop_reuse, sr_backend=sr_backend, dispatch=dispatch
    )
    client.reset()
    metrics = MetricsRegistry()
    result = SessionResult(
        game_id=server.game.game_id,
        design=client.design,
        device_name=client.device.name,
        geometry=server.geometry,
        gop_size=server.gop_size,
        metrics=metrics,
    )
    hr_fn = hr_reference_fn if hr_reference_fn is not None else server.render_hr_reference
    reference_broken = False
    period_ms = 1000.0 / server.fps
    for index in range(n_frames):
        if abr is not None:
            _apply_abr_knobs(server, client, abr)
        elif adaptive is not None:
            _apply_roi_side(server, client, adaptive)

        server_frame: ServerFrame = server.next_frame()

        record, reference_broken = _consume_frame(
            server_frame,
            client,
            metrics,
            link=link,
            link_deadline_ms=link_deadline_ms,
            adaptive=adaptive,
            evaluate_quality=evaluate_quality,
            with_lpips=with_lpips,
            lpips_stride=lpips_stride,
            hr_fn=hr_fn if evaluate_quality else None,
            skip_dropped=skip_dropped,
            reference_broken=reference_broken,
            abr=abr,
            at_ms=index * period_ms,
        )
        result.records.append(record)
    return result
