"""End-to-end streaming session driver and result aggregation.

:func:`run_session` streams ``n_frames`` of one game through a server and
a client design, collecting per-frame latencies, MTP breakdowns, energy,
and (optionally) quality against the native HR render. All of the paper's
evaluation figures are computed from :class:`SessionResult` objects.

The loop is staged end to end: every frame carries a merged
:class:`~repro.streaming.pipeline.FrameTrace` (server render/RoI/encode/
network spans + client decode/upscale/display spans) from which the MTP
and energy aggregates are derived, and which feeds the session's
:class:`~repro.observability.MetricsRegistry`. Every per-session knob
(transport scenario, adaptive RoI, GOP reuse, SR backend/dispatch, ABR,
quality scoring) is declared, defaulted and validated once, on
:class:`SessionConfig`. With every knob at its default the session is
numerically identical to the paper's static configuration (guarded by
the equivalence tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..metrics.lpips import lpips as lpips_metric
from ..metrics.psnr import psnr as psnr_metric
from ..network.link import NetworkLink, TransmitResult
from ..network.trace import build_scenario
from ..observability import MetricsRegistry, observe_frame_trace
from ..platform import calibration as cal
from ..platform.device import DeviceProfile
from ..platform.energy import Component, EnergyBreakdown, overhead_mj, stage_energy_mj
from ..sr.backends import SRBackend
from ..sr.dispatch import DifficultyDispatcher
from .abr import ABRController
from .adaptive import AdaptiveRoIController
from .client import StreamingClient
from .frames import ClientFrameResult, ServerFrame, StreamGeometry
from .mtp import MTPBreakdown, mtp_from_trace
from .pipeline import FrameTrace, split_transmission
from .server import GameStreamServer

__all__ = [
    "FrameRecord",
    "SessionConfig",
    "SessionResult",
    "run_session",
    "energy_from_trace",
]


def energy_from_trace(device: DeviceProfile, trace: FrameTrace) -> EnergyBreakdown:
    """Integrate a frame trace's energy attributions into a Fig. 12 breakdown.

    Walks spans in recording order and accumulates per-category totals in
    the same order as the seed's dict-view integration (kept as the
    equivalence reference in the streaming tests), so both produce
    bit-identical sums.
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


@dataclass(frozen=True)
class SessionConfig:
    """Every per-session knob of :func:`run_session`, declared once.

    All knobs default off, and the all-defaults config is the paper's
    static configuration. ``__post_init__`` owns every rule about which
    knobs may be combined, so an invalid session is rejected before any
    frame is produced. The config holds the caller's own controller,
    link and dispatcher objects (never copies): callers read counters
    back from the ``abr`` controller they passed in.
    """

    #: Render the native HR ground truth per frame and score PSNR (and
    #: LPIPS when ``with_lpips``) of the client's output — substantially
    #: slower, so latency/energy benches leave it off.
    evaluate_quality: bool = False
    with_lpips: bool = False
    #: Score LPIPS on every k-th frame only (it is the most expensive
    #: metric).
    lpips_stride: int = 1
    #: Frames the transport delivers later than this are flagged dropped.
    link_deadline_ms: float = float("inf")
    #: Closes the RoI-sizing loop from measured upscale spans.
    adaptive: Optional[AdaptiveRoIController] = None
    #: Short-circuit the client for frames the transport dropped: no
    #: decode/SR work runs, a zeroed upscale span is recorded instead,
    #: the frame is excluded from quality scoring, and the adaptive
    #: controller never observes it. Because a skipped frame breaks the
    #: decoder's reference chain, subsequent P-frames are skipped too
    #: (tagged ``reason="reference_lost"``) until the next delivered
    #: I-frame resets the decoder — decoding them against a missing or
    #: stale reference would crash or silently corrupt. Off, the client
    #: still processes dropped frames in full (the historical behavior,
    #: pinned by the regression tests).
    skip_dropped: bool = False
    #: The compressed-domain SR cache (:mod:`repro.sr.gop_reuse`):
    #: P-frames warp the previous frame's SR output by the decoded motion
    #: field and only re-upscale the blocks whose residual energy marks
    #: them dirty, with a mandatory full refresh on I-frames and
    #: reference-chain breaks. RoI-SR designs only.
    gop_reuse: bool = False
    #: Swap the RoI SR executor for a model-zoo
    #: :class:`~repro.sr.backends.SRBackend`; ``None`` runs the session's
    #: EDSR as the ``edsr`` backend. RoI-SR designs only.
    sr_backend: Optional[SRBackend] = None
    #: Route RoI tiles across a backend pool with a
    #: :class:`~repro.sr.dispatch.DifficultyDispatcher`; excludes
    #: ``gop_reuse`` and ``sr_backend``. RoI-SR designs only.
    dispatch: Optional[DifficultyDispatcher] = None
    #: Stream over a lossy link in place of the flat bandwidth model: a
    #: canned trace name (``"lte_drive"``), a ``"synthetic:<seed>"``
    #: generator spec, or a prebuilt :class:`NetworkLink`. Frames
    #: transmit at their session-time instant (``index / fps``) so a
    #: trace-driven link's bandwidth/RTT/loss schedule lines up with the
    #: stream, and the network span carries the instantaneous conditions
    #: as ``scenario`` metadata.
    scenario: Union[None, str, NetworkLink] = None
    #: Close the bitrate control loop: an
    #: :class:`~repro.streaming.abr.ABRController` observes each frame's
    #: transmit outcome and co-adapts codec quality, GOP structure, RoI
    #: size and SR backend before the next frame is produced. Needs a
    #: ``scenario`` to observe; subsumes ``adaptive`` and the static SR
    #: execution knobs.
    abr: Optional[ABRController] = None

    def __post_init__(self) -> None:
        if self.lpips_stride < 1:
            raise ValueError(f"lpips_stride must be >= 1, got {self.lpips_stride}")
        if self.scenario is not None and not isinstance(
            self.scenario, (str, NetworkLink)
        ):
            raise TypeError(
                "scenario must be a name or NetworkLink, got "
                f"{type(self.scenario).__name__}"
            )
        sr_knobs = [
            name
            for name, on in (
                ("gop_reuse", self.gop_reuse),
                ("sr_backend", self.sr_backend is not None),
                ("dispatch", self.dispatch is not None),
            )
            if on
        ]
        if self.abr is not None:
            # ABR owns the RoI loop (it *is* an AdaptiveRoIController)
            # and switches SR backends per rung, so a second controller
            # or a static SR pin would fight it frame by frame.
            conflicts = (["adaptive"] if self.adaptive is not None else []) + sr_knobs
            if conflicts:
                raise ValueError(
                    f"abr= is mutually exclusive with {', '.join(conflicts)}"
                )
            if self.scenario is None:
                raise ValueError(
                    "abr= needs a link to observe: pass scenario= as well"
                )
        if self.dispatch is not None and len(sr_knobs) > 1:
            # The dispatcher brings its own backend pool, and GOP reuse's
            # dirty windows are not planned under its budget.
            raise ValueError(
                "mutually exclusive SR execution knobs enabled together: "
                + ", ".join(sr_knobs)
            )

    def resolve_link(self) -> Optional[NetworkLink]:
        """The session's transport link; names build a fresh seeded link."""
        if isinstance(self.scenario, str):
            return build_scenario(self.scenario, seed=0)
        return self.scenario


def _transport_stage(
    server_frame: ServerFrame,
    link: NetworkLink,
    deadline_ms: float,
    at_ms: float = 0.0,
) -> TransmitResult:
    """Run the injected lossy transport and amend the network span.

    Replaces the server's flat ``transmission_ms`` span with the measured
    :meth:`NetworkLink.transmit` outcome (serialization + propagation +
    retransmission rounds). ``at_ms`` is the frame's session-time
    transmit instant — the static link ignores it; a trace-driven link
    resolves its conditions there and the span picks up the ``scenario``
    metadata.
    """
    outcome = link.transmit(
        server_frame.modeled_size_bytes, deadline_ms=deadline_ms, at_ms=at_ms
    )
    scenario_meta = getattr(link, "last_transmit_meta", None)
    extra = {"scenario": dict(scenario_meta)} if scenario_meta else {}
    server_frame.trace.amend_span(
        "network",
        modeled_ms=outcome.latency_ms,
        n_packets=outcome.n_packets,
        n_retransmissions=outcome.n_retransmissions,
        dropped=outcome.dropped,
        transport="lossy_link",
        **extra,
    )
    return outcome


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
    if (
        backend is not None
        and hasattr(client, "set_sr_backend")
        and client.backend is not backend
    ):
        client.set_sr_backend(backend)


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
        trace=trace,
    )


def _consume_frame(
    server_frame: ServerFrame,
    client: StreamingClient,
    metrics: MetricsRegistry,
    config: SessionConfig,
    *,
    link: Optional[NetworkLink],
    hr_fn: Callable[[int], np.ndarray],
    reference_broken: bool,
    at_ms: float,
) -> Tuple[FrameRecord, bool]:
    """Run the client half of the pipeline on one produced server frame.

    Covers transport, decode/SR, controller observation, quality scoring
    and trace/energy assembly. ``reference_broken`` says whether the
    previous frame was skipped; the returned bool says whether this one
    was, and is fed back in for the next frame.
    """
    abr = config.abr
    dropped, retransmissions = False, 0
    if link is not None:
        outcome = _transport_stage(
            server_frame, link, config.link_deadline_ms, at_ms
        )
        dropped, retransmissions = outcome.dropped, outcome.n_retransmissions
        if abr is not None:
            if abr.frame_meta:
                server_frame.trace.amend_span("network", abr=dict(abr.frame_meta))
            abr.observe_network(
                outcome, server_frame.modeled_size_bytes, at_ms=at_ms
            )

    # A skipped frame breaks the decoder's reference chain: every later
    # P-frame is undecodable (its reference is missing or stale) until a
    # delivered I-frame resets the decoder.
    skipped, skip_reason = False, ""
    if config.skip_dropped:
        if dropped:
            skipped, skip_reason = True, "transport_drop"
        elif reference_broken and server_frame.encoded.frame_type == "P":
            skipped, skip_reason = True, "reference_lost"
    if skipped:
        client_result = _skipped_client_result(server_frame, skip_reason)
    else:
        client_result = client.process(server_frame)
        controller = abr if abr is not None else config.adaptive
        if controller is not None:
            controller.observe(client_result.upscale_ms)

    psnr_db = lpips_val = None
    if config.evaluate_quality and not skipped:
        reference = hr_fn(server_frame.index)
        psnr_db = psnr_metric(reference, client_result.hr_frame)
        if config.with_lpips and server_frame.index % config.lpips_stride == 0:
            lpips_val = lpips_metric(reference, client_result.hr_frame)

    trace = server_frame.trace.extend(client_result.trace)
    observe_frame_trace(metrics, trace)
    return FrameRecord(
        index=server_frame.index,
        frame_type=client_result.frame_type,
        upscale_ms=client_result.upscale_ms,
        mtp=mtp_from_trace(trace),
        energy=energy_from_trace(client.device, trace),
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
    **knobs: Any,
) -> SessionResult:
    """Stream ``n_frames`` through ``server`` -> ``client`` and aggregate.

    ``knobs`` are the :class:`SessionConfig` fields; an unknown name or
    an invalid combination is rejected before any frame is produced. The
    SR execution knobs are set on the client at every session start, so
    a reused client never carries a knob over from an earlier session.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    config = SessionConfig(**knobs)
    link = config.resolve_link()
    client.configure_sr(
        gop_reuse=config.gop_reuse,
        sr_backend=config.sr_backend,
        dispatch=config.dispatch,
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
    abr, adaptive = config.abr, config.adaptive
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
            config,
            link=link,
            hr_fn=server.render_hr_reference,
            reference_broken=reference_broken,
            at_ms=index * period_ms,
        )
        result.records.append(record)
    return result
