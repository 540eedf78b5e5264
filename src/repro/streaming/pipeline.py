"""Staged pipeline architecture: stages, per-frame traces, network split.

The paper's end-to-end system (Fig. 6 / Fig. 9) is a pipeline — server
render -> RoI detect -> encode -> transmit -> client decode -> parallel
NPU/GPU upscale -> merge -> display. This module gives that pipeline an
explicit runtime representation:

* :class:`Stage` — a context manager recording one named span of work.
* :class:`StageSpan` — what a stage leaves behind: the *modeled* latency
  (calibrated platform model, ms), the *real* wall-clock cost of the
  simulation work (ms), zero or more energy attributions, and free-form
  payload metadata (byte counts, RoI geometry, retransmissions, ...).
* :class:`FrameTrace` — the ordered span list for one frame, with views
  that derive the per-stage latency (``timings_ms``) and
  ``energy_stages`` dictionaries, so MTP and energy aggregation consume
  the trace instead of ad-hoc dicts.

Network ownership contract (the one place the downlink split is defined)
-----------------------------------------------------------------------
The **server** trace owns the MTP ``network`` stage and charges the full
downlink time — propagation *plus* serialization — because a frame is not
displayable before its last byte lands (Fig. 1a).  The **client** trace
records a ``network`` span too, but it is excluded from MTP (``mtp=False``)
and exists only to attribute the radio-active receive window
(serialization time) to :data:`Component.NETWORK_RX` energy, exactly once.
:func:`split_transmission` computes both sides with the exact floating
point expressions the pre-refactor code used (``transmission_ms(n)`` and
``transmission_ms(n) - transmission_ms(0)``), keeping the refactor
bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..platform import calibration as cal
from ..platform import latency as lat
from ..platform.energy import Component

__all__ = [
    "ENERGY_CATEGORIES",
    "SERVER_STAGES",
    "CLIENT_STAGES",
    "EnergyAttribution",
    "StageSpan",
    "Stage",
    "FrameTrace",
    "TransmissionSplit",
    "split_transmission",
    "PipelineSchedule",
    "modeled_pipeline_schedule",
]

#: Fig. 12 energy categories a span may attribute components to.
ENERGY_CATEGORIES = ("network", "decode", "upscale")

#: Server-side MTP stages in pipeline order (Fig. 6 left half).
SERVER_STAGES = ("input", "game_logic", "render", "roi_detect", "encode", "network")

#: Client-side MTP stages in pipeline order (Fig. 9).
CLIENT_STAGES = ("decode", "upscale", "display")


@dataclass(frozen=True, slots=True)
class EnergyAttribution:
    """One (component, active-ms) energy contribution of a stage.

    ``category`` is the Fig. 12 bucket the energy lands in; it defaults to
    the recording span's name but may differ (e.g. the RoI merge runs in
    the display stage yet its GPU energy belongs to ``upscale``, and
    NEMO's warp runs in upscaling yet is charged to ``decode`` — see the
    calibration notes).
    """

    component: Component
    ms: float
    category: Optional[str] = None

    def resolved_category(self, span_name: str) -> str:
        return self.category if self.category is not None else span_name


@dataclass(slots=True)
class StageSpan:
    """The record one pipeline stage leaves in a :class:`FrameTrace`."""

    name: str
    #: Latency of the stage under the calibrated platform model (ms).
    modeled_ms: float = 0.0
    #: Real wall-clock time the simulation spent computing the stage (ms).
    wall_ms: float = 0.0
    #: Whether the span contributes to the MTP latency sum. Spans that
    #: exist purely for energy/observability (the client's RX span) are
    #: recorded with ``mtp=False``.
    mtp: bool = True
    energy: List[EnergyAttribution] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_energy(
        self, component: Component, ms: float, category: Optional[str] = None
    ) -> None:
        if ms < 0:
            raise ValueError(f"energy stage time must be >= 0, got {ms}")
        if category is not None and category not in ENERGY_CATEGORIES:
            raise ValueError(f"unknown energy category {category!r}")
        self.energy.append(EnergyAttribution(component, ms, category))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "modeled_ms": self.modeled_ms,
            "wall_ms": self.wall_ms,
            "mtp": self.mtp,
            "energy": [
                {
                    "component": attr.component.value,
                    "ms": attr.ms,
                    "category": attr.resolved_category(self.name),
                }
                for attr in self.energy
            ],
        }
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out


class Stage:
    """Context manager recording one named span into a :class:`FrameTrace`.

    Usage::

        with trace.stage("decode") as st:
            decoded = decoder.decode_frame(frame.encoded)   # real work
            st.modeled_ms = lat.decode_ms(px, device)        # modeled cost
            st.add_energy(Component.HW_DECODER, st.modeled_ms)
            st.meta(payload_bytes=frame.modeled_size_bytes)

    Wall-clock time between ``__enter__`` and ``__exit__`` is measured
    automatically; the span is appended to the trace on exit (also on
    exception, so partial traces remain inspectable).
    """

    def __init__(self, trace: "FrameTrace", name: str, mtp: bool = True) -> None:
        self._trace = trace
        self._span = StageSpan(name=name, mtp=mtp)
        self._t0 = 0.0

    @property
    def modeled_ms(self) -> float:
        return self._span.modeled_ms

    @modeled_ms.setter
    def modeled_ms(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"modeled_ms must be >= 0, got {value}")
        self._span.modeled_ms = float(value)

    def add_energy(
        self, component: Component, ms: float, category: Optional[str] = None
    ) -> None:
        self._span.add_energy(component, ms, category)

    def meta(self, **metadata: Any) -> None:
        self._span.metadata.update(metadata)

    def __enter__(self) -> "Stage":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.wall_ms = (time.perf_counter() - self._t0) * 1e3
        self._trace.spans.append(self._span)
        return None


class FrameTrace:
    """Ordered per-frame span record spanning server and client stages."""

    def __init__(
        self,
        index: int,
        frame_type: Optional[str] = None,
        spans: Optional[List[StageSpan]] = None,
    ) -> None:
        self.index = index
        self.frame_type = frame_type
        self.spans: List[StageSpan] = list(spans) if spans else []

    # -- recording -------------------------------------------------------
    def stage(self, name: str, mtp: bool = True) -> Stage:
        """Open a recording context for one named stage."""
        return Stage(self, name, mtp=mtp)

    def add_span(
        self,
        name: str,
        modeled_ms: float,
        energy: Sequence[Tuple[Component, float]] = (),
        mtp: bool = True,
        wall_ms: float = 0.0,
        **metadata: Any,
    ) -> StageSpan:
        """Record a span without the context-manager protocol."""
        span = StageSpan(
            name=name, modeled_ms=modeled_ms, wall_ms=wall_ms, mtp=mtp,
            metadata=dict(metadata),
        )
        for component, ms in energy:
            span.add_energy(component, ms)
        self.spans.append(span)
        return span

    def span(self, name: str) -> StageSpan:
        """The first recorded span named ``name`` (raises ``KeyError``)."""
        for span in self.spans:
            if span.name == name:
                return span
        raise KeyError(f"no span named {name!r} in trace of frame {self.index}")

    def has_span(self, name: str) -> bool:
        return any(span.name == name for span in self.spans)

    def amend_span(
        self,
        name: str,
        modeled_ms: Optional[float] = None,
        energy: Optional[Sequence[Tuple[Component, float]]] = None,
        **metadata: Any,
    ) -> StageSpan:
        """Rewrite an already-recorded span in place.

        This is how *augmenting* stages express themselves: the
        SR-integrated decoder replaces the stock hardware-decode span with
        its augmented-datapath cost, and the lossy-link transport replaces
        the server's flat network span with the measured transmit outcome.
        The span keeps its position and wall-clock time; ``energy`` (when
        given) replaces the attribution list; ``metadata`` is merged.
        """
        span = self.span(name)
        if modeled_ms is not None:
            if modeled_ms < 0:
                raise ValueError(f"modeled_ms must be >= 0, got {modeled_ms}")
            span.modeled_ms = float(modeled_ms)
        if energy is not None:
            span.energy = []
            for component, ms in energy:
                span.add_energy(component, ms)
        span.metadata.update(metadata)
        return span

    def add_energy(
        self, name: str, component: Component, ms: float, category: Optional[str] = None
    ) -> None:
        """Append one energy attribution to an existing span."""
        self.span(name).add_energy(component, ms, category)

    # -- views -----------------------------------------------------------
    def timings_ms(self, stages: Sequence[str]) -> Dict[str, float]:
        """MTP-stage latency dict over ``stages`` (absent stages are 0).

        Only spans recorded with ``mtp=True`` contribute; duplicate names
        sum. A client's stage latencies are this view over
        ``CLIENT_STAGES``.
        """
        out: Dict[str, float] = {name: 0.0 for name in stages}
        for span in self.spans:
            if span.mtp and span.name in out:
                out[span.name] += span.modeled_ms
        return out

    def stage_ms(self, name: str) -> float:
        """Total modeled ms of MTP spans named ``name`` (0 if absent)."""
        return sum(s.modeled_ms for s in self.spans if s.mtp and s.name == name)

    @property
    def total_modeled_ms(self) -> float:
        return sum(span.modeled_ms for span in self.spans if span.mtp)

    def energy_stages(self) -> Dict[str, List[Tuple[Component, float]]]:
        """Energy attributions grouped by Fig. 12 category.

        Every span *named* after a category contributes its key even when
        it carries no attributions (an idle upscale stage must still show
        up as ``"upscale": []``), and attributions may redirect themselves
        to another category (merge -> upscale, NEMO warp -> decode).
        """
        out: Dict[str, List[Tuple[Component, float]]] = {}
        for span in self.spans:
            if span.name in ENERGY_CATEGORIES:
                out.setdefault(span.name, [])
            for attr in span.energy:
                out.setdefault(attr.resolved_category(span.name), []).append(
                    (attr.component, attr.ms)
                )
        return out

    # -- composition / export -------------------------------------------
    def extend(self, other: "FrameTrace") -> "FrameTrace":
        """Concatenate another trace's spans (server + client -> frame).

        Spans keep their order and identity; the merged trace adopts the
        more specific ``frame_type`` of the two.
        """
        if other.index != self.index:
            raise ValueError(
                f"cannot merge traces of frames {self.index} and {other.index}"
            )
        merged = FrameTrace(
            index=self.index,
            frame_type=other.frame_type or self.frame_type,
            spans=self.spans + other.spans,
        )
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "frame_type": self.frame_type,
            "total_modeled_ms": self.total_modeled_ms,
            "spans": [span.to_dict() for span in self.spans],
        }


# ----------------------------------------------------------------------
# Downlink transmission split (the satellite "one place" for the split)


@dataclass(frozen=True)
class TransmissionSplit:
    """Propagation-vs-serialization split of one downlink transfer.

    * ``total_ms`` — what the **server** charges to the MTP ``network``
      stage (the frame is displayable only after the last byte lands).
    * ``serialization_ms`` — what the **client** charges to
      ``NETWORK_RX`` energy (the radio is active only while bytes clock
      in); excluded from MTP so the downlink is never double-counted.
    * ``propagation_ms`` — the byte-independent air/queueing latency,
      owned by the server side alone.
    """

    total_ms: float
    propagation_ms: float
    serialization_ms: float


def split_transmission(
    size_bytes: int, bandwidth_mbps: float = cal.NETWORK_BANDWIDTH_MBPS
) -> TransmissionSplit:
    """Split one frame's downlink time into propagation + serialization.

    Computed with the exact floating-point expressions the historical
    server (``transmission_ms(n)``) and client
    (``transmission_ms(n) - transmission_ms(0)``) code paths used, so
    both sides of the refactor stay bit-identical with the seed.
    """
    total = lat.transmission_ms(size_bytes, bandwidth_mbps)
    propagation = lat.transmission_ms(0, bandwidth_mbps)
    return TransmissionSplit(
        total_ms=total,
        propagation_ms=propagation,
        serialization_ms=total - propagation,
    )


# ----------------------------------------------------------------------
# Modeled two-stage pipeline schedule


@dataclass(frozen=True)
class PipelineSchedule:
    """Modeled steady-state timing of a depth-bounded two-stage pipeline.

    Computed from per-frame *modeled* MTP spans (the calibrated platform
    model the paper's numbers come from), so it is deterministic and
    host-independent — the headline metric of
    ``benchmarks/bench_pipeline.py``.
    """

    n_frames: int
    depth: int
    serial_total_ms: float
    pipelined_total_ms: float
    server_busy_ms: float
    client_busy_ms: float

    @property
    def serial_fps(self) -> float:
        return 1e3 * self.n_frames / self.serial_total_ms

    @property
    def pipelined_fps(self) -> float:
        return 1e3 * self.n_frames / self.pipelined_total_ms

    @property
    def speedup(self) -> float:
        return self.serial_total_ms / self.pipelined_total_ms


def modeled_pipeline_schedule(
    traces: List[FrameTrace], depth: int = 2
) -> PipelineSchedule:
    """Schedule a session's frames through the modeled two-stage pipeline.

    The paper's 16.66 ms deadline assumes the server encodes frame
    ``i+1`` while the client upscales frame ``i``. The server half of
    frame ``i`` (input/game/render/RoI/encode/network MTP spans) may
    start once frame ``i-1``'s server half is done *and* slot
    ``i % depth`` is free (the client has consumed frame ``i - depth``);
    the client half (decode/SR/display) starts when its frame is
    published and the client is idle:

    ``server_done[i] = max(server_done[i-1], client_done[i-depth]) + S_i``
    ``client_done[i] = max(client_done[i-1], server_done[i]) + C_i``

    Only MTP spans count (the client's ``mtp=False`` RX span is energy
    bookkeeping), so the serial baseline ``sum(S_i + C_i)`` equals the
    session's summed MTP.
    """
    if not traces:
        raise ValueError("cannot schedule an empty session")
    if depth < 1:
        raise ValueError(f"pipeline depth must be >= 1, got {depth}")
    server_ms = [sum(t.timings_ms(SERVER_STAGES).values()) for t in traces]
    client_ms = [sum(t.timings_ms(CLIENT_STAGES).values()) for t in traces]
    server_done: List[float] = []
    client_done: List[float] = []
    for i in range(len(traces)):
        start = server_done[i - 1] if i >= 1 else 0.0
        if i >= depth:
            start = max(start, client_done[i - depth])
        server_done.append(start + server_ms[i])
        prev_client = client_done[i - 1] if i >= 1 else 0.0
        client_done.append(max(prev_client, server_done[i]) + client_ms[i])
    return PipelineSchedule(
        n_frames=len(traces),
        depth=depth,
        serial_total_ms=sum(server_ms) + sum(client_ms),
        pipelined_total_ms=client_done[-1],
        server_busy_ms=sum(server_ms),
        client_busy_ms=sum(client_ms),
    )
