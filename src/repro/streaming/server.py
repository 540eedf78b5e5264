"""Game-streaming server: render -> RoI detect -> encode -> transmit.

Implements the server half of Fig. 6: each call to
:meth:`GameStreamServer.next_frame` advances the game world, renders the
LR frame + depth buffer, runs the depth-guided RoI detection (when
enabled), encodes the frame, and returns the :class:`ServerFrame` that
would travel to the client. Server stage latencies come from the
calibrated platform model (a desktop-class server, Sec. V-A).

Each stage records a span into the frame's
:class:`~repro.streaming.pipeline.FrameTrace`, whose MTP view
(``trace.timings_ms(SERVER_STAGES)``) gives the server stage latencies.
The ``network`` span carries the *flat* bandwidth-model downlink by
default — :func:`run_session` amends it in place when a lossy
:class:`~repro.network.NetworkLink` transport is injected.

The server-stream memo
----------------------
Every design evaluated on one stream (Sec. V) sees the same server half,
so the module keeps one in-process slot holding what the last streams
produced, under two keys:

* the *render key*: the game's class and its dataclass field values
  (fields of a plain value type compare by value, any other field, such
  as the ``scene``, by identity, and the slot holds it strongly), the
  geometry and the fps. A frame's render and HR reference depend on
  nothing else;
* the *stream key*: the render key plus the RoI side and
  :class:`RoIConfig` and the encoder's GOP size, quality, block and
  search radius. A frame's RoI box, bitstream and spans depend on
  nothing else.

*Purity contract.* A scene must not be edited while it is being
streamed, and a game class must keep all the state its frames depend on
in its fields.

*Renders and HR references* are kept per frame index under the render
key, read-only in place, first come first kept, up to
:data:`MEMO_MAX_RENDER_BYTES` for both together. Frame 0 of a server
with another render key drops them. Every server with the slot's render
key takes its render (in :meth:`GameStreamServer.next_frame`) and its HR
reference (:meth:`GameStreamServer.render_hr_reference`) from the slot
when it holds them, and offers what it renders otherwise, whatever its
knobs: a server that changes a knob mid-stream still renders nothing
an earlier server rendered.

*Encoded frames* are kept under the stream key, for frames ``0..n-1``
up to :data:`MEMO_MAX_FRAMES`; a server on the memo serves frame *i*
from them instead of rendering, detecting and encoding again. A hit
returns a fresh :class:`FrameTrace` (copied spans with ``wall_ms=0.0``,
since no stage work ran) and the
shared, immutable :class:`EncodedFrame` and RoI box, and restores the
encoder's reconstruction state after frame *i*, so a later live frame
continues the same chain. A miss runs the pipeline (RoI detection,
encode and pricing always run live) and records frame *i* only while
the slot holds exactly this key's frames ``0..i-1``; frame 0 of another
stream key drops the encoded frames only.

*Bypass rules.* A game whose own class is not a dataclass (such as a
plain subclass of :class:`~repro.render.games.GameWorkload` that
declares no fields of its own) has no render key and never uses the
slot. An RoI config with ``warm_start`` (a stateful detector) has no
stream key, so it shares renders and HR references but never encoded
frames. A server leaves the encoded frames for good, replaying and
recording none, once a live knob no longer matches its frame-0 stream
key or its encoder's frame counter no longer equals the frame index: an
ABR rung change, adaptive RoI resizing, ``set_roi_side`` or a forced
IDR. Renders and HR references survive all of these.

Outputs are byte-identical either way, which also makes the slot safe
to inherit across a fork: a child's copy holds valid frames.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..codec.encoder import EncodedFrame, EncoderState, VideoEncoder
from ..core.config import DEFAULT_ROI_CONFIG, RoIConfig
from ..core.detector import RoIDetector
from ..core.roi_search import RoIBox
from ..platform import latency as lat
from ..render.games import GameWorkload
from ..render.rasterizer import RenderOutput
from .frames import ROI_METADATA_BYTES, ServerFrame, StreamGeometry
from .pipeline import FrameTrace, StageSpan, split_transmission

__all__ = ["GameStreamServer", "MEMO_MAX_FRAMES", "MEMO_MAX_RENDER_BYTES"]

#: Most frames the memoized stream keeps; later frames of a longer
#: session are produced live. About 90 KB per frame at the 64x112 perf
#: geometry (three reconstruction planes) and 350 KB at 128x224.
MEMO_MAX_FRAMES = 64

#: Most bytes of renders and HR reference colors the slot keeps together;
#: later ones are rendered live. A float64 render (color and depth) is
#: 0.23 MB at 64x112 and 0.92 MB at 128x224; a float64 reference is
#: 0.69 MB at 128x224 and 2.75 MB at 256x448.
MEMO_MAX_RENDER_BYTES = 32 << 20

#: Field types a memo key compares by value; any other field compares by
#: identity.
_VALUE_TYPES = (bool, int, float, str, bytes, type(None))


class _Identity:
    """A key part that equals another only if both wrap the same object."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Identity) and other.obj is self.obj


def _memo_keys(server: "GameStreamServer") -> Tuple[Optional[tuple], Optional[tuple]]:
    """The server's ``(render key, stream key)``; a None key bypasses its
    part of the memo (see the module docstring)."""
    game = server.game
    cls = type(game)
    if "__dataclass_fields__" not in vars(cls):
        return None, None
    render_key = (
        cls,
        tuple(
            value if isinstance(value, _VALUE_TYPES) else _Identity(value)
            for value in (getattr(game, f.name) for f in dataclasses.fields(game))
        ),
        server.geometry,
        server.fps,
    )
    if server.roi_config.warm_start:
        return render_key, None
    encoder = server.encoder
    return render_key, render_key + (
        server.roi_side,
        server.roi_config,
        encoder.gop_size,
        encoder.quality,
        encoder.block,
        encoder.search_radius,
    )


def _replayable_span(span: StageSpan) -> StageSpan:
    """A copy of ``span`` that owns its containers and reports no wall time."""
    return StageSpan(
        name=span.name,
        modeled_ms=span.modeled_ms,
        mtp=span.mtp,
        energy=list(span.energy),
        metadata=dict(span.metadata),
    )


@dataclasses.dataclass(frozen=True)
class _MemoFrame:
    """One produced frame as the slot keeps it."""

    encoded: EncodedFrame
    roi: Optional[RoIBox]
    modeled_size_bytes: int
    #: Never handed out: every replay copies them again.
    spans: Tuple[StageSpan, ...]
    #: The encoder's state right after this frame.
    encoder_state: EncoderState


class _StreamSlot:
    """The renders and HR references under one render key, and the last
    static stream's key and its encoded frames ``0..n-1``."""

    def __init__(self) -> None:
        self.render_key: Optional[tuple] = None
        #: Read-only renders and HR reference colors, by frame index.
        self.renders: Dict[int, RenderOutput] = {}
        self.hr: Dict[int, np.ndarray] = {}
        #: Bytes held in ``renders`` and ``hr`` together.
        self.render_bytes = 0
        self.key: Optional[tuple] = None
        self.frames: List[_MemoFrame] = []

    def claim_renders(self, render_key: tuple) -> None:
        """Frame 0 of ``render_key``: drop another key's renders."""
        if render_key != self.render_key:
            self.render_key, self.renders, self.hr = render_key, {}, {}
            self.render_bytes = 0

    def take(self, render_key: Optional[tuple], held: dict, index: int) -> Any:
        """Frame ``index`` of ``held`` (``renders`` or ``hr``) if the slot
        holds ``render_key``'s, else None."""
        if render_key is None or render_key != self.render_key:
            return None
        return held.get(index)

    def keep(
        self, render_key: Optional[tuple], held: dict, index: int, value: Any,
        *arrays: np.ndarray,
    ) -> None:
        """Keep ``value`` as frame ``index`` of ``held``, its ``arrays``
        made read-only in place, if the slot holds ``render_key``, lacks
        that frame and the byte cap allows."""
        nbytes = sum(a.nbytes for a in arrays)
        if (
            render_key is None
            or render_key != self.render_key
            or index in held
            or self.render_bytes + nbytes > MEMO_MAX_RENDER_BYTES
        ):
            return
        for array in arrays:
            array.flags.writeable = False
        self.render_bytes += nbytes
        held[index] = value

    def lookup(self, key: tuple, index: int) -> Optional[_MemoFrame]:
        if index < len(self.frames) and self.key == key:
            return self.frames[index]
        return None

    def record(self, key: tuple, index: int, frame: _MemoFrame) -> None:
        if index == 0:
            self.key, self.frames = key, []
        if index == len(self.frames) < MEMO_MAX_FRAMES and self.key == key:
            self.frames.append(frame)


_SLOT = _StreamSlot()


class GameStreamServer:
    """Stateful per-session server for one game workload."""

    def __init__(
        self,
        game: GameWorkload,
        geometry: StreamGeometry,
        roi_side: Optional[int],
        gop_size: int = 60,
        quality: int = 60,
        fps: float = 60.0,
        roi_config: RoIConfig = DEFAULT_ROI_CONFIG,
    ) -> None:
        """``roi_side`` is the client's negotiated window on the *eval*
        geometry; pass None to disable RoI detection (SOTA mode). Pass
        ``roi_config`` with ``warm_start=True`` to enable the detector's
        temporal warm start; each ``roi_detect`` span then records which
        path ran (``search_mode``) and the winning window sum
        (``score``)."""
        self.game = game
        self.geometry = geometry
        self.fps = fps
        self.roi_config = roi_config
        self.encoder = VideoEncoder(gop_size=gop_size, quality=quality)
        self.detector = (
            RoIDetector(roi_side, roi_config) if roi_side is not None else None
        )
        self._index = 0
        self._hr_cache: tuple[int, RenderOutput] | None = None
        #: The render key of the last frame produced; None before frame 0
        #: or when the game bypasses the memo.
        self._render_key: Optional[tuple] = None
        #: The frame-0 stream key while this server still streams it;
        #: None once it bypasses or has left the memo.
        self._memo_key: Optional[tuple] = None

    @property
    def gop_size(self) -> int:
        return self.encoder.gop_size

    @property
    def roi_side(self) -> Optional[int]:
        """The detection window side on the eval geometry (None = SOTA mode)."""
        return self.detector.window_side if self.detector is not None else None

    def set_roi_side(self, side: int) -> None:
        """Re-negotiate the RoI window side mid-session.

        This is the policy hook an :class:`~repro.streaming.adaptive.
        AdaptiveRoIController` drives from measured upscale spans; the
        paper's static sizing never calls it.
        """
        if self.detector is None:
            raise ValueError("cannot resize the RoI window: detection is disabled")
        if side < 2:
            raise ValueError(f"RoI side must be >= 2, got {side}")
        if side != self.detector.window_side:
            self.detector = RoIDetector(side, self.roi_config)

    def _render_hr(self, index: int) -> RenderOutput:
        if self._hr_cache is not None and self._hr_cache[0] == index:
            return self._hr_cache[1]
        g = self.geometry
        rendered = self.game.render_frame(
            index, g.eval_lr_width * g.scale, g.eval_lr_height * g.scale, self.fps
        )
        self._hr_cache = (index, rendered)
        return rendered

    def render_lr(self, index: int) -> RenderOutput:
        """Produce the LR frame + depth buffer for frame ``index``.

        With ``lr_source="downsample"`` (default) the server renders at HR
        and area-averages color and depth down — the anti-aliased stream a
        real game (MSAA/TAA) would encode. ``"native"`` renders directly
        at LR (aliased).
        """
        g = self.geometry
        if g.lr_source == "native":
            return self.game.render_frame(index, g.eval_lr_width, g.eval_lr_height, self.fps)
        hr = self._render_hr(index)
        s = g.scale
        h, w = g.eval_lr_height, g.eval_lr_width
        color = hr.color[: h * s, : w * s].reshape(h, s, w, s, 3).mean(axis=(1, 3))
        depth = hr.depth[: h * s, : w * s].reshape(h, s, w, s).mean(axis=(1, 3))
        return RenderOutput(color=color, depth=depth)

    def render_hr_reference(self, index: int) -> np.ndarray:
        """Native HR render of frame ``index`` (the quality ground truth).

        The slot's read-only reference when it holds one under this
        server's render key; otherwise a live render, which the slot keeps
        (read-only) if it can (see the module docstring).
        """
        color = _SLOT.take(self._render_key, _SLOT.hr, index)
        if color is None:
            color = self._render_hr(index).color
            _SLOT.keep(self._render_key, _SLOT.hr, index, color, color)
        return color

    def next_frame(self) -> ServerFrame:
        """Advance one frame through the staged server pipeline.

        Every stage records a span into the frame's trace. The frame
        comes from the server-stream memo when it holds it (see the
        module docstring), byte-identical to producing it.
        """
        index = self._index
        self._index += 1
        key = self._memo_key_for(index)
        if key is not None:
            memo = _SLOT.lookup(key, index)
            if memo is not None:
                self.encoder.restore(memo.encoder_state)
                return self._replay(index, memo)
        frame = self._produce(index)
        if key is not None:
            _SLOT.record(
                key,
                index,
                _MemoFrame(
                    encoded=frame.encoded,
                    roi=frame.roi,
                    modeled_size_bytes=frame.modeled_size_bytes,
                    spans=tuple(_replayable_span(s) for s in frame.trace.spans),
                    encoder_state=self.encoder.state(),
                ),
            )
        return frame

    def _memo_key_for(self, index: int) -> Optional[tuple]:
        """This server's stream key for frame ``index`` (None: encode
        live); also sets its render key, which frame 0 claims."""
        self._render_key, stream_key = _memo_keys(self)
        if index == 0:
            self._memo_key = stream_key
            if self._render_key is not None:
                _SLOT.claim_renders(self._render_key)
        elif stream_key != self._memo_key:
            self._memo_key = None
        if self.encoder.state().frame_index != index:
            self._memo_key = None
        return self._memo_key

    def _replay(self, index: int, memo: _MemoFrame) -> ServerFrame:
        trace = FrameTrace(
            index=index,
            frame_type=memo.encoded.frame_type,
            spans=[_replayable_span(s) for s in memo.spans],
        )
        return ServerFrame(
            index=index,
            encoded=memo.encoded,
            roi=memo.roi,
            geometry=self.geometry,
            modeled_size_bytes=memo.modeled_size_bytes,
            trace=trace,
        )

    def _render_lr_shared(self, index: int) -> RenderOutput:
        """:meth:`render_lr` from the slot when it holds the frame under
        this server's render key; otherwise live, offered to the slot."""
        rendered = _SLOT.take(self._render_key, _SLOT.renders, index)
        if rendered is None:
            rendered = self.render_lr(index)
            _SLOT.keep(
                self._render_key, _SLOT.renders, index, rendered,
                rendered.color, rendered.depth,
            )
        return rendered

    def _produce(self, index: int) -> ServerFrame:
        """Detect, encode and price frame ``index`` live over its render."""
        trace = FrameTrace(index=index)

        with trace.stage("input") as st:
            st.modeled_ms = lat.server_input_ms()
        with trace.stage("game_logic") as st:
            st.modeled_ms = lat.server_game_logic_ms()

        with trace.stage("render") as st:
            rendered = self._render_lr_shared(index)
            st.modeled_ms = lat.server_render_ms(self.geometry.modeled_lr_pixels)
            st.meta(lr_source=self.geometry.lr_source)

        with trace.stage("roi_detect") as st:
            roi = None
            if self.detector is not None:
                detection = self.detector.detect(rendered.depth)
                roi = detection.box
                st.modeled_ms = lat.server_roi_detect_ms()
                st.meta(
                    x=roi.x,
                    y=roi.y,
                    width=roi.width,
                    height=roi.height,
                    search_mode=detection.search_mode,
                    score=round(detection.score, 3),
                )
            else:
                st.meta(enabled=False)

        with trace.stage("encode") as st:
            encoded = self.encoder.encode_frame(rendered.color)
            st.modeled_ms = lat.server_encode_ms(self.geometry.modeled_lr_pixels)
            st.meta(frame_type=encoded.frame_type, payload_bytes=encoded.size_bytes)

        modeled_bytes = int(round(encoded.size_bytes * self.geometry.byte_scale))
        if roi is not None:
            modeled_bytes += ROI_METADATA_BYTES

        with trace.stage("network") as st:
            # Flat bandwidth-model downlink; the server owns the full
            # propagation + serialization time (see pipeline.py). A lossy
            # NetworkLink transport, when injected, amends this span.
            split = split_transmission(modeled_bytes)
            st.modeled_ms = split.total_ms
            st.meta(
                modeled_bytes=modeled_bytes,
                propagation_ms=split.propagation_ms,
                serialization_ms=split.serialization_ms,
            )

        trace.frame_type = encoded.frame_type
        return ServerFrame(
            index=index,
            encoded=encoded,
            roi=roi,
            geometry=self.geometry,
            modeled_size_bytes=modeled_bytes,
            trace=trace,
        )
