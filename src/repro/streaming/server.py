"""Game-streaming server: render -> RoI detect -> encode -> transmit.

Implements the server half of Fig. 6: each call to
:meth:`GameStreamServer.next_frame` advances the game world, renders the
LR frame + depth buffer, runs the depth-guided RoI detection (when
enabled), encodes the frame, and returns the :class:`ServerFrame` that
would travel to the client. Server stage latencies come from the
calibrated platform model (a desktop-class server, Sec. V-A).

Each stage records a span into the frame's
:class:`~repro.streaming.pipeline.FrameTrace`; ``server_timings_ms`` is
the materialized MTP view of that trace. The ``network`` span carries the
*flat* bandwidth-model downlink by default — :func:`run_session` amends
it in place when a lossy :class:`~repro.network.NetworkLink` transport is
injected.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..codec.encoder import VideoEncoder
from ..core.config import DEFAULT_ROI_CONFIG, RoIConfig
from ..core.detector import RoIDetector
from ..platform import latency as lat
from ..render.games import GameWorkload
from ..render.rasterizer import RenderOutput
from .frames import ROI_METADATA_BYTES, ServerFrame, StreamGeometry
from .pipeline import SERVER_STAGES, FrameTrace, split_transmission

__all__ = ["GameStreamServer"]


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
        motion_method: str = "full",
    ) -> None:
        """``roi_side`` is the client's negotiated window on the *eval*
        geometry; pass None to disable RoI detection (SOTA mode).
        ``motion_method`` selects the encoder's block-matching search
        (``"full"`` exact search by default; ``"diamond"`` for the fast
        approximate mode). Pass ``roi_config`` with ``warm_start=True``
        to enable the detector's temporal warm start; each ``roi_detect``
        span then records which path ran (``search_mode``) and the
        winning window sum (``score``)."""
        self.game = game
        self.geometry = geometry
        self.fps = fps
        self.roi_config = roi_config
        self.encoder = VideoEncoder(
            gop_size=gop_size, quality=quality, motion_method=motion_method
        )
        self.detector = (
            RoIDetector(roi_side, roi_config) if roi_side is not None else None
        )
        self._index = 0
        self._hr_cache: tuple[int, RenderOutput] | None = None

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
        """Native HR render of frame ``index`` (the quality ground truth)."""
        return self._render_hr(index).color

    def next_frame(self) -> ServerFrame:
        """Advance one frame through the staged server pipeline.

        Every stage records a span into the frame's trace; the returned
        ``server_timings_ms`` dict is the trace's MTP view and therefore
        numerically identical to the pre-refactor hand-assembled dict.
        """
        index = self._index
        self._index += 1
        trace = FrameTrace(index=index)

        with trace.stage("input") as st:
            st.modeled_ms = lat.server_input_ms()
        with trace.stage("game_logic") as st:
            st.modeled_ms = lat.server_game_logic_ms()

        with trace.stage("render") as st:
            rendered = self.render_lr(index)
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
            server_timings_ms=trace.timings_ms(SERVER_STAGES),
            modeled_size_bytes=modeled_bytes,
            trace=trace,
        )
