"""Frame-level datatypes flowing through the streaming pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..codec.encoder import EncodedFrame
from ..core.roi_search import RoIBox
from .pipeline import FrameTrace

__all__ = [
    "StreamGeometry",
    "ServerFrame",
    "ClientFrameResult",
    "ROI_METADATA_BYTES",
    "BYTE_SCALE_EXPONENT",
]

#: Bytes added per frame to carry the RoI coordinates (x, y, w, h as u32).
ROI_METADATA_BYTES = 16

#: Rate-vs-resolution exponent for extrapolating compressed frame sizes.
BYTE_SCALE_EXPONENT = 0.75


@dataclass(frozen=True)
class StreamGeometry:
    """Evaluation-scale vs modeled-scale resolutions.

    Quality experiments run real pixels at a reduced ``eval`` geometry
    (pure-numpy inference cost); the latency/energy models are evaluated
    at the paper's ``modeled`` geometry (720p -> 1440p). Byte counts
    measured at eval scale are extrapolated by the area ratio.
    """

    eval_lr_height: int = 128
    eval_lr_width: int = 224
    modeled_lr_height: int = 720
    modeled_lr_width: int = 1280
    scale: int = 2
    #: How the server produces the LR stream: ``"downsample"`` renders at
    #: HR and area-downsamples (anti-aliased, like a game with MSAA/TAA —
    #: and the HR render doubles as the quality ground truth);
    #: ``"native"`` renders directly at LR (aliased point sampling).
    lr_source: str = "downsample"

    def __post_init__(self) -> None:
        for name in ("eval_lr_height", "eval_lr_width", "modeled_lr_height", "modeled_lr_width"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.lr_source not in ("downsample", "native"):
            raise ValueError(
                f"lr_source must be 'downsample' or 'native', got {self.lr_source!r}"
            )

    @property
    def eval_lr_pixels(self) -> int:
        return self.eval_lr_height * self.eval_lr_width

    @property
    def modeled_lr_pixels(self) -> int:
        return self.modeled_lr_height * self.modeled_lr_width

    @property
    def modeled_hr_pixels(self) -> int:
        return self.modeled_lr_pixels * self.scale**2

    @property
    def pixel_scale(self) -> float:
        """Linear area factor from eval geometry to modeled geometry."""
        return self.modeled_lr_pixels / self.eval_lr_pixels

    @property
    def byte_scale(self) -> float:
        """Extrapolation factor from eval-scale bytes to modeled-scale bytes.

        Compressed video bitrate grows sublinearly with pixel count
        (detail does not scale with resolution); the standard
        rate-vs-resolution exponent of ~0.75 is used here.
        """
        return self.pixel_scale**BYTE_SCALE_EXPONENT

    def modeled_roi_pixels(self, roi: Optional[RoIBox]) -> int:
        """RoI area extrapolated to the modeled LR geometry (linear)."""
        if roi is None:
            return 0
        return int(round(roi.area * self.pixel_scale))


@dataclass(frozen=True)
class ServerFrame:
    """What the server emits per frame: payload + RoI + stage timings."""

    index: int
    encoded: EncodedFrame
    roi: Optional[RoIBox]
    geometry: StreamGeometry
    #: Eval-scale encoded payload extrapolated to modeled-scale bytes.
    modeled_size_bytes: int
    #: Structured per-stage trace recorded by the server pipeline.
    trace: FrameTrace


@dataclass(frozen=True)
class ClientFrameResult:
    """What a client produces per frame: pixels + timings + energy inputs."""

    index: int
    frame_type: str
    hr_frame: np.ndarray
    #: Structured per-stage trace recorded by the client pipeline: stage
    #: latencies at modeled scale (``trace.timings_ms(CLIENT_STAGES)``)
    #: and energy attributions (``trace.energy_stages()``).
    trace: FrameTrace

    @property
    def upscale_ms(self) -> float:
        return self.trace.stage_ms("upscale")
