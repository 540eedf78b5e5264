"""Client-side RoI-assisted hybrid upscaling (paper Phase-2, Fig. 9).

The RoI crop goes through the DNN SR model (on the NPU in the paper); the
rest of the frame is bilinearly upscaled (mobile GPU ``GL_LINEAR``); the
upscaled RoI is then merged into the HR framebuffer at its scaled
coordinates. Both the merged pixels and the stage-time bookkeeping needed
by the latency/energy models are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import shaped
from ..sr.interpolate import bilinear
from ..sr.runner import SRRunner
from .roi_search import RoIBox

__all__ = ["HybridUpscaleResult", "RoIAssistedUpscaler"]


@dataclass(frozen=True)
class HybridUpscaleResult:
    """Merged HR frame plus the pixel counts driving the platform model."""

    frame: np.ndarray  # (H*s, W*s, 3)
    roi_hr: RoIBox  # RoI location on the HR frame
    roi_pixels: int  # LR pixels sent to the DNN path
    non_roi_pixels: int  # LR pixels sent to the bilinear path
    output_pixels: int  # HR pixels written


class RoIAssistedUpscaler:
    """Hybrid DNN-RoI + bilinear-background upscaler."""

    def __init__(self, runner: SRRunner) -> None:
        self.runner = runner
        self.scale = runner.scale

    @shaped(lr_frame="H W 3:n")
    def upscale(self, lr_frame: np.ndarray, roi: RoIBox) -> HybridUpscaleResult:
        """Upscale ``lr_frame`` with DNN SR inside ``roi``, bilinear outside."""
        lr_frame = np.asarray(lr_frame, dtype=np.float64)
        if lr_frame.ndim != 3 or lr_frame.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) frame, got {lr_frame.shape}")
        height, width = lr_frame.shape[:2]
        if roi.x_end > width or roi.y_end > height:
            raise ValueError(
                f"RoI {roi} exceeds frame bounds {height}x{width}"
            )
        s = self.scale

        # Bilinear pass over the full frame models the GPU path: the GPU
        # upscales the non-RoI region; sampling the full grid and then
        # overwriting the RoI yields identical non-RoI pixels.
        hr = bilinear(lr_frame, height * s, width * s)

        roi_patch = roi.extract(lr_frame)
        roi_hr_patch = self.runner.upscale(roi_patch)
        roi_hr = roi.scaled(s)
        hr[roi_hr.y : roi_hr.y_end, roi_hr.x : roi_hr.x_end] = roi_hr_patch

        return HybridUpscaleResult(
            frame=hr,
            roi_hr=roi_hr,
            roi_pixels=roi.area,
            non_roi_pixels=height * width - roi.area,
            output_pixels=height * width * s * s,
        )
