"""NEMO-style non-reference frame reconstruction (Yeo et al. 2020).

The SOTA baseline upscales only reference frames with the DNN; every
non-reference frame is rebuilt at high resolution from (a) the cached
upscaled reference, (b) the codec's motion vectors scaled to HR, and
(c) the bilinearly upscaled decoded residual. This module holds the pure
reconstruction function shared by :class:`repro.streaming.NemoClient`
and the tests.
"""

from __future__ import annotations

import numpy as np

from ..codec.motion import compensate, upscale_motion_vectors
from ..sr.interpolate import bilinear

__all__ = ["reconstruct_nonreference"]


def reconstruct_nonreference(
    hr_reference: np.ndarray,
    motion_vectors: np.ndarray,
    residual_rgb: np.ndarray,
    scale: int,
    block: int,
) -> np.ndarray:
    """NEMO HR reconstruction: warp(HR ref, s*MV) + bilinear-up(residual).

    ``block`` is the codec's LR block size; the HR warp uses
    ``block * scale`` blocks with ``scale``-multiplied displacements.
    """
    hr_reference = np.asarray(hr_reference, dtype=np.float64)
    residual_rgb = np.asarray(residual_rgb, dtype=np.float64)
    if hr_reference.ndim != 3 or hr_reference.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) HR reference, got {hr_reference.shape}")
    h_hr, w_hr = hr_reference.shape[:2]
    if residual_rgb.shape[:2] != (h_hr // scale, w_hr // scale):
        raise ValueError(
            f"residual {residual_rgb.shape[:2]} does not match HR/scale "
            f"({h_hr // scale}, {w_hr // scale})"
        )
    mv_hr = upscale_motion_vectors(motion_vectors, scale)
    prediction = compensate(hr_reference, mv_hr, block * scale)
    residual_hr = bilinear(residual_rgb, h_hr, w_hr)
    return np.clip(prediction + residual_hr, 0.0, 1.0)
