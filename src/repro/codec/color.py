"""RGB <-> YCbCr conversion and 4:2:0 chroma resampling (BT.601 full range)."""

from __future__ import annotations

import numpy as np

from ..sr.interpolate import bilinear

__all__ = ["rgb_to_ycbcr", "ycbcr_to_rgb", "subsample_chroma", "upsample_chroma"]

_FORWARD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_INVERSE = np.linalg.inv(_FORWARD)


def rgb_to_ycbcr(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, W, 3) RGB in [0, 1] -> (Y, Cb, Cr) planes, Y in [0,1], C in [-.5,.5]."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) RGB, got {rgb.shape}")
    ycc = rgb @ _FORWARD.T
    return ycc[..., 0], ycc[..., 1], ycc[..., 2]


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr`, clipped to [0, 1]."""
    ycc = np.stack([y, cb, cr], axis=-1)
    return np.clip(ycc @ _INVERSE.T, 0.0, 1.0)


def subsample_chroma(plane: np.ndarray) -> np.ndarray:
    """2x2 average-pool (4:2:0 subsampling); odd dims are edge-padded."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    if h % 2 or w % 2:
        plane = np.pad(plane, ((0, h % 2), (0, w % 2)), mode="edge")
        h, w = plane.shape
    return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def upsample_chroma(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear chroma upsampling back to luma resolution."""
    return bilinear(plane, out_h, out_w)
