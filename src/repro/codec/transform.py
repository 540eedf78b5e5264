"""DCT transform and quantization for 8x8 (or n x n) residual blocks.

Quantization uses a JPEG-style frequency-weighted step matrix scaled by a
quality parameter in [1, 100] — coarse at low quality, near-lossless at
high quality — which gives the encoder a realistic rate/distortion knob.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

__all__ = [
    "forward_dct",
    "inverse_dct",
    "quantize",
    "dequantize",
    "quant_matrix",
    "DEFAULT_BLOCK",
]

DEFAULT_BLOCK = 8

# JPEG Annex K luminance table (the de-facto base for frequency weighting).
_JPEG_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


@lru_cache(maxsize=None)
def quant_matrix(quality: int, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """Frequency-weighted quantization steps for ``quality`` in [1, 100]."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    if block == 8:
        base = _JPEG_LUMA
    else:
        # Resample the 8x8 table to the requested block size.
        ys = np.linspace(0, 7, block)
        xs = np.linspace(0, 7, block)
        yi = np.clip(ys.astype(np.int64), 0, 6)
        xi = np.clip(xs.astype(np.int64), 0, 6)
        fy = (ys - yi)[:, None]
        fx = (xs - xi)[None, :]
        base = (
            _JPEG_LUMA[np.ix_(yi, xi)] * (1 - fy) * (1 - fx)
            + _JPEG_LUMA[np.ix_(yi + 1, xi)] * fy * (1 - fx)
            + _JPEG_LUMA[np.ix_(yi, xi + 1)] * (1 - fy) * fx
            + _JPEG_LUMA[np.ix_(yi + 1, xi + 1)] * fy * fx
        )
    steps = np.floor((base * scale + 50.0) / 100.0)
    steps = np.clip(steps, 1.0, 255.0)
    steps.setflags(write=False)
    return steps


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the last two axes of (N, n, n)."""
    return dctn(blocks, axes=(-2, -1), norm="ortho")


def inverse_dct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct`."""
    return idctn(coeffs, axes=(-2, -1), norm="ortho")


def quantize(coeffs: np.ndarray, quality: int) -> np.ndarray:
    """Round DCT coefficients to integer steps (pixel domain scaled 0-255)."""
    steps = quant_matrix(quality, coeffs.shape[-1])
    return np.round(coeffs / steps).astype(np.int64)


def dequantize(levels: np.ndarray, quality: int) -> np.ndarray:
    """Reconstruct coefficients from quantized integer levels."""
    steps = quant_matrix(quality, levels.shape[-1])
    return levels.astype(np.float64) * steps
