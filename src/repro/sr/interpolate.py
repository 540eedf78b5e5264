"""Classical (non-neural) image upscaling filters.

These implement the traditional interpolation the paper contrasts with
DNN-based super resolution (Sec. II-A): bilinear (``GL_LINEAR``, the filter
GameStreamSR runs on the mobile GPU for non-RoI pixels) and bicubic
(Catmull-Rom / Keys a=-0.5).

All functions accept float images shaped ``(H, W)`` or ``(H, W, C)`` and
return the same dtype family (float64 in, float64 out). Coordinates follow
the standard "align corners = False" convention used by OpenGL texture
sampling and video codecs: output pixel centre ``(i + 0.5) / scale - 0.5``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..contracts import shaped

__all__ = [
    "bilinear",
    "bicubic",
]


def _check_image(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError(
            f"expected (H, W) or (H, W, C) image, got shape {image.shape}"
        )
    if image.shape[0] < 1 or image.shape[1] < 1:
        raise ValueError(f"image has empty spatial dims: {image.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"target size must be positive, got ({out_h}, {out_w})")
    return image


def _source_coords(out_size: int, in_size: int) -> np.ndarray:
    """Map output pixel centres into input coordinate space."""
    scale = in_size / out_size
    return (np.arange(out_size, dtype=np.float64) + 0.5) * scale - 0.5


@shaped(image="H W:n|H W C:n")
def bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling (the paper's GPU ``GL_LINEAR`` path).

    Separable: the input's columns are interpolated once into an
    ``in_h x out_w`` array, whose ``y0``/``y1`` rows are then blended.
    Each output element gets the same float operations as the direct
    four-tap form ``(a(1-wx) + b wx)(1-wy) + (c(1-wx) + d wx) wy``.
    """
    image = _check_image(image, out_h, out_w)
    in_h, in_w = image.shape[:2]

    ys = _source_coords(out_h, in_h)
    xs = _source_coords(out_w, in_w)

    y0 = np.clip(np.floor(ys), 0, in_h - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, in_w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)

    # Weights broadcast over any trailing channel axis.
    channel = (1,) * (image.ndim - 2)
    wy = np.clip(ys - y0, 0.0, 1.0).reshape(-1, 1, *channel)
    wx = np.clip(xs - x0, 0.0, 1.0).reshape(-1, *channel)

    rows = np.take(image, x0, axis=1)
    rows *= 1 - wx
    right = np.take(image, x1, axis=1)
    right *= wx
    rows += right
    out = np.take(rows, y0, axis=0)
    out *= 1 - wy
    below = np.take(rows, y1, axis=0)
    below *= wy
    out += below
    return out


def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic convolution kernel (a = -0.5 -> Catmull-Rom)."""
    x = np.abs(x)
    x2 = x * x
    x3 = x2 * x
    out = np.zeros_like(x)
    inner = x <= 1.0
    outer = (x > 1.0) & (x < 2.0)
    out[inner] = (a + 2) * x3[inner] - (a + 3) * x2[inner] + 1
    out[outer] = a * x3[outer] - 5 * a * x2[outer] + 8 * a * x[outer] - 4 * a
    return out


def _separable_resample(
    image: np.ndarray,
    out_h: int,
    out_w: int,
    kernel: Callable[[np.ndarray], np.ndarray],
    support: int,
) -> np.ndarray:
    """Apply a separable FIR resampling kernel along both axes."""

    def _axis_weights(out_size: int, in_size: int) -> tuple[np.ndarray, np.ndarray]:
        coords = _source_coords(out_size, in_size)
        base = np.floor(coords).astype(np.intp)
        offsets = np.arange(-support + 1, support + 1, dtype=np.int64)
        idx = base[:, None] + offsets[None, :]
        w = kernel(coords[:, None] - idx)
        norm = w.sum(axis=1, keepdims=True)
        # Guard against degenerate all-zero rows (cannot happen for the
        # kernels above, but keeps the function total).
        norm[norm == 0] = 1.0
        w = w / norm
        idx = np.clip(idx, 0, in_size - 1)
        return idx, w

    image = _check_image(image, out_h, out_w)
    in_h, in_w = image.shape[:2]

    yi, yw = _axis_weights(out_h, in_h)
    xi, xw = _axis_weights(out_w, in_w)

    # Resample rows: (out_h, taps, W[, C]) * (out_h, taps, 1[, 1])
    gathered = image[yi]  # (out_h, taps, in_w[, C])
    wy = yw[:, :, None, None] if image.ndim == 3 else yw[:, :, None]
    rows = (gathered * wy).sum(axis=1)  # (out_h, in_w[, C])

    gathered = rows[:, xi]  # (out_h, out_w, taps[, C])
    wx = xw[None, :, :, None] if image.ndim == 3 else xw[None, :, :]
    return (gathered * wx).sum(axis=2)


def bicubic(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bicubic (Catmull-Rom) resampling."""
    return _separable_resample(image, out_h, out_w, _cubic_kernel, support=2)
