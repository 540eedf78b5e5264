"""Frozen LPIPS surrogates, for equivalence tests.

``lpips`` is a verbatim copy of ``repro.metrics.lpips`` before the
batched float64 conv replaced its 180 scalar ``scipy.ndimage.convolve``
calls per image pair. ``test_lpips_equivalence.py`` and
``benchmarks/bench_hotpath.py`` score the same image pairs through both
and require agreement to 1e-9.

``batched_lpips`` (with ``_unit_features``) is a verbatim copy of that
batched float64 kernel before it was cut into row bands: it builds both
images' full (6, 10, H, W) feature maps per scale in one call of
``_conv2d_forward``, a copy of ``repro.neural.functional.conv2d_forward``
from the same time, whose chunks copy each GEMM's fresh result into the
output. The copy reads the production ``_CONV_CHUNK_BYTES`` at call
time, so a test that changes the budget changes it for both kernels.
The banded kernel must equal ``batched_lpips`` exactly.

Do NOT "modernize" this file: its whole value is that it does not change
with the production code.

Original module docstring follows.

Perceptual image distance — an LPIPS surrogate (paper Fig. 14b).

The paper reports LPIPS (Zhang et al. 2018): deep features are extracted at
several layers, unit-normalized along the channel axis, differenced, and
spatially averaged. Real LPIPS needs pretrained AlexNet/VGG weights, which
are unavailable offline, so this module implements the *same recipe* over a
deterministic handcrafted backbone:

* a fixed bank of oriented Gabor/derivative/center-surround filters
  (biologically-motivated V1-style features) applied at three dyadic scales
  of a luma+opponent-color decomposition;
* per-location unit normalization of the feature vector (the LPIPS trick
  that makes the metric sensitive to structure rather than contrast);
* mean squared feature difference, averaged over locations and scales.

The returned distance lives in [0, ~1] with 0 = identical, exactly like
LPIPS, and preserves the property the paper's evaluation relies on:
detail loss from repeated bilinear interpolation scores visibly worse
(higher) than DNN-restored detail. The substitution is documented in
DESIGN.md.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import convolve

from repro.neural import functional as _functional
from repro.neural.functional import _patch_view

__all__ = ["lpips", "batched_lpips", "PERCEPTIBLE_LPIPS_DIFFERENCE", "feature_stack"]

#: LPIPS difference the paper cites (Hou et al. 2022) as visibly discernible.
PERCEPTIBLE_LPIPS_DIFFERENCE = 0.15

_FILTER_SIZE = 7
_N_SCALES = 3


def _gabor(size: int, theta: float, wavelength: float, sigma: float) -> np.ndarray:
    half = size // 2
    ys, xs = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    xr = xs * np.cos(theta) + ys * np.sin(theta)
    yr = -xs * np.sin(theta) + ys * np.cos(theta)
    envelope = np.exp(-(xr**2 + yr**2) / (2 * sigma**2))
    carrier = np.cos(2 * np.pi * xr / wavelength)
    kernel = envelope * carrier
    return kernel - kernel.mean()


def _dog(size: int, sigma1: float, sigma2: float) -> np.ndarray:
    half = size // 2
    ys, xs = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    r2 = xs**2 + ys**2
    g1 = np.exp(-r2 / (2 * sigma1**2)) / sigma1**2
    g2 = np.exp(-r2 / (2 * sigma2**2)) / sigma2**2
    kernel = g1 - g2
    return kernel - kernel.mean()


def _build_filter_bank() -> np.ndarray:
    """Fixed (K, F, F) filter bank: 8 oriented Gabors + 2 center-surround."""
    filters = []
    for theta in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4):
        for wavelength in (3.0, 6.0):
            filters.append(_gabor(_FILTER_SIZE, theta, wavelength, sigma=2.0))
    filters.append(_dog(_FILTER_SIZE, 1.0, 2.0))
    filters.append(_dog(_FILTER_SIZE, 1.5, 3.0))
    bank = np.stack(filters)
    # L2-normalize each filter so channels contribute comparably.
    norms = np.sqrt((bank**2).sum(axis=(1, 2), keepdims=True))
    return bank / norms


_BANK = _build_filter_bank()
#: The bank as a (K, 1, F, F) correlation weight. Convolution flips the
#: kernel, so correlating with the flipped bank convolves with the bank.
_WEIGHT = np.ascontiguousarray(_BANK[:, None, ::-1, ::-1])


def _opponent_channels(image: np.ndarray) -> np.ndarray:
    """Decompose into luma + two opponent-color channels, shape (3, H, W)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 2:
        zeros = np.zeros_like(image)
        return np.stack([image, zeros, zeros])
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got {image.shape}")
    r, g, b = image[..., 0], image[..., 1], image[..., 2]
    luma = 0.299 * r + 0.587 * g + 0.114 * b
    rg = (r - g) / 2.0
    by = (b - (r + g) / 2.0) / 2.0
    return np.stack([luma, rg, by])


def _downsample2(image: np.ndarray) -> np.ndarray:
    """2x2 average-pool downsample of a (C, H, W) stack."""
    c, h, w = image.shape
    h2, w2 = h - h % 2, w - w % 2
    trimmed = image[:, :h2, :w2]
    return trimmed.reshape(c, h2 // 2, 2, w2 // 2, 2).mean(axis=(2, 4))


def feature_stack(image: np.ndarray, scale: int) -> np.ndarray:
    """Extract the (K*, H', W') normalized feature stack at one dyadic scale."""
    channels = _opponent_channels(image)
    for _ in range(scale):
        channels = _downsample2(channels)
    maps = [
        convolve(chan, kernel, mode="nearest")
        for chan in channels
        for kernel in _BANK
    ]
    feats = np.stack(maps)  # (3*K, H', W')
    norms = np.sqrt((feats**2).sum(axis=0, keepdims=True)) + 1e-8
    return feats / norms


def lpips(reference: np.ndarray, test: np.ndarray) -> float:
    """Perceptual distance in [0, ~1]; lower means more similar.

    Both images must share a shape and lie (approximately) in [0, 1].
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if min(reference.shape[:2]) < _FILTER_SIZE * 2**_N_SCALES:
        raise ValueError(
            f"image {reference.shape[:2]} too small for {_N_SCALES}-scale "
            f"analysis with {_FILTER_SIZE}x{_FILTER_SIZE} filters"
        )
    total = 0.0
    for scale in range(_N_SCALES):
        fa = feature_stack(reference, scale)
        fb = feature_stack(test, scale)
        total += float(((fa - fb) ** 2).sum(axis=0).mean())
    return total / _N_SCALES


def _conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Graph-free conv2d forward on raw arrays (the inference hot path).

    Cache-blocked: the column buffer is built and consumed a few output
    rows at a time so it never round-trips through DRAM.
    """
    n, c = x.shape[0], x.shape[1]
    c_out, _, kh, kw = weight.shape
    patches = _patch_view(x, kh, kw, stride, padding)
    out_h, out_w = patches.shape[4:]
    w2 = weight.reshape(c_out, -1)
    if w2.dtype != x.dtype:
        w2 = w2.astype(x.dtype)  # float32 inference path
    out = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)

    k = c * kh * kw
    rows = max(1, _functional._CONV_CHUNK_BYTES // (n * k * out_w * x.dtype.itemsize))
    pointwise = kh == 1 and kw == 1 and stride == 1 and padding == 0
    if pointwise or rows >= out_h:
        # One GEMM; the reshape is the im2col copy (a view for a pointwise
        # conv on a contiguous input).
        np.matmul(w2, patches.reshape(n, k, -1), out=out.reshape(n, c_out, -1))
    else:
        buf = np.empty(n * k * rows * out_w, dtype=x.dtype)
        for oy0 in range(0, out_h, rows):
            oy1 = min(out_h, oy0 + rows)
            cols = buf[: n * k * (oy1 - oy0) * out_w].reshape(
                n, c, kh, kw, oy1 - oy0, out_w
            )
            np.copyto(cols, patches[:, :, :, :, oy0:oy1])
            out[:, :, oy0:oy1] = np.matmul(w2, cols.reshape(n, k, -1)).reshape(
                n, c_out, oy1 - oy0, out_w
            )

    if bias is not None:
        b = bias if bias.dtype == out.dtype else bias.astype(out.dtype)
        out += b.reshape(1, c_out, 1, 1)
    return out


def _unit_features(planes: np.ndarray) -> np.ndarray:
    """Both images' unit-normalized feature stacks at one scale.

    ``planes`` is the (6, H, W) stack of both images' opponent channels;
    the result is (2, 3*K, H, W), channel-major like the planes.
    """
    pad = _FILTER_SIZE // 2
    # Edge padding is what scipy.ndimage calls mode="nearest".
    padded = np.pad(planes, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    maps = _conv2d_forward(padded[:, None], _WEIGHT, None, 1, 0)  # (6, K, H, W)
    feats = maps.reshape(2, -1, *maps.shape[2:])
    norms = np.sqrt(np.einsum("nkhw,nkhw->nhw", feats, feats))[:, None]
    norms += 1e-8
    feats /= norms
    return feats


def batched_lpips(reference: np.ndarray, test: np.ndarray) -> float:
    """Perceptual distance in [0, ~1]; lower means more similar.

    Both images must share a shape and lie (approximately) in [0, 1].
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if min(reference.shape[:2]) < _FILTER_SIZE * 2**_N_SCALES:
        raise ValueError(
            f"image {reference.shape[:2]} too small for {_N_SCALES}-scale "
            f"analysis with {_FILTER_SIZE}x{_FILTER_SIZE} filters"
        )
    planes = np.concatenate([_opponent_channels(reference), _opponent_channels(test)])
    total = 0.0
    for scale in range(_N_SCALES):
        if scale:
            planes = _downsample2(planes)
        fa, fb = _unit_features(planes)
        fa -= fb
        total += float(np.einsum("khw,khw->hw", fa, fa).mean())
    return total / _N_SCALES
