"""Perceptual image distance — an LPIPS surrogate (paper Fig. 14b).

The paper reports LPIPS (Zhang et al. 2018): deep features are extracted at
several layers, unit-normalized along the channel axis, differenced, and
spatially averaged. Real LPIPS needs pretrained AlexNet/VGG weights, which
are unavailable offline, so this module implements the *same recipe* over a
deterministic handcrafted backbone:

* a fixed bank of oriented Gabor/derivative/center-surround filters
  (biologically-motivated V1-style features) applied at three dyadic scales
  of a luma+opponent-color decomposition, as batched float64 correlations
  over both images' channel planes (``dgemm`` calls through
  :func:`repro.neural.functional.conv2d_forward`);
* per-location unit normalization of the feature vector (the LPIPS trick
  that makes the metric sensitive to structure rather than contrast);
* mean squared feature difference, averaged over locations and scales.

Each scale is scored in row bands: a band's features are correlated,
normalized and differenced into its rows of an (H, W) distance map, so
the (6, K, H, W) feature maps never exist whole (one 448x256 call peaks
at ~14 MiB instead of ~69 MiB). A band is a whole number of the conv's
own row chunks (:func:`repro.neural.functional.chunk_rows`), so every
``dgemm`` has the N, and so the rounding, of one whole-image call:
the value is bit-identical to scoring the whole map at once.

The kernel stays float64 on purpose: the bank is zero-mean, so on a flat
patch the responses are ~1e-17 in float64 but ~1e-8 of rounding noise in
float32, and the 1e-8 unit-normalization epsilon turns that noise into
O(1) feature vectors (LPIPS moves by 1e-2..1e-1 on game frames).

The returned distance lives in [0, ~1] with 0 = identical, exactly like
LPIPS, and preserves the property the paper's evaluation relies on:
detail loss from repeated bilinear interpolation scores visibly worse
(higher) than DNN-restored detail. The substitution is documented in
DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from ..neural.functional import chunk_rows, conv2d_forward

__all__ = ["lpips", "PERCEPTIBLE_LPIPS_DIFFERENCE"]

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
    """2x2 average-pool downsample of a (C, H, W) stack.

    Each block sums as (top-left + top-right) + (bottom-left +
    bottom-right), then divides by 4: bit for bit what
    ``mean(axis=(2, 4))`` of the (C, H/2, 2, W/2, 2) block view gives,
    in three strided adds instead of a reduction whose inner loop is two
    elements long (~5x faster at 256x448).
    """
    c, h, w = image.shape
    trimmed = image[:, : h - h % 2, : w - w % 2]
    out = trimmed[:, 0::2, 0::2] + trimmed[:, 0::2, 1::2]
    out += trimmed[:, 1::2, 0::2] + trimmed[:, 1::2, 1::2]
    out /= 4
    return out


def _squared_distance_map(planes: np.ndarray) -> np.ndarray:
    """Per-location squared distance of the two images' unit features.

    ``planes`` is the (6, H, W) stack of both images' opponent channels
    (reference first); the result is the (H, W) map whose mean is this
    scale's LPIPS term, built in row bands of whole conv chunks (see the
    module docstring).
    """
    n, h, w = planes.shape
    pad = _FILTER_SIZE // 2
    # Edge padding is what scipy.ndimage calls mode="nearest".
    padded = np.pad(planes, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    itemsize = padded.dtype.itemsize
    rows = chunk_rows(n * _WEIGHT[0].size * w * itemsize)
    band = chunk_rows(n * len(_WEIGHT) * w * itemsize, multiple=rows)
    d2 = np.empty((h, w))
    for y0 in range(0, h, band):
        y1 = min(h, y0 + band)
        maps = conv2d_forward(padded[:, None, y0 : y1 + 2 * pad], _WEIGHT, None, 1, 0)
        feats = maps.reshape(2, -1, y1 - y0, w)
        norms = np.sqrt(np.einsum("nkhw,nkhw->nhw", feats, feats))[:, None]
        norms += 1e-8
        feats /= norms
        fa, fb = feats
        fa -= fb
        np.einsum("khw,khw->hw", fa, fa, out=d2[y0:y1])
    return d2


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
    planes = np.concatenate([_opponent_channels(reference), _opponent_channels(test)])
    total = 0.0
    for scale in range(_N_SCALES):
        if scale:
            planes = _downsample2(planes)
        total += float(_squared_distance_map(planes).mean())
    return total / _N_SCALES
