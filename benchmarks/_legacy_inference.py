"""Frozen pre-fast-path SR inference, for trajectory benchmarking.

This is a faithful numpy re-implementation of the repo's *original*
inference path (commit ``6873e62``), kept so ``bench_hotpath.py`` can keep
measuring the speedup of the current fast path against a fixed reference
as the codebase evolves:

- float64 activations end to end,
- explicit ``np.pad`` before every conv (a full extra copy of the
  activation, exactly what ``Tensor.pad2d`` materialized),
- the original two-pass im2col (strided window materialized, then copied
  into the column buffer),
- non-in-place bias add / ReLU / residual arithmetic,
- one forward per tile (the original ``upscale_tiled`` loop).

The file also freezes the per-tap fused pad+im2col ``conv2d_forward``
(``tap_loop_conv2d_forward`` at the bottom), the baseline of the bench's
``im2col`` row.

It intentionally does NOT track the live model code — do not "optimize"
this file. Autograd closure bookkeeping is omitted, which only makes the
baseline *faster* than the true original, so reported speedups are
conservative.
"""

from __future__ import annotations

import numpy as np


def _legacy_im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, out_h * out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = x[
                :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
            ]
            cols[:, :, i, j, :] = patch.reshape(n, c, out_h * out_w)
    return cols.reshape(n, c * kh * kw, out_h * out_w)


def _legacy_conv(x: np.ndarray, conv) -> np.ndarray:
    """Apply a ``repro.neural.layers.Conv2d``'s weights the original way."""
    pad = conv.padding
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, _, h, w = x.shape
    weight = np.asarray(conv.weight.data, dtype=np.float64)
    c_out, _, kh, kw = weight.shape
    out_h = (h - kh) // conv.stride + 1
    out_w = (w - kw) // conv.stride + 1
    cols = _legacy_im2col(x, kh, kw, conv.stride)
    out = np.matmul(weight.reshape(c_out, -1), cols).reshape(n, c_out, out_h, out_w)
    if conv.bias is not None:
        out = out + np.asarray(conv.bias.data, dtype=np.float64).reshape(1, c_out, 1, 1)
    return out


def _legacy_bilinear_skip(x: np.ndarray, factor: int) -> np.ndarray:
    from repro.sr.interpolate import bilinear

    n, c, h, w = x.shape
    out = np.empty((n, c, h * factor, w * factor), dtype=np.float64)
    for i in range(n):
        hwc = np.ascontiguousarray(x[i].transpose(1, 2, 0))
        out[i] = bilinear(hwc, h * factor, w * factor).transpose(2, 0, 1)
    return out


def legacy_edsr_forward(model, x: np.ndarray) -> np.ndarray:
    """Original float64 EDSR forward on an (N, C, H, W) array."""
    x = np.asarray(x, dtype=np.float64)
    feats = _legacy_conv(x, model.head)
    y = feats
    for block in model.body:
        z = _legacy_conv(y, block.conv1)
        z = np.maximum(z, 0.0)  # fresh array, like Tensor.relu()
        z = _legacy_conv(z, block.conv2)
        y = y + z * block.res_scale
    y = _legacy_conv(y, model.body_tail) + feats
    for stage in model.upsampler.stages:
        if hasattr(stage, "weight"):  # Conv2d
            y = _legacy_conv(y, stage)
        else:  # PixelShuffle
            r = stage.factor
            n, c, h, w = y.shape
            y = (
                y.reshape(n, c // (r * r), r, r, h, w)
                .transpose(0, 1, 4, 2, 5, 3)
                .reshape(n, c // (r * r), h * r, w * r)
            )
    y = _legacy_conv(y, model.tail)
    return y + _legacy_bilinear_skip(x, model.scale)


def legacy_upscale_tiled(
    model, image: np.ndarray, tile: int = 64, overlap: int = 8
) -> np.ndarray:
    """The original per-tile loop: one float64 forward per tile."""
    image = np.asarray(image, dtype=np.float64)
    h, w, c = image.shape
    s = model.scale
    out = np.zeros((h * s, w * s, c))

    step = tile - 2 * overlap
    y = 0
    while y < h:
        x = 0
        core_h = min(step, h - y)
        y0 = max(y - overlap, 0)
        y1 = min(y + core_h + overlap, h)
        while x < w:
            core_w = min(step, w - x)
            x0 = max(x - overlap, 0)
            x1 = min(x + core_w + overlap, w)
            batch = image[y0:y1, x0:x1].transpose(2, 0, 1)[None]
            tile_hr = legacy_edsr_forward(model, batch)[0].transpose(1, 2, 0)
            tile_hr = np.clip(tile_hr, 0.0, 1.0)
            cy = (y - y0) * s
            cx = (x - x0) * s
            out[y * s : (y + core_h) * s, x * s : (x + core_w) * s] = tile_hr[
                cy : cy + core_h * s, cx : cx + core_w * s
            ]
            x += step
        y += step
    return np.clip(out, 0.0, 1.0)


# --- Per-tap fused pad+im2col conv (frozen) --------------------------------
# ``repro.neural.functional.conv2d_forward`` as it stood before the
# strided-view im2col: zero-pad fused into one slice copy per kernel tap
# (``_fill_cols``), cache-blocked into ``_CONV_CHUNK_BYTES`` row chunks.
# Copied verbatim (only the entry point renamed) as the ``im2col`` row's
# baseline in ``bench_hotpath.py``.


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _fill_cols(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    oy0: int,
    oy1: int,
    buf: np.ndarray,
) -> None:
    """Fused zero-pad + im2col for output rows ``[oy0, oy1)``.

    Writes the columns for ``np.pad(x, pad)`` into ``buf`` (shaped
    (N, C, kh, kw, oy1-oy0, out_w)) without ever materializing the padded
    array: each kernel tap copies only the slice of ``x`` it can actually
    see and zero-fills the border strips of its destination directly.
    """
    n, c, h, w = x.shape
    ow = buf.shape[-1]
    for i in range(kh):
        # Output rows oy read input row (i - pad + oy*stride); keep the
        # range where that lands inside [0, h).
        y0 = max(oy0, _ceil_div(pad - i, stride))
        y1 = min(oy1 - 1, (h - 1 - i + pad) // stride)
        for j in range(kw):
            x0 = max(0, _ceil_div(pad - j, stride))
            x1 = min(ow - 1, (w - 1 - j + pad) // stride)
            dst = buf[:, :, i, j]
            if y0 > y1 or x0 > x1:
                dst[:] = 0
                continue
            d0, d1 = y0 - oy0, y1 - oy0
            if d0 > 0:
                dst[:, :, :d0] = 0
            if d1 < dst.shape[2] - 1:
                dst[:, :, d1 + 1 :] = 0
            if x0 > 0:
                dst[:, :, d0 : d1 + 1, :x0] = 0
            if x1 < ow - 1:
                dst[:, :, d0 : d1 + 1, x1 + 1 :] = 0
            r0 = i - pad + y0 * stride
            c0 = j - pad + x0 * stride
            dst[:, :, d0 : d1 + 1, x0 : x1 + 1] = x[
                :,
                :,
                r0 : r0 + (y1 - y0) * stride + 1 : stride,
                c0 : c0 + (x1 - x0) * stride + 1 : stride,
            ]


def _out_hw(shape, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    h, w = shape[2], shape[3]
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride {stride}) larger than input "
            f"({h}x{w}, padding {pad})"
        )
    return out_h, out_w


def _im2col_padded(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Fused zero-pad + im2col over the full output.

    Returns ``(cols, out_h, out_w)`` with ``cols`` shaped (N, C*kh*kw, L).
    """
    n, c, h, w = x.shape
    out_h, out_w = _out_hw(x.shape, kh, kw, stride, pad)
    if kh == 1 and kw == 1 and stride == 1 and pad == 0:
        return x.reshape(n, c, h * w), out_h, out_w  # view, no copy
    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    _fill_cols(x, kh, kw, stride, pad, 0, out_h, cols)
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


#: im2col working-set target per GEMM call on the inference path. Chunks
#: of the column buffer this size stay cache-resident between the tap
#: copies and the GEMM that consumes them, instead of round-tripping a
#: buffer that for a 3x3 conv on an HR frame is hundreds of MB through
#: DRAM. ~L2-sized is the measured sweet spot (5x on that HR conv; sizes
#: from 256 KiB to 4 MiB are all within ~15% of it).
_CONV_CHUNK_BYTES = 1 << 20


def tap_loop_conv2d_forward(
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
    out_h, out_w = _out_hw(x.shape, kh, kw, stride, padding)
    w2 = weight.reshape(c_out, -1)
    if w2.dtype != x.dtype:
        w2 = w2.astype(x.dtype)  # float32 inference path
    out = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
    out3 = out.reshape(n, c_out, out_h * out_w)

    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        np.matmul(w2, x.reshape(n, c, -1), out=out3)
    else:
        k = c * kh * kw
        rows = max(1, _CONV_CHUNK_BYTES // (n * k * out_w * x.dtype.itemsize))
        if rows >= out_h:
            cols, _, _ = _im2col_padded(x, kh, kw, stride, padding)
            np.matmul(w2, cols, out=out3)
        else:
            buf = np.empty((n, c, kh, kw, rows, out_w), dtype=x.dtype)
            for oy0 in range(0, out_h, rows):
                oy1 = min(out_h, oy0 + rows)
                chunk = buf if oy1 - oy0 == rows else buf[:, :, :, :, : oy1 - oy0]
                _fill_cols(x, kh, kw, stride, padding, oy0, oy1, chunk)
                out[:, :, oy0:oy1] = np.matmul(
                    w2, chunk.reshape(n, k, -1)
                ).reshape(n, c_out, oy1 - oy0, out_w)

    if bias is not None:
        b = bias if bias.dtype == out.dtype else bias.astype(out.dtype)
        out += b.reshape(1, c_out, 1, 1)
    return out
