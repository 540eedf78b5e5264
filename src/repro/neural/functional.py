"""Neural-network functional ops: convolution, pixel shuffle, pooling.

conv2d uses an im2col/col2im formulation so both forward and backward run
as large matmuls — the only way a pure-numpy CNN is fast enough to train
the SR models in-repo. All ops follow the input dtype: under
``no_grad()`` activations are float32 (see the dtype policy in
:mod:`repro.neural.tensor`) and the float64 weights are cast once per
call so the BLAS matmul runs entirely at reduced precision.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "conv2d",
    "conv2d_forward",
    "chunk_rows",
    "pixel_shuffle",
    "im2col",
    "col2im",
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


def _patch_view(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Read-only (N, C, kh, kw, out_h, out_w) strided view of every conv patch.

    Entry ``[n, c, i, j, oy, ox]`` is ``xp[n, c, oy*stride + i, ox*stride + j]``
    where ``xp`` is ``x`` zero-padded by ``pad`` on each spatial side (one
    ``np.zeros`` copy when ``pad > 0``, none otherwise). Copying a slice of
    this view into a contiguous buffer is the whole of im2col.
    """
    n, c, h, w = x.shape
    out_h, out_w = _out_hw(x.shape, kh, kw, stride, pad)
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        x = xp
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


#: im2col working-set target per GEMM call on the inference path. Chunks
#: of the column buffer this size stay cache-resident between the patch
#: copy and the GEMM that consumes it, instead of round-tripping a buffer
#: that for a 3x3 conv on an HR frame is hundreds of MB through DRAM.
#: Measured with the strided copy (2-CPU x86_64, one BLAS thread), ms per
#: call at 256K/512K/1M/2M/4M: LPIPS scale-0 (6,1,262,454)x(10,1,7,7) f64
#: 17.0/17.0/17.0/17.0/26.1 (one-row chunks up to 2 MiB); EDSR
#: (1,64,128,224)x(64,64,3,3) f32 15.3/15.3/16.2/18.3/18.2. No size wins
#: on both, so 1 MiB stays.
_CONV_CHUNK_BYTES = 1 << 20


def chunk_rows(row_bytes: int, multiple: int = 1) -> int:
    """Rows per cache block: the largest multiple of ``multiple`` rows of
    ``row_bytes`` each that fits ``_CONV_CHUNK_BYTES``, and at least one
    multiple.

    ``conv2d_forward`` cuts its output into chunks of
    ``chunk_rows(n * c * kh * kw * out_w * itemsize)`` rows. A caller that
    runs the conv band by band keeps its GEMMs, and with them their
    rounding, the same as one whole-image call only if every band is a
    whole number of those chunks: pass the chunk as ``multiple``.
    """
    return multiple * max(1, _CONV_CHUNK_BYTES // (row_bytes * multiple))


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Graph-free conv2d forward on raw arrays (the inference hot path).

    Cache-blocked: the column buffer is built and consumed a few output
    rows at a time (:func:`chunk_rows`) so it never round-trips through
    DRAM, and each chunk's GEMM writes its rows of the output in place.
    """
    n, c = x.shape[0], x.shape[1]
    c_out, _, kh, kw = weight.shape
    patches = _patch_view(x, kh, kw, stride, padding)
    out_h, out_w = patches.shape[4:]
    w2 = weight.reshape(c_out, -1)
    if w2.dtype != x.dtype:
        w2 = w2.astype(x.dtype)  # float32 inference path
    out = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
    flat = out.reshape(n, c_out, -1)

    k = c * kh * kw
    rows = chunk_rows(n * k * out_w * x.dtype.itemsize)
    pointwise = kh == 1 and kw == 1 and stride == 1 and padding == 0
    if pointwise or rows >= out_h:
        # One GEMM; the reshape is the im2col copy (a view for a pointwise
        # conv on a contiguous input).
        np.matmul(w2, patches.reshape(n, k, -1), out=flat)
    else:
        buf = np.empty(n * k * rows * out_w, dtype=x.dtype)
        for oy0 in range(0, out_h, rows):
            oy1 = min(out_h, oy0 + rows)
            cols = buf[: n * k * (oy1 - oy0) * out_w].reshape(
                n, c, kh, kw, oy1 - oy0, out_w
            )
            np.copyto(cols, patches[:, :, :, :, oy0:oy1])
            np.matmul(
                w2, cols.reshape(n, k, -1), out=flat[:, :, oy0 * out_w : oy1 * out_w]
            )

    if bias is not None:
        b = bias if bias.dtype == out.dtype else bias.astype(out.dtype)
        out += b.reshape(1, c_out, 1, 1)
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1
) -> np.ndarray:
    """Rearrange (N, C, H, W) into (N, C*kh*kw, L) patch columns.

    ``L = out_h * out_w`` for the given kernel/stride (no padding here —
    pad beforehand).
    """
    n, c = x.shape[0], x.shape[1]
    # One copy of the patch view (a view for a pointwise conv on a
    # contiguous input).
    return _patch_view(x, kh, kw, stride, 0).reshape(n, c * kh * kw, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
) -> np.ndarray:
    """Scatter-add (N, C*kh*kw, L) patch columns back into (N, C, H, W)."""
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            x[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j]
    return x


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation, matching torch.nn.functional.conv2d semantics.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be (N, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d weight must be (O, C, kh, kw), got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, weight expects {weight.shape[1]}"
        )
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    needs_tape = is_grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not needs_tape:
        # Graph-free fast path: strided-view im2col, no Tensor intermediates.
        return Tensor(
            conv2d_forward(
                x.data, weight.data, None if bias is None else bias.data, stride, padding
            )
        )

    xp = x.pad2d(padding) if padding else x
    n, c, h, w = xp.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1

    cols = im2col(xp.data, kh, kw, stride)  # (N, C*kh*kw, L)
    w2 = weight.data.reshape(c_out, -1)  # (O, C*kh*kw)
    if w2.dtype != cols.dtype:
        w2 = w2.astype(cols.dtype)  # float32 inference path
    out_data = np.matmul(w2, cols)  # (N, O, L) via BLAS
    out_data = out_data.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        b = bias.data
        if b.dtype != out_data.dtype:
            b = b.astype(out_data.dtype)
        out_data += b.reshape(1, c_out, 1, 1)

    parents = (xp, weight) if bias is None else (xp, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_cols = grad.reshape(n, c_out, out_h * out_w)  # (N, O, L)
        if weight.requires_grad:
            # dW = sum_n grad_cols @ cols^T, flattened over (N, L) for BLAS.
            g2 = np.ascontiguousarray(grad_cols.transpose(1, 0, 2)).reshape(c_out, -1)
            c2 = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(cols.shape[1], -1)
            weight._accumulate((g2 @ c2.T).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if xp.requires_grad:
            dcols = np.matmul(w2.T, grad_cols)
            xp._accumulate(col2im(dcols, (n, c, h, w), kh, kw, stride))

    return Tensor._make(out_data, parents, backward)


def pixel_shuffle(x: Tensor, factor: int) -> Tensor:
    """Depth-to-space rearrangement: (N, C*r^2, H, W) -> (N, C, H*r, W*r).

    The sub-pixel convolution upsampler used by EDSR-family SR models.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"pixel_shuffle input must be 4-D, got {x.shape}")
    n, c, h, w = x.shape
    r = factor
    if r < 1:
        raise ValueError(f"factor must be >= 1, got {r}")
    if c % (r * r) != 0:
        raise ValueError(f"channels {c} not divisible by factor^2 = {r * r}")
    c_out = c // (r * r)

    out_data = (
        x.data.reshape(n, c_out, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c_out, h * r, w * r)
    )
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        g = (
            grad.reshape(n, c_out, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, c, h, w)
        )
        x._accumulate(g)

    return Tensor._make(out_data, (x,), backward)
