"""Fast inference path: dtype policy, graph-free forwards, strided-view conv."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural import functional as F
from repro.neural.alloc import tune_malloc_for_large_arrays
from repro.neural.layers import Conv2d
from repro.neural.models import EDSR, _bilinear_skip
from repro.neural.tensor import (
    Tensor,
    get_inference_dtype,
    no_grad,
    set_inference_dtype,
)


def _reference_im2col(x, kh, kw, stride):
    """Two-pass im2col, one strided slice copy per kernel tap."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = np.empty((n, c, kh, kw, out_h * out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
            cols[:, :, i, j, :] = patch.reshape(n, c, out_h * out_w)
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def _reference_conv(x, weight, bias, stride, padding):
    """Explicit np.pad + two-pass im2col, the pre-fast-path formulation."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n = x.shape[0]
    c_out, _, kh, kw = weight.shape
    cols, out_h, out_w = _reference_im2col(x, kh, kw, stride)
    out = np.matmul(weight.reshape(c_out, -1).astype(x.dtype), cols).reshape(
        n, c_out, out_h, out_w
    )
    if bias is not None:
        out = out + bias.astype(x.dtype).reshape(1, c_out, 1, 1)
    return out


class TestDtypePolicy:
    def test_default_inference_dtype_is_float32(self):
        assert get_inference_dtype() == np.dtype(np.float32)

    def test_tensor_adopts_inference_dtype_under_no_grad(self):
        x = np.ones((2, 3), dtype=np.float64)
        with no_grad():
            assert Tensor(x).data.dtype == np.float32
        assert Tensor(x).data.dtype == np.float64

    def test_no_grad_dtype_override_restores(self):
        with no_grad(dtype=np.float64):
            assert get_inference_dtype() == np.dtype(np.float64)
            assert Tensor(np.ones(3)).data.dtype == np.float64
        assert get_inference_dtype() == np.dtype(np.float32)

    def test_set_inference_dtype_returns_previous(self):
        prev = set_inference_dtype(np.float64)
        try:
            assert prev == np.dtype(np.float32)
            assert get_inference_dtype() == np.dtype(np.float64)
        finally:
            set_inference_dtype(prev)

    def test_set_inference_dtype_rejects_non_float(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_inference_dtype(np.int32)
        assert get_inference_dtype() == np.dtype(np.float32)


class TestGraphFreeForwards:
    def test_no_grad_conv_allocates_no_graph(self, rng):
        conv = Conv2d(3, 4, 3, rng=rng)
        with no_grad():
            out = conv(Tensor(rng.uniform(size=(1, 3, 8, 8))))
        assert out._parents == ()
        assert out._backward is None
        assert not out.requires_grad
        assert out.data.dtype == np.float32

    def test_no_grad_model_forward_allocates_no_graph(self, rng):
        model = EDSR(scale=2, n_resblocks=1, n_feats=4, seed=0)
        with no_grad():
            out = model(Tensor(rng.uniform(size=(1, 3, 6, 10))))
        assert out._parents == ()
        assert out._backward is None
        assert out.data.dtype == np.float32

    def test_inference_forward_bitwise_matches_taped_forward(self, rng):
        # The in-place inference branches (ResidualBlock/EDSR) must change
        # nothing numerically: in float64 they agree bit for bit with the
        # taped training-path forward.
        model = EDSR(scale=2, n_resblocks=2, n_feats=6, seed=1)
        x = rng.uniform(size=(2, 3, 7, 9))
        taped = model(Tensor(x)).numpy()
        with no_grad(dtype=np.float64):
            fast = model(Tensor(x)).numpy()
        np.testing.assert_array_equal(taped, fast)

    def test_f32_forward_agrees_with_f64(self, rng):
        from repro.metrics.psnr import psnr

        model = EDSR(scale=2, n_resblocks=2, n_feats=8, seed=2)
        x = rng.uniform(size=(1, 3, 16, 24))
        with no_grad(dtype=np.float64):
            ref = model(Tensor(x)).numpy()
        with no_grad():
            fast = model(Tensor(x)).numpy()
        assert fast.dtype == np.float32
        assert psnr(np.clip(ref, 0, 1), np.clip(fast.astype(np.float64), 0, 1)) >= 60.0


class TestFusedConvForward:
    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(1, 1, 0), (3, 1, 1), (3, 2, 1), (5, 1, 2), (3, 1, 0), (3, 1, 3), (5, 3, 2)],
    )
    def test_matches_pad_im2col_reference(self, rng, kernel, stride, padding):
        x = rng.uniform(size=(2, 3, 11, 13))
        weight = rng.normal(size=(4, 3, kernel, kernel))
        bias = rng.normal(size=(4,))
        out = F.conv2d_forward(x, weight, bias, stride, padding)
        ref = _reference_conv(x, weight, bias, stride, padding)
        np.testing.assert_array_equal(out, ref)

    def test_lpips_shape_one_row_chunks_match_reference(self, rng):
        # The LPIPS scale-0 correlation: six float64 planes against the
        # 10-filter 7x7 bank, wide enough that the real 1 MiB budget holds
        # a single output row per chunk.
        x = rng.uniform(size=(6, 1, 12, 454))
        weight = rng.normal(size=(10, 1, 7, 7))
        out_w = 454 - 7 + 1
        assert 6 * 49 * out_w * 8 > F._CONV_CHUNK_BYTES  # one row per chunk
        out = F.conv2d_forward(x, weight, None, 1, 0)
        np.testing.assert_array_equal(out, _reference_conv(x, weight, None, 1, 0))

    def test_chunked_path_matches_unchunked(self, rng, monkeypatch):
        # Force the cache-blocked row chunking even at test sizes. The GEMM
        # shape changes, so BLAS may re-order the reduction — allow last-ulp
        # float64 noise but nothing more.
        x = rng.uniform(size=(1, 4, 24, 20))
        weight = rng.normal(size=(6, 4, 3, 3))
        full = F.conv2d_forward(x, weight, None, 1, 1)
        monkeypatch.setattr(F, "_CONV_CHUNK_BYTES", 256)
        chunked = F.conv2d_forward(x, weight, None, 1, 1)
        np.testing.assert_allclose(chunked, full, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_strided_chunks_match_reference(self, rng, monkeypatch, dtype):
        # n = 3 with stride 2 and padding 1, under a budget of two output
        # rows per chunk: every GEMM writes its rows of each batch item's
        # output in place. (dgemm's rounding can depend on the GEMM's N;
        # 8 output channels by 32 columns rounds the same at every N.)
        x = rng.uniform(size=(3, 8, 41, 64)).astype(dtype)
        weight = rng.normal(size=(8, 8, 3, 3))
        bias = rng.normal(size=(8,))
        out_h, out_w = 21, 32
        row_bytes = 3 * 8 * 9 * out_w * np.dtype(dtype).itemsize
        monkeypatch.setattr(F, "_CONV_CHUNK_BYTES", 2 * row_bytes)
        assert F.chunk_rows(row_bytes) == 2  # 11 chunks
        out = F.conv2d_forward(x, weight, bias, 2, 1)
        assert out.dtype == dtype and out.shape == (3, 8, out_h, out_w)
        np.testing.assert_array_equal(out, _reference_conv(x, weight, bias, 2, 1))

    def test_kernel_larger_than_input_rejected(self, rng):
        x = rng.uniform(size=(1, 1, 2, 2))
        weight = rng.normal(size=(1, 1, 5, 5))
        with pytest.raises(ValueError, match="larger than"):
            F.conv2d_forward(x, weight, None, 1, 0)


class TestPatchView:
    """``F._patch_view``: the strided view every im2col copy reads from."""

    @staticmethod
    def _cases(rng):
        # Odd sizes chosen so the last window lies exactly on the padded
        # edge: (size + 2*pad - kernel) is a multiple of the stride.
        for stride in (2, 3):
            for pad in range(4):
                for kernel in (3, 5):
                    h = next(
                        v for v in range(9, 40, 2) if (v + 2 * pad - kernel) % stride == 0
                    )
                    w = next(
                        v
                        for v in range(h + 2, 40, 2)
                        if (v + 2 * pad - kernel) % stride == 0
                    )
                    base = rng.uniform(size=(3, 2, w, h + 2))
                    # Transposed then sliced: non-C-contiguous, N > 1.
                    yield base.transpose(0, 1, 3, 2)[:, :, 1:-1], kernel, stride, pad

    def test_matches_np_pad_im2col(self, rng):
        for x, kernel, stride, pad in self._cases(rng):
            assert not x.flags.c_contiguous and x.shape[0] > 1
            n, c, h, w = x.shape
            view = F._patch_view(x, kernel, kernel, stride, pad)
            out_h, out_w = view.shape[4:]
            assert (out_h - 1) * stride + kernel == h + 2 * pad
            assert (out_w - 1) * stride + kernel == w + 2 * pad
            padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            ref, _, _ = _reference_im2col(padded, kernel, kernel, stride)
            np.testing.assert_array_equal(view.reshape(n, c * kernel * kernel, -1), ref)

    @pytest.mark.parametrize("pad", [0, 2])
    def test_view_is_read_only_and_input_unchanged(self, rng, pad):
        x = rng.uniform(size=(2, 3, 9, 7))
        before = x.copy()
        view = F._patch_view(x, 3, 3, 2, pad)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0, 0, 0] = 1.0
        F.conv2d_forward(x, rng.normal(size=(4, 3, 3, 3)), None, 2, pad)
        np.testing.assert_array_equal(x, before)
        assert x.flags.writeable


class TestBilinearSkip:
    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_bit_exact_vs_image_space_bilinear(self, rng, factor):
        from repro.sr.interpolate import bilinear

        x = rng.uniform(size=(2, 3, 6, 5))
        out = _bilinear_skip(x, factor)
        for i in range(x.shape[0]):
            hwc = np.ascontiguousarray(x[i].transpose(1, 2, 0))
            ref = bilinear(hwc, 6 * factor, 5 * factor).transpose(2, 0, 1)
            np.testing.assert_array_equal(out[i], ref)

    def test_preserves_float32(self, rng):
        x = rng.uniform(size=(1, 3, 4, 4)).astype(np.float32)
        assert _bilinear_skip(x, 2).dtype == np.float32


class TestAllocatorTuning:
    def test_tuning_honours_opt_out_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_MALLOC_TUNING", "1")
        assert tune_malloc_for_large_arrays() is False

    def test_tune_reports_status(self):
        # False on non-glibc platforms.
        assert isinstance(tune_malloc_for_large_arrays(), bool)
