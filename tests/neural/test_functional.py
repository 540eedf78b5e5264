"""conv2d / pixel_shuffle: correctness and gradients."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import correlate

from repro.neural.functional import col2im, conv2d, im2col, pixel_shuffle
from repro.neural.tensor import Tensor

from ..conftest import numeric_gradient


def _mean_square(t):
    return (t * t).mean()


def reference_conv(x, w, b=None, stride=1, padding=0):
    """Direct scipy cross-correlation reference."""
    n, c_in, h, width = x.shape
    c_out = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[2] - w.shape[2]) // stride + 1
    ow = (xp.shape[3] - w.shape[3]) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for o in range(c_out):
            acc = np.zeros((xp.shape[2] - w.shape[2] + 1, xp.shape[3] - w.shape[3] + 1))
            for ci in range(c_in):
                acc += correlate(xp[ni, ci], w[o, ci], mode="valid")
            out[ni, o] = acc[::stride, ::stride]
    if b is not None:
        out += b.reshape(1, c_out, 1, 1)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (1, 2)])
    def test_matches_scipy(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 9, 11))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, reference_conv(x, w, b, stride, padding), atol=1e-10
        )

    def test_1x1_kernel(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(2, 4, 1, 1))
        out = conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, reference_conv(x, w), atol=1e-10)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), padding=1)
        assert out.shape == (1, 3, 6, 6)

    def test_gradients_numeric(self, rng):
        x = rng.normal(size=(1, 2, 5, 6))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.3
        b = rng.normal(size=3)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        loss = _mean_square(conv2d(xt, wt, bt, padding=1))
        loss.backward()

        def loss_fn():
            return _mean_square(
                conv2d(Tensor(xt.data), Tensor(wt.data), Tensor(bt.data), padding=1)
            ).item()

        for t in (wt, bt, xt):
            numeric = numeric_gradient(loss_fn, t.data)
            np.testing.assert_allclose(t.grad, numeric, atol=1e-5, rtol=1e-4)

    def test_strided_gradients_numeric(self, rng):
        x = rng.normal(size=(1, 1, 6, 6))
        w = rng.normal(size=(2, 1, 3, 3)) * 0.3
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        _mean_square(conv2d(xt, wt, stride=2)).backward()

        def loss_fn():
            return _mean_square(conv2d(Tensor(xt.data), Tensor(wt.data), stride=2)).item()

        for t in (wt, xt):
            np.testing.assert_allclose(
                t.grad, numeric_gradient(loss_fn, t.data), atol=1e-5, rtol=1e-4
            )

    def test_input_validation(self, rng):
        good_w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        with pytest.raises(ValueError, match="N, C, H, W"):
            conv2d(Tensor(np.ones((3, 4, 4))), good_w)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), good_w)
        with pytest.raises(ValueError, match="stride"):
            conv2d(Tensor(np.ones((1, 3, 4, 4))), good_w, stride=0)
        with pytest.raises(ValueError, match="weight"):
            conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 3, 3))))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="larger than input"):
            conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))


class TestIm2Col:
    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.normal(size=(2, 3, 6, 7))
        cols = im2col(x, 3, 3)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shapes(self, rng):
        x = rng.normal(size=(1, 2, 8, 10))
        assert im2col(x, 3, 3).shape == (1, 2 * 9, 6 * 8)
        assert im2col(x, 3, 3, stride=2).shape == (1, 18, 3 * 4)


class TestPixelShuffle:
    def test_rearrangement(self):
        x = np.arange(16.0).reshape(1, 4, 2, 2)
        out = pixel_shuffle(Tensor(x), 2)
        assert out.shape == (1, 1, 4, 4)
        # Output pixel (0,0) block comes from channels [0..3] at (0,0).
        np.testing.assert_array_equal(
            out.data[0, 0, :2, :2], [[x[0, 0, 0, 0], x[0, 1, 0, 0]], [x[0, 2, 0, 0], x[0, 3, 0, 0]]]
        )

    def test_gradient_is_permutation(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        out = pixel_shuffle(x, 2)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(x.data))

    def test_channel_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            pixel_shuffle(Tensor(np.ones((1, 3, 2, 2))), 2)
        with pytest.raises(ValueError, match="4-D"):
            pixel_shuffle(Tensor(np.ones((3, 2, 2))), 2)
