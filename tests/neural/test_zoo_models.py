"""Model-zoo architectures: QuickSRNet identity init, fake quantization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.psnr import psnr
from repro.neural.models import (
    EDSR,
    QuantizedEDSR,
    QuickSRNet,
    conv_modules,
    quantize_conv_per_channel,
)
from repro.sr.runner import SRRunner


class TestQuickSRNet:
    def test_output_shape(self, rng):
        model = QuickSRNet(scale=2, n_convs=2, feats=8, seed=0)
        x = rng.uniform(size=(14, 18, 3))
        out = SRRunner(model).upscale(x)
        assert out.shape == (28, 36, 3)

    def test_identity_init_approximates_nearest(self, rng):
        # The residual repeats are identity-initialized (plus small noise),
        # so the *untrained* network is already a near-nearest-neighbour
        # upscaler — the QuickSRNet trick that makes training converge
        # from a useful starting point instead of from noise.
        model = QuickSRNet(scale=2, n_convs=3, feats=12, seed=1)
        x = rng.uniform(size=(16, 16, 3))
        out = SRRunner(model).upscale(x)
        ref = x.repeat(2, axis=0).repeat(2, axis=1)  # nearest neighbour
        assert np.abs(out - ref).max() < 0.25
        # Random noise input is the worst case for the perturbed
        # identity; an unrelated pair of such images sits near 8 dB.
        assert psnr(ref, out.astype(np.float64)) > 20.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            QuickSRNet(scale=0)
        with pytest.raises(ValueError):
            QuickSRNet(n_convs=0)
        with pytest.raises(ValueError):
            QuickSRNet(feats=2, channels=3)

    def test_channel_mismatch_rejected(self, rng):
        model = QuickSRNet(scale=2, n_convs=1, feats=8, channels=3, seed=0)
        with pytest.raises(ValueError):
            SRRunner(model).upscale(rng.uniform(size=(8, 8)))


class TestPerChannelQuantization:
    def test_weights_land_on_per_channel_grid(self):
        model = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=3)
        conv = next(conv_modules(model))
        scales = quantize_conv_per_channel(conv, bits=8)
        w = conv.weight.data
        assert scales.shape == (w.shape[0],)
        for o in range(w.shape[0]):
            codes = w[o] / scales[o]
            np.testing.assert_allclose(codes, np.rint(codes), atol=1e-9)
            assert np.abs(codes).max() <= 127.0 + 1e-9

    def test_idempotent(self):
        model = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=3)
        conv = next(conv_modules(model))
        quantize_conv_per_channel(conv)
        once = conv.weight.data.copy()
        quantize_conv_per_channel(conv)
        np.testing.assert_array_equal(conv.weight.data, once)

    def test_zero_channel_guard(self):
        model = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=3)
        conv = next(conv_modules(model))
        conv.weight.data[0] = 0.0
        scales = quantize_conv_per_channel(conv)
        assert scales[0] == 1.0
        np.testing.assert_array_equal(conv.weight.data[0], 0.0)

    def test_too_few_bits_rejected(self):
        model = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=3)
        with pytest.raises(ValueError):
            quantize_conv_per_channel(next(conv_modules(model)), bits=1)


class TestQuantizedEDSR:
    def test_quantize_marks_and_perturbs(self):
        model = QuantizedEDSR(scale=2, n_resblocks=1, n_feats=8, seed=5)
        before = [c.weight.data.copy() for c in conv_modules(model)]
        assert model.quantized is False
        assert model.quantize() is model
        assert model.quantized is True
        after = [c.weight.data for c in conv_modules(model)]
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))

    def test_output_close_to_float_reference(self, rng):
        ref = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=5)
        quant = QuantizedEDSR(scale=2, n_resblocks=1, n_feats=8, seed=9)
        quant.load_state_dict(ref.state_dict())
        quant.quantize()
        x = rng.uniform(size=(12, 12, 3))
        out_ref = SRRunner(ref).upscale(x)
        out_q = SRRunner(quant).upscale(x)
        # 8-bit per-channel fake quantization barely moves the output.
        assert psnr(out_ref.astype(np.float64), out_q.astype(np.float64)) > 35.0

    def test_load_state_dict_resets_flag(self):
        ref = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=5)
        quant = QuantizedEDSR(scale=2, n_resblocks=1, n_feats=8, seed=9)
        quant.quantize()
        quant.load_state_dict(ref.state_dict())
        assert quant.quantized is False
