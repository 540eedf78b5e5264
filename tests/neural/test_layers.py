"""Module system, layers, and parameter management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.layers import (
    Conv2d,
    Module,
    PixelShuffle,
    PReLU,
    ResidualBlock,
    Sequential,
    Upsampler,
)
from repro.neural.tensor import Tensor


class TestModuleRegistry:
    def test_parameters_collected_recursively(self):
        block = ResidualBlock(4)
        # two convs, each weight + bias
        assert len(block.parameters()) == 4

    def test_named_parameters_paths(self):
        block = ResidualBlock(4)
        names = dict(block.named_parameters())
        assert "conv1.weight" in names and "conv2.bias" in names

    def test_num_parameters(self):
        conv = Conv2d(2, 3, 3)
        assert conv.num_parameters() == 3 * 2 * 9 + 3

    def test_train_eval_propagates(self):
        seq = Sequential(Conv2d(1, 1, 3), PReLU())
        seq.eval()
        assert not seq.training and not next(iter(seq)).training
        seq.train()
        assert seq.training

    def test_state_dict_roundtrip(self):
        a = ResidualBlock(3, rng=np.random.default_rng(1))
        b = ResidualBlock(3, rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 5, 5)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_missing_key(self):
        block = ResidualBlock(3)
        state = block.state_dict()
        state.pop("conv1.weight")
        with pytest.raises(KeyError, match="missing"):
            block.load_state_dict(state)

    def test_state_dict_shape_mismatch(self):
        block = ResidualBlock(3)
        state = block.state_dict()
        state["conv1.weight"] = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="shape"):
            block.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor([1.0]))


class TestConv2dLayer:
    def test_same_padding_default(self):
        conv = Conv2d(2, 4, 3)
        out = conv(Tensor(np.zeros((1, 2, 7, 9))))
        assert out.shape == (1, 4, 7, 9)

    def test_explicit_padding(self):
        conv = Conv2d(1, 1, 3, padding=0)
        assert conv(Tensor(np.zeros((1, 1, 5, 5)))).shape == (1, 1, 3, 3)

    def test_no_bias(self):
        conv = Conv2d(1, 1, 3, bias=False)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3)


class TestActivations:
    def test_prelu_negative_slope(self):
        prelu = PReLU(init=0.1)
        out = prelu(Tensor([-2.0, 3.0]))
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_prelu_alpha_trains(self):
        prelu = PReLU(init=0.25)
        out = prelu(Tensor([-1.0, -2.0]))
        loss = (out * out).sum()
        loss.backward()
        assert prelu.alpha.grad is not None and abs(prelu.alpha.grad[0]) > 0


class TestComposite:
    def test_sequential_order(self):
        seq = Sequential(PReLU(init=0.5), PReLU(init=0.25))
        out = seq(Tensor([-4.0, 4.0]))
        np.testing.assert_allclose(out.data, [-0.5, 4.0])
        assert len(seq) == 2

    def test_residual_block_near_identity_with_zero_scale(self, rng):
        block = ResidualBlock(3, res_scale=0.0)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        np.testing.assert_allclose(block(x).data, x.data)

    def test_pixel_shuffle_layer(self):
        out = PixelShuffle(2)(Tensor(np.zeros((1, 8, 3, 3))))
        assert out.shape == (1, 2, 6, 6)


class TestUpsampler:
    @pytest.mark.parametrize("factor,expect", [(1, 1), (2, 2), (3, 3), (4, 4)])
    def test_factors(self, factor, expect):
        up = Upsampler(8, factor)
        out = up(Tensor(np.zeros((1, 8, 4, 4))))
        assert out.shape == (1, 8, 4 * expect, 4 * expect)

    def test_unsupported_factor(self):
        with pytest.raises(ValueError, match="unsupported"):
            Upsampler(8, 5)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            Upsampler(8, 0)
