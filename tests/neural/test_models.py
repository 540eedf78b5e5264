"""EDSR / FSRCNN model behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.neural.models import EDSR, FSRCNNLite, PAPER_EDSR_BLOCKS, PAPER_EDSR_CHANNELS
from repro.neural.tensor import Tensor
from repro.sr.interpolate import bilinear


@pytest.fixture(scope="module")
def small_edsr() -> EDSR:
    return EDSR(scale=2, n_resblocks=2, n_feats=8, seed=0)


class TestEDSR:
    def test_output_shape(self, small_edsr, rng):
        out = small_edsr(Tensor(rng.uniform(size=(2, 3, 10, 14))))
        assert out.shape == (2, 3, 20, 28)

    def test_untrained_is_near_bilinear(self, small_edsr, rng):
        """The bilinear global skip makes the fresh model ~= bilinear."""
        img = rng.uniform(size=(12, 16, 3))
        net = small_edsr(Tensor(img.transpose(2, 0, 1)[None])).numpy()[0].transpose(1, 2, 0)
        up = bilinear(img, 24, 32)
        assert np.abs(net - up).max() < 0.2
        assert np.abs(net - up).mean() < 0.05

    def test_scale_3(self, rng):
        model = EDSR(scale=3, n_resblocks=1, n_feats=8)
        out = model(Tensor(rng.uniform(size=(1, 3, 6, 6))))
        assert out.shape == (1, 3, 18, 18)

    def test_paper_geometry_constants(self):
        assert PAPER_EDSR_BLOCKS == 16 and PAPER_EDSR_CHANNELS == 64

    def test_paper_geometry_forward(self, rng):
        """The full 16x64 EDSR builds and runs (on a tiny input)."""
        model = EDSR(scale=2)  # paper defaults
        assert len(model.body) == PAPER_EDSR_BLOCKS
        out = model(Tensor(rng.uniform(size=(1, 3, 8, 8))))
        assert out.shape == (1, 3, 16, 16)

    def test_describe(self, small_edsr):
        text = small_edsr.describe()
        assert "x2" in text and "2 blocks" in text

    def test_input_validation(self, small_edsr):
        with pytest.raises(ValueError, match="N, C, H, W"):
            small_edsr(Tensor(np.zeros((3, 8, 8))))
        with pytest.raises(ValueError, match="channels"):
            small_edsr(Tensor(np.zeros((1, 1, 8, 8))))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EDSR(scale=0)
        with pytest.raises(ValueError):
            EDSR(n_resblocks=0)

    def test_deterministic_by_seed(self, rng):
        x = Tensor(rng.uniform(size=(1, 3, 6, 6)))
        a = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=5)(x).numpy()
        b = EDSR(scale=2, n_resblocks=1, n_feats=8, seed=5)(x).numpy()
        np.testing.assert_array_equal(a, b)

    def test_gradients_reach_all_parameters(self, small_edsr, rng):
        for p in small_edsr.parameters():
            p.zero_grad()
        out = small_edsr(Tensor(rng.uniform(size=(1, 3, 8, 8))))
        (out * out).mean().backward()
        for name, p in small_edsr.named_parameters():
            assert p.grad is not None, f"no grad for {name}"


class TestFSRCNN:
    def test_output_shape(self, rng):
        model = FSRCNNLite(scale=2, feats=12, shrink=6, n_maps=2)
        out = model(Tensor(rng.uniform(size=(1, 3, 9, 11))))
        assert out.shape == (1, 3, 18, 22)

    def test_untrained_near_bilinear(self, rng):
        model = FSRCNNLite(scale=2, feats=12, shrink=6, n_maps=2)
        img = rng.uniform(size=(10, 12, 3))
        net = model(Tensor(img.transpose(2, 0, 1)[None])).numpy()[0].transpose(1, 2, 0)
        up = bilinear(img, 20, 24)
        assert np.abs(net - up).mean() < 0.05

    def test_smaller_than_edsr(self):
        assert (
            FSRCNNLite(scale=2).num_parameters()
            < EDSR(scale=2, n_resblocks=3, n_feats=20).num_parameters()
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            FSRCNNLite()(Tensor(np.zeros((3, 8, 8))))
