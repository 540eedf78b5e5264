"""PSNR and the LPIPS surrogate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ACCEPTABLE_PSNR_DB,
    PERCEPTIBLE_LPIPS_DIFFERENCE,
    lpips,
    mse,
    psnr,
)
from repro.sr.interpolate import bilinear


@pytest.fixture(scope="module")
def photo():
    """A structured test image (checker + gradient) big enough for LPIPS."""
    rng = np.random.default_rng(0)
    ys, xs = np.mgrid[0:96, 0:128]
    base = ((xs // 8 + ys // 8) % 2).astype(np.float64)
    img = np.stack([base, 1 - base, xs / 128.0], axis=-1) * 0.8 + 0.1
    return np.clip(img + rng.normal(scale=0.02, size=img.shape), 0, 1)


class TestPSNR:
    def test_identical_is_infinite(self, photo):
        assert psnr(photo, photo) == float("inf")

    def test_known_mse_relation(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert mse(a, b) == pytest.approx(0.01)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_data_range(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 25.5)
        assert psnr(a, b, data_range=255) == pytest.approx(20.0)

    def test_monotone_in_noise(self, photo, rng):
        small = np.clip(photo + rng.normal(scale=0.01, size=photo.shape), 0, 1)
        large = np.clip(photo + rng.normal(scale=0.1, size=photo.shape), 0, 1)
        assert psnr(photo, small) > psnr(photo, large)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((4, 4)), data_range=0)

    def test_acceptability_constant(self):
        assert ACCEPTABLE_PSNR_DB == 30.0


class TestLPIPS:
    def test_identical_is_zero(self, photo):
        assert lpips(photo, photo) == pytest.approx(0.0, abs=1e-12)

    def test_range(self, photo, rng):
        other = rng.uniform(size=photo.shape)
        value = lpips(photo, other)
        assert 0.0 < value < 4.0  # unit-normalized features bound the per-scale distance by 4

    def test_blur_scores_worse_than_mild_noise(self, photo, rng):
        """The property the paper's Fig. 14b rests on: repeated-bilinear
        detail loss is perceptually worse than equal-MSE noise."""
        blurred = bilinear(bilinear(photo, 24, 32), 96, 128)
        blur_mse = mse(photo, blurred)
        noisy = np.clip(photo + rng.normal(scale=np.sqrt(blur_mse), size=photo.shape), 0, 1)
        assert lpips(photo, blurred) > lpips(photo, noisy)

    def test_monotone_in_blur(self, photo):
        mild = bilinear(bilinear(photo, 48, 64), 96, 128)
        severe = bilinear(bilinear(photo, 12, 16), 96, 128)
        assert lpips(photo, severe) > lpips(photo, mild)

    def test_too_small_image_rejected(self):
        tiny = np.zeros((16, 16, 3))
        with pytest.raises(ValueError, match="too small"):
            lpips(tiny, tiny)

    def test_shape_mismatch(self, photo):
        with pytest.raises(ValueError):
            lpips(photo, photo[:64])

    def test_perceptibility_constant(self):
        assert PERCEPTIBLE_LPIPS_DIFFERENCE == 0.15


class TestProperties:
    @given(st.floats(0.01, 0.3))
    @settings(max_examples=10, deadline=None)
    def test_psnr_from_uniform_shift(self, delta):
        a = np.zeros((8, 8))
        b = np.full((8, 8), delta)
        assert psnr(a, b) == pytest.approx(-20 * np.log10(delta), rel=1e-9)
