"""Classical interpolation filters."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import arrays

from repro.sr.interpolate import bicubic, bilinear

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _legacy_codec import legacy_bilinear  # noqa: E402


FILTERS = {"bicubic": bicubic, "bilinear": bilinear}


@pytest.fixture
def gradient_image():
    xs = np.linspace(0, 1, 16)
    return np.tile(xs, (12, 1))


class TestCommonBehaviour:
    @pytest.mark.parametrize("method", sorted(FILTERS))
    def test_identity_at_same_size(self, method, rng):
        img = rng.uniform(size=(9, 13))
        out = FILTERS[method](img, 9, 13)
        np.testing.assert_allclose(out, img, atol=1e-9)

    @pytest.mark.parametrize("method", sorted(FILTERS))
    def test_constant_image_preserved(self, method):
        img = np.full((8, 10), 0.37)
        out = FILTERS[method](img, 16, 20)
        np.testing.assert_allclose(out, 0.37, atol=1e-9)

    @pytest.mark.parametrize("method", sorted(FILTERS))
    def test_color_channels_independent(self, method, rng):
        img = rng.uniform(size=(8, 8, 3))
        out = FILTERS[method](img, 16, 16)
        for c in range(3):
            np.testing.assert_allclose(
                out[..., c], FILTERS[method](img[..., c], 16, 16), atol=1e-12
            )

    @pytest.mark.parametrize("method", sorted(FILTERS))
    def test_downscale(self, method, rng):
        img = rng.uniform(size=(16, 16))
        assert FILTERS[method](img, 8, 8).shape == (8, 8)

    def test_size_validation(self):
        for fn in (bilinear, bicubic):
            with pytest.raises(ValueError, match="target size must be positive"):
                fn(np.ones((4, 4)), 0, 8)
        with pytest.raises(ValueError):
            bilinear(np.ones(4), 8, 8)


class TestBilinear:
    def test_midpoint_average(self):
        img = np.array([[0.0, 1.0]])
        out = bilinear(img, 1, 4)
        # Output centres land at source coords -0.25, 0.25, 0.75, 1.25.
        np.testing.assert_allclose(out[0], [0.0, 0.25, 0.75, 1.0])

    def test_preserves_linear_ramp(self, gradient_image):
        out = bilinear(gradient_image, 12, 32)
        diffs = np.diff(out[6])
        assert (diffs >= -1e-9).all()  # still monotone

    def test_range_bounded(self, rng):
        img = rng.uniform(size=(6, 6))
        out = bilinear(img, 18, 18)
        assert out.min() >= img.min() - 1e-9 and out.max() <= img.max() + 1e-9

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12))
            | st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
            elements=st.floats(-2.0, 2.0),
        ),
        st.integers(1, 25),
        st.integers(1, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_separable_equals_four_tap(self, image, out_h, out_w):
        """Same float operations per element as the frozen four-tap form,
        for up- and downscales and 1-pixel dimensions."""
        np.testing.assert_array_equal(
            bilinear(image, out_h, out_w), legacy_bilinear(image, out_h, out_w)
        )

    def test_separable_equals_four_tap_at_stream_sizes(self, rng):
        for shape in ((64, 112, 3), (32, 56), (33, 57)):
            image = rng.uniform(size=shape)
            out_h, out_w = 2 * shape[0], 2 * shape[1]
            np.testing.assert_array_equal(
                bilinear(image, out_h, out_w), legacy_bilinear(image, out_h, out_w)
            )


class TestHigherOrder:
    def test_bicubic_sharper_than_bilinear_on_edge(self):
        img = np.zeros((8, 16))
        img[:, 8:] = 1.0
        bl = bilinear(img, 8, 64)
        bc = bicubic(img, 8, 64)
        # Bicubic transitions faster across the edge (fewer mid-level pixels).
        assert ((bc > 0.2) & (bc < 0.8)).sum() <= ((bl > 0.2) & (bl < 0.8)).sum()

    def test_bicubic_can_overshoot(self):
        img = np.zeros((4, 8))
        img[:, 4:] = 1.0
        out = bicubic(img, 4, 32)
        assert out.min() < -1e-6 or out.max() > 1 + 1e-6

    def test_weights_normalized_at_border(self):
        img = np.full((6, 6), 0.5)
        np.testing.assert_allclose(bicubic(img, 12, 12), 0.5, atol=1e-9)


class TestProperties:
    @given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_upscale_shape(self, h, w, factor):
        out = bilinear(np.zeros((h, w)), h * factor, w * factor)
        assert out.shape == (h * factor, w * factor)

    @given(st.integers(2, 10))
    @settings(max_examples=15, deadline=None)
    def test_bilinear_mean_preserved_2x(self, n):
        rng = np.random.default_rng(n)
        img = rng.uniform(size=(n, n))
        out = bilinear(img, 2 * n, 2 * n)
        assert abs(out.mean() - img.mean()) < 0.05
