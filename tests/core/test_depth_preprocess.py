"""Depth-map preprocessing pipeline (paper Fig. 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RoIConfig
from repro.core.depth_preprocess import (
    center_weight_matrix,
    layer_bounds,
    preprocess_depth,
)


def extract_foreground(depth):
    """Fig. 8 step 1 as ``preprocess_depth`` reports it: (mask, threshold)."""
    result = preprocess_depth(depth)
    return result.foreground_mask, result.foreground_threshold


def foreground_threshold(depth):
    return preprocess_depth(depth).foreground_threshold


class TestNearness:
    def test_inverts_depth(self):
        # Foreground importance is nearness (1 - depth) plus the centre bias.
        # A single depth plane is all foreground; the sky pixel is not.
        depth = np.array([[0.25, 0.25, 1.0]])
        result = preprocess_depth(depth)
        assert result.foreground_mask.tolist() == [[True, True, False]]
        nearness = result.weighted - result.weight_matrix
        np.testing.assert_allclose(nearness[0, :2], [0.75, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            preprocess_depth(np.array([[1.0, 2.0]]))  # out of range
        with pytest.raises(ValueError):
            preprocess_depth(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            preprocess_depth(np.zeros((0, 3)))


class TestForegroundExtraction:
    def test_bimodal_separation(self):
        """A near cluster and a far cluster with a clean gap."""
        depth = np.full((40, 40), 0.7)
        depth[10:25, 10:25] = 0.1
        mask, threshold = extract_foreground(depth)
        assert 0.1 < threshold < 0.7
        assert mask[15, 15] and not mask[0, 0]

    def test_synthetic_scene(self, synthetic_depth):
        mask, threshold = extract_foreground(synthetic_depth)
        assert mask[30, 40]  # the near blob
        assert not mask[15, 15]  # mid background

    def test_sky_always_background(self, synthetic_depth):
        mask, _ = extract_foreground(synthetic_depth)
        assert not mask[:5].any()

    def test_all_sky_degenerates_gracefully(self):
        assert foreground_threshold(np.ones((10, 10))) == 1.0

    def test_single_plane(self):
        depth = np.full((10, 10), 0.3)
        assert foreground_threshold(depth) == pytest.approx(0.3)

    def test_unimodal_falls_back_to_otsu(self, rng):
        """Smooth unimodal depth has no gap; Otsu must produce a split."""
        depth = np.clip(rng.normal(0.5, 0.08, size=(50, 50)), 0.01, 0.99)
        threshold = foreground_threshold(depth)
        assert 0.2 < threshold < 0.8
        mask = depth <= threshold
        assert 0.05 < mask.mean() < 0.95

    def test_otsu_far_end_regression(self):
        """When between-class variance peaks in the last histogram bin,
        an unclamped argmax returns the histogram's upper edge itself —
        classifying every finite pixel as foreground and turning the
        masking step into a no-op. The split must stay strictly inside
        the histogram. (Three micro-clusters: cumulative float error
        keeps the valley walk from firing, and the mass sits so close to
        the near end that sigma_b is maximized at the far edge.)"""
        depth = np.concatenate(
            [
                np.full(47, 0.5),
                np.full(2, 0.5 + 1e-9),
                np.full(2, 0.5 + 2e-9),
            ]
        ).reshape(3, 17)
        threshold = foreground_threshold(depth)
        assert threshold < depth.max()
        assert not (depth <= threshold).all()


class TestCenterWeights:
    def test_peak_at_center(self):
        weights = center_weight_matrix(31, 41)
        assert weights[15, 20] == weights.max()
        assert weights[0, 0] < weights[15, 20]

    def test_amplitude_from_config(self):
        cfg = RoIConfig(center_weight=0.7)
        assert center_weight_matrix(21, 21, cfg).max() == pytest.approx(0.7)

    def test_symmetry(self):
        weights = center_weight_matrix(20, 30)
        np.testing.assert_allclose(weights, weights[::-1])
        np.testing.assert_allclose(weights, weights[:, ::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            center_weight_matrix(0, 10)

    def test_cached_and_read_only(self):
        """Repeat calls with the same (shape, config) hit the memo and the
        shared array must be immutable so one caller can't poison it."""
        a = center_weight_matrix(24, 36)
        b = center_weight_matrix(24, 36)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 9.0

    def test_cache_distinguishes_config(self):
        # Odd dims so a pixel sits exactly at the centre (max == amplitude).
        default = center_weight_matrix(17, 17)
        custom = center_weight_matrix(17, 17, RoIConfig(center_weight=0.9))
        assert custom.max() == pytest.approx(0.9)
        assert default.max() != pytest.approx(0.9)


class TestLayering:
    def test_range_mode_even_spacing(self):
        bounds = layer_bounds(np.array([0.0, 1.0]), 4, mode="range")
        np.testing.assert_allclose(bounds, [0, 0.25, 0.5, 0.75, 1.0])

    def test_quantile_mode_equal_population(self, rng):
        values = rng.exponential(size=4000)
        bounds = layer_bounds(values, 4, mode="quantile")
        counts = np.histogram(values, bins=bounds)[0]
        assert counts.min() > 0.8 * counts.max()

    def test_bounds_strictly_increasing(self):
        bounds = layer_bounds(np.full(10, 0.5), 4, mode="quantile")
        assert (np.diff(bounds) > 0).all()

    def test_degenerate_bounds_large_magnitude_regression(self):
        """A fixed +1e-12 bump vanishes under float spacing at large
        magnitudes (1e6 + 1e-12 == 1e6), leaving duplicate bin edges that
        make every layer after the first empty. The separation must scale
        with the value (np.nextafter)."""
        for mode in ("quantile", "range"):
            bounds = layer_bounds(np.full(10, 1e6), 4, mode=mode)
            assert (np.diff(bounds) > 0).all(), mode

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            layer_bounds(np.ones(4), 2, mode="magic")
        with pytest.raises(ValueError):
            layer_bounds(np.array([]), 2)


class TestFullPipeline:
    def test_synthetic_blob_selected(self, synthetic_depth):
        result = preprocess_depth(synthetic_depth)
        # The near central blob must survive into the processed map.
        assert result.processed[30, 40] > 0
        # Sky must not.
        assert (result.processed[:5] == 0).all()

    def test_intermediates_exposed(self, synthetic_depth):
        result = preprocess_depth(synthetic_depth)
        assert result.foreground_mask.dtype == bool
        assert result.weight_matrix.shape == synthetic_depth.shape
        assert result.layer_index.shape == synthetic_depth.shape
        assert 0 <= result.selected_layer < RoIConfig().n_layers

    def test_background_layer_is_minus_one(self, synthetic_depth):
        result = preprocess_depth(synthetic_depth)
        assert (result.layer_index[:5] == -1).all()

    def test_all_background_frame(self):
        result = preprocess_depth(np.ones((20, 30)))
        # Degenerate frame: processed map falls back to centre weighting.
        assert result.processed[10, 15] > result.processed[0, 0]

    def test_paper_literal_range_mode_runs(self, synthetic_depth):
        result = preprocess_depth(synthetic_depth, RoIConfig(layer_mode="range"))
        assert result.processed.shape == synthetic_depth.shape

    def test_game_depth(self, g3_frame):
        result = preprocess_depth(g3_frame.depth)
        assert (result.processed > 0).any()
        assert result.foreground_threshold < 1.0
