"""Block-matching motion estimation and compensation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.motion import compensate, estimate_motion, upscale_motion_vectors


def shifted_pair(rng, dy: int, dx: int, h: int = 32, w: int = 48):
    """(current, reference) where current is reference shifted by (dy, dx)."""
    reference = rng.uniform(size=(h + 16, w + 16))
    cur = reference[8 + dy : 8 + dy + h, 8 + dx : 8 + dx + w]
    ref = reference[8 : 8 + h, 8 : 8 + w]
    return np.ascontiguousarray(cur), np.ascontiguousarray(ref)


class TestEstimation:
    @pytest.mark.parametrize("dy,dx", [(0, 0), (3, 0), (0, -4), (-2, 5), (7, 7)])
    def test_recovers_global_shift(self, rng, dy, dx):
        cur, ref = shifted_pair(rng, dy, dx)
        mv = estimate_motion(cur, ref, block=8, search_radius=7)
        # Interior blocks (away from frame edges) should see the exact shift.
        interior = mv[1:-1, 1:-1]
        assert (interior == np.array([dy, dx])).all()

    def test_zero_motion_on_identical_frames(self, rng):
        frame = rng.uniform(size=(24, 24))
        mv = estimate_motion(frame, frame, block=8, search_radius=4)
        assert (mv == 0).all()

    def test_flat_regions_prefer_zero_motion(self):
        flat = np.ones((16, 16))
        mv = estimate_motion(flat, flat, block=8, search_radius=3)
        assert (mv == 0).all()

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            estimate_motion(rng.uniform(size=(16, 16)), rng.uniform(size=(16, 24)))
        with pytest.raises(ValueError, match="2-D"):
            estimate_motion(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))
        with pytest.raises(ValueError, match="radius"):
            estimate_motion(np.zeros((8, 8)), np.zeros((8, 8)), search_radius=-1)


class TestCompensation:
    def test_reconstructs_shifted_frame(self, rng):
        cur, ref = shifted_pair(rng, 2, -3)
        mv = estimate_motion(cur, ref, block=8, search_radius=5)
        pred = compensate(ref, mv, block=8)
        # Interior pixels match exactly (borders clamp).
        np.testing.assert_allclose(pred[8:-8, 8:-8], cur[8:-8, 8:-8])

    def test_zero_motion_identity(self, rng):
        frame = rng.uniform(size=(16, 24))
        mv = np.zeros((2, 3, 2), dtype=np.int64)
        np.testing.assert_array_equal(compensate(frame, mv, block=8), frame)

    def test_mv_grid_shape_validation(self, rng):
        with pytest.raises(ValueError, match="motion vectors"):
            compensate(rng.uniform(size=(16, 16)), np.zeros((3, 3, 2), dtype=np.int64), 8)

    def test_out_of_bounds_mvs_clamp(self):
        frame = np.arange(64, dtype=np.float64).reshape(8, 8)
        mv = np.full((1, 1, 2), 100, dtype=np.int64)
        pred = compensate(frame, mv, block=8)
        assert pred.shape == (8, 8)
        assert pred[0, 0] == frame[-1, -1]  # clamped to the corner


class TestMVUpscaling:
    def test_scales_displacements(self):
        mv = np.array([[[1, -2]]], dtype=np.int64)
        np.testing.assert_array_equal(upscale_motion_vectors(mv, 2), [[[2, -4]]])

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            upscale_motion_vectors(np.zeros((1, 1, 2)), 0)
