"""GOP-reuse primitives: HR warp, dirty mask, composite, cache, windows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.motion import compensate
from repro.sr.backends import build_backend
from repro.sr.gop_reuse import (
    REUSE_DIRTY_THRESHOLD,
    GOPSRCache,
    composite_blocks,
    dirty_block_mask,
    warp_hr,
)


class TestWarpHR:
    """The GOP-reuse HR warp is ``compensate`` on an (H, W, 3) frame."""

    @pytest.mark.parametrize("shape", [(32, 48), (27, 41)])
    def test_matches_per_channel_compensate(self, rng, shape):
        """One (H, W, 3) gather equals per-channel compensation."""
        h, w = shape
        block = 8
        nby, nbx = -(-h // block), -(-w // block)
        reference = rng.random((h, w, 3))
        mv = rng.integers(-6, 7, size=(nby, nbx, 2))
        expected = np.stack(
            [compensate(reference[:, :, c], mv, block) for c in range(3)],
            axis=-1,
        )
        np.testing.assert_array_equal(compensate(reference, mv, block), expected)
        # The retired mirror still agrees while it exists.
        np.testing.assert_array_equal(warp_hr(reference, mv, block), expected)

    def test_zero_motion_is_identity(self, rng):
        reference = rng.random((24, 24, 3))
        mv = np.zeros((3, 3, 2), dtype=np.int64)
        np.testing.assert_array_equal(compensate(reference, mv, 8), reference)

    def test_displacement_clamps_at_edges(self, rng):
        reference = rng.random((8, 8, 3))
        mv = np.full((1, 1, 2), 100, dtype=np.int64)
        out = compensate(reference, mv, 8)
        # Every read clamps to the bottom-right pixel.
        np.testing.assert_array_equal(out, np.broadcast_to(reference[-1, -1], out.shape))

    def test_rejects_undersized_grid(self, rng):
        with pytest.raises(ValueError):
            compensate(rng.random((32, 32, 3)), np.zeros((2, 2, 2), dtype=np.int64), 8)
        with pytest.raises(ValueError):
            compensate(rng.random((8, 8, 3)), np.zeros((1, 1, 2), dtype=np.int64), 0)


class TestDirtyBlockMask:
    def test_threshold_zero_marks_everything(self):
        energy = np.zeros((3, 4))
        counts = np.full((3, 4), 64)
        assert dirty_block_mask(energy, counts, 0.0).all()

    def test_huge_threshold_marks_nothing(self, rng):
        energy = rng.random((3, 4))
        counts = np.full((3, 4), 64)
        assert not dirty_block_mask(energy, counts, 1e9).any()

    def test_per_pixel_normalization_respects_ragged_blocks(self):
        # Same total energy, different pixel counts: only the small block
        # crosses the per-pixel threshold.
        energy = np.array([[1.0, 1.0]])
        counts = np.array([[64, 15]])
        mask = dirty_block_mask(energy, counts, 1.0 / 32)
        assert mask.tolist() == [[False, True]]

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            dirty_block_mask(np.zeros((1, 1)), np.ones((1, 1), dtype=int), -1.0)

    def test_default_threshold_splits_noise_from_texture(self):
        counts = np.full((1, 2), 64)
        quantization_noise = 0.1 * REUSE_DIRTY_THRESHOLD * 64
        real_change = 10.0 * REUSE_DIRTY_THRESHOLD * 64
        mask = dirty_block_mask(
            np.array([[quantization_noise, real_change]]), counts,
            REUSE_DIRTY_THRESHOLD,
        )
        assert mask.tolist() == [[False, True]]


class TestCompositeBlocks:
    def test_overwrites_only_masked_blocks(self, rng):
        canvas = rng.random((16, 24, 3))
        before = canvas.copy()
        source = rng.random((16, 24, 3))
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 1] = mask[1, 2] = True
        out = composite_blocks(canvas, source, mask, 8)
        assert out is canvas  # in place, returned for chaining
        np.testing.assert_array_equal(canvas[0:8, 8:16], source[0:8, 8:16])
        np.testing.assert_array_equal(canvas[8:16, 16:24], source[8:16, 16:24])
        np.testing.assert_array_equal(canvas[:, 0:8], before[:, 0:8])
        np.testing.assert_array_equal(canvas[0:8, 16:24], before[0:8, 16:24])

    def test_ragged_edge_blocks(self, rng):
        canvas = rng.random((13, 19, 3))
        source = rng.random((13, 19, 3))
        mask = np.ones((2, 3), dtype=bool)
        composite_blocks(canvas, source, mask, 8)
        np.testing.assert_array_equal(canvas, source)

    def test_rejects_undersized_mask(self, rng):
        with pytest.raises(ValueError):
            composite_blocks(
                np.zeros((16, 16, 3)), np.zeros((16, 16, 3)),
                np.ones((1, 1), dtype=bool), 8,
            )


class TestGOPSRCache:
    def test_refresh_reason_matrix(self):
        cache = GOPSRCache()
        # Cold cache: any frame refreshes; I-frames report reference_frame.
        assert cache.refresh_reason(0, True) == "reference_frame"
        assert cache.refresh_reason(1, False) == "cold_cache"
        cache.store(np.zeros((4, 4, 3)), 1)
        # Intact chain: the very next P-frame may warp-reuse.
        assert cache.refresh_reason(2, False) is None
        # I-frames always refresh, even with a warm continuous cache.
        assert cache.refresh_reason(2, True) == "reference_frame"
        # A skipped/dropped frame leaves an index gap: chain break.
        assert cache.refresh_reason(4, False) == "chain_break"
        assert cache.refresh_reason(1, False) == "chain_break"

    def test_reset_clears_chain(self):
        cache = GOPSRCache()
        cache.store(np.zeros((4, 4, 3)), 7)
        assert cache.refresh_reason(8, False) is None
        cache.reset()
        assert cache.hr is None
        assert cache.refresh_reason(8, False) == "cold_cache"

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            GOPSRCache(threshold=-1e-9)


class TestUpscaleWindows:
    """``SRBackend.upscale_windows`` on the ``edsr`` backend."""

    @pytest.fixture
    def backend(self, tiny_runner):
        return build_backend("edsr", scale=tiny_runner.scale, runner=tiny_runner)

    def test_whole_image_window_matches_upscale(self, backend, tiny_runner, rng):
        """One halo-0 window covering the frame == plain full inference."""
        image = rng.random((16, 16, 3))
        tiles = backend.upscale_windows(
            image, np.zeros((1, 2), dtype=np.int64), tile=16, halo=0
        )
        np.testing.assert_array_equal(tiles[0], tiny_runner.upscale(image))

    def test_empty_origins(self, backend, rng):
        out = backend.upscale_windows(
            rng.random((16, 16, 3)), np.empty((0, 2), dtype=np.int64), tile=8
        )
        s = backend.scale
        assert out.shape == (0, 8 * s, 8 * s, 3)

    def test_window_stack_shape_and_order(self, backend, rng):
        image = rng.random((24, 32, 3))
        origins = np.array([[8, 16], [0, 0], [16, 24]], dtype=np.int64)
        s = backend.scale
        tiles = backend.upscale_windows(image, origins, tile=8, halo=4)
        assert tiles.shape == (3, 8 * s, 8 * s, 3)
        # Order preserved: each window's halo-padded forward individually.
        solo = backend.upscale_windows(image, origins[1:2], tile=8, halo=4)
        np.testing.assert_array_equal(tiles[1], solo[0])

    def test_edge_window_reads_padding(self, backend, rng):
        image = rng.random((20, 20, 3))
        # Window runs 4 px past the bottom-right corner.
        tiles = backend.upscale_windows(
            image, np.array([[16, 16]], dtype=np.int64), tile=8, halo=2
        )
        s = backend.scale
        assert tiles.shape == (1, 8 * s, 8 * s, 3)
        assert np.isfinite(tiles).all()

    def test_rejects_bad_args(self, backend, tiny_runner, rng):
        image = rng.random((16, 16, 3))
        origins = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            backend.upscale_windows(image, origins, tile=0)
        with pytest.raises(ValueError):
            backend.upscale_windows(image, origins, tile=8, halo=-1)
        with pytest.raises(ValueError):
            tiny_runner.upscale_batch(np.zeros((1, 8, 8, 3)), batch_size=0)
        with pytest.raises(ValueError):
            backend.upscale_windows(
                image, np.array([[-1, 0]], dtype=np.int64), tile=8
            )
