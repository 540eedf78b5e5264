"""Batched tiled inference: equivalence with whole-frame and loop paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.psnr import psnr
from repro.neural.tensor import set_inference_dtype
from repro.sr.backends import SRBackend, build_backend
from repro.sr.runner import SRRunner


@pytest.fixture
def frame(rng) -> np.ndarray:
    # Smooth-ish content so PSNR comparisons are meaningful, plus noise so
    # nothing is accidentally constant.
    yy, xx = np.mgrid[0:40, 0:56]
    base = 0.5 + 0.3 * np.sin(yy / 7.0) * np.cos(xx / 9.0)
    return np.clip(base[:, :, None] + rng.normal(scale=0.05, size=(40, 56, 3)), 0, 1)


def _interior(img: np.ndarray, margin: int) -> np.ndarray:
    return img[margin:-margin, margin:-margin]


class TestBatchedEquivalence:
    def test_interior_matches_whole_frame(self, tiny_runner, frame):
        # With overlap >= the model's receptive-field radius, every pixel
        # away from the frame border sees an identical receptive field
        # whether it came from a tile or the whole frame.
        s = tiny_runner.scale
        whole = tiny_runner.upscale(frame)
        tiled = tiny_runner.upscale_tiled(frame, tile=32, overlap=8)
        assert tiled.shape == whole.shape
        margin = 10 * s
        np.testing.assert_allclose(
            _interior(tiled, margin), _interior(whole, margin), rtol=0, atol=1e-5
        )
        # Edge pixels differ (reflect halo vs conv zero-padding) but must
        # stay visually identical — this is the seam-free guarantee.
        assert psnr(whole, tiled.astype(np.float64)) >= 40.0

    def test_batched_matches_loop_path(self, tiny_runner, frame):
        s = tiny_runner.scale
        batched = tiny_runner.upscale_tiled(frame, tile=32, overlap=8)
        loop = tiny_runner.upscale_tiled(frame, tile=32, overlap=8, batched=False)
        margin = 10 * s
        np.testing.assert_allclose(
            _interior(batched, margin), _interior(loop, margin), rtol=0, atol=1e-5
        )
        assert psnr(loop, batched.astype(np.float64)) >= 40.0

    def test_oversized_tile_degrades_to_whole_frame(self, tiny_runner, frame):
        # Per-axis clamping: a tile larger than the frame with no overlap is
        # exactly one whole-frame forward — identical to upscale().
        h, w = frame.shape[:2]
        whole = tiny_runner.upscale(frame)
        tiled = tiny_runner.upscale_tiled(frame, tile=4 * max(h, w), overlap=0)
        np.testing.assert_array_equal(tiled, whole)

    def test_batch_size_chunking_is_equivalent(self, tiny_runner, frame):
        one = tiny_runner.upscale_tiled(frame, tile=24, overlap=4, batch_size=1)
        many = tiny_runner.upscale_tiled(frame, tile=24, overlap=4, batch_size=64)
        np.testing.assert_allclose(one, many, rtol=0, atol=1e-5)

    def test_f32_tiled_agrees_with_f64(self, tiny_runner, frame):
        out_f32 = tiny_runner.upscale_tiled(frame, tile=32, overlap=8)
        prev = set_inference_dtype(np.float64)
        try:
            out_f64 = tiny_runner.upscale_tiled(frame, tile=32, overlap=8)
        finally:
            set_inference_dtype(prev)
        assert out_f32.dtype == np.float32
        assert out_f64.dtype == np.float64
        assert psnr(out_f64, out_f32.astype(np.float64)) >= 60.0


class TestBatchedInterface:
    def test_grayscale_roundtrip(self, rng):
        from repro.neural.models import EDSR
        from repro.sr.runner import SRRunner

        runner = SRRunner(EDSR(scale=2, n_resblocks=1, n_feats=4, channels=1, seed=0))
        img = rng.uniform(size=(20, 28))
        out = runner.upscale_tiled(img, tile=16, overlap=4)
        assert out.shape == (40, 56)

    def test_output_clipped_to_unit_range(self, tiny_runner, frame):
        out = tiny_runner.upscale_tiled(frame, tile=32, overlap=8)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_tile_too_small_for_overlap_rejected(self, tiny_runner, frame):
        with pytest.raises(ValueError, match="too small"):
            tiny_runner.upscale_tiled(frame, tile=16, overlap=8)

    def test_bad_batch_size_rejected(self, tiny_runner, frame):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_runner.upscale_tiled(frame, tile=32, overlap=8, batch_size=0)


class TestUpscaleWindowsEdgeCases:
    """``SRBackend.upscale_windows`` on the ``edsr`` backend."""

    @pytest.fixture
    def backend(self, tiny_runner):
        return build_backend("edsr", scale=tiny_runner.scale, runner=tiny_runner)

    def test_empty_window_list(self, backend, frame):
        out = backend.upscale_windows(
            frame, np.empty((0, 2), dtype=np.int64), tile=16
        )
        s = backend.scale
        assert out.shape == (0, 16 * s, 16 * s, 3)

    def test_interior_window_matches_whole_frame(self, backend, tiny_runner, frame):
        # A window whose halo'd receptive field stays inside the frame
        # sees exactly the same context as whole-frame inference.
        s = backend.scale
        whole = tiny_runner.upscale(frame)
        tile = 16
        oy, ox = 12, 20
        out = backend.upscale_windows(
            frame, np.array([[oy, ox]]), tile=tile, halo=8
        )
        np.testing.assert_allclose(
            out[0],
            whole[oy * s : (oy + tile) * s, ox * s : (ox + tile) * s],
            rtol=0, atol=1e-5,
        )

    def test_windows_flush_against_borders(self, backend, frame):
        # Origins at every corner, including the bottom-right where the
        # halo (and for the last one, part of the tile) reads padding.
        h, w = frame.shape[:2]
        tile, s = 16, backend.scale
        origins = np.array(
            [[0, 0], [0, w - tile], [h - tile, 0], [h - tile, w - tile]]
        )
        out = backend.upscale_windows(frame, origins, tile=tile, halo=8)
        assert out.shape == (4, tile * s, tile * s, 3)
        assert np.isfinite(out).all()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_window_overhanging_frame_edge(self, backend, frame):
        # Tile size not dividing the RoI: the last window starts inside
        # the frame but runs past its edge and must read reflect/edge
        # padding instead of raising.
        h, w = frame.shape[:2]
        tile, s = 16, backend.scale
        origins = np.array([[h - 7, w - 5]])  # 9 + 11 px of overhang
        out = backend.upscale_windows(frame, origins, tile=tile, halo=4)
        assert out.shape == (1, tile * s, tile * s, 3)
        assert np.isfinite(out).all()

    def test_origin_order_preserved_and_chunking_equivalent(self, backend, frame):
        origins = np.array([[8, 8], [0, 24], [20, 4]])
        a = backend.upscale_windows(frame, origins, tile=12, halo=4)
        # One forward per window (batches of one) gives the same cores.
        b = np.concatenate(
            [backend.upscale_windows(frame, o[None], tile=12, halo=4) for o in origins]
        )
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)
        # Reversing the origins reverses the output stack.
        c = backend.upscale_windows(frame, origins[::-1], tile=12, halo=4)
        np.testing.assert_allclose(c, a[::-1], rtol=0, atol=1e-6)

    def test_negative_origin_rejected(self, backend, frame):
        with pytest.raises(ValueError, match=">= 0"):
            backend.upscale_windows(frame, np.array([[-1, 0]]), tile=8)

    def test_runner_shares_the_backend_method(self):
        # SRRunner keeps the same window path over its own upscale_batch.
        assert SRRunner.upscale_windows is SRBackend.upscale_windows


class TestUpscaleBatch:
    def test_empty_stack(self, tiny_runner):
        s = tiny_runner.scale
        out = tiny_runner.upscale_batch(np.empty((0, 12, 10, 3)))
        assert out.shape == (0, 12 * s, 10 * s, 3)

    def test_matches_per_image_upscale(self, tiny_runner, rng):
        tiles = rng.uniform(size=(3, 10, 12, 3))
        batched = tiny_runner.upscale_batch(tiles)
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], tiny_runner.upscale(tiles[i]), rtol=0, atol=1e-5
            )

    def test_chunking_equivalent(self, tiny_runner, rng):
        tiles = rng.uniform(size=(5, 8, 8, 3))
        a = tiny_runner.upscale_batch(tiles, batch_size=2)
        b = tiny_runner.upscale_batch(tiles, batch_size=64)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)

    def test_bad_batch_size_rejected(self, tiny_runner, rng):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_runner.upscale_batch(rng.uniform(size=(1, 8, 8, 3)), batch_size=0)
