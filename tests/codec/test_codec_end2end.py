"""Encoder/decoder end-to-end behaviour on real rendered frames."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.color import rgb_to_ycbcr, subsample_chroma, upsample_chroma, ycbcr_to_rgb
from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import VideoEncoder
from repro.metrics.psnr import psnr


@pytest.fixture(scope="module")
def frames(g3_sequence):
    return [out.color for out in g3_sequence]


# re-export session fixture into module scope
@pytest.fixture(scope="module")
def g3_sequence():
    from repro.render.games import build_game

    game = build_game("G3")
    return [game.render_frame(i, 96, 64) for i in range(6)]


class TestColor:
    def test_ycbcr_roundtrip(self, rng):
        rgb = rng.uniform(size=(10, 12, 3))
        y, cb, cr = rgb_to_ycbcr(rgb)
        np.testing.assert_allclose(ycbcr_to_rgb(y, cb, cr), rgb, atol=1e-9)

    def test_luma_range(self, rng):
        y, cb, cr = rgb_to_ycbcr(rng.uniform(size=(6, 6, 3)))
        assert y.min() >= 0 and y.max() <= 1
        assert abs(cb).max() <= 0.5 + 1e-9 and abs(cr).max() <= 0.5 + 1e-9

    def test_chroma_subsample_upsample(self):
        plane = np.tile(np.array([[0.0, 1.0]]), (8, 4))
        sub = subsample_chroma(plane)
        assert sub.shape == (4, 4)
        np.testing.assert_allclose(sub, 0.5)
        up = upsample_chroma(sub, 8, 8)
        assert up.shape == (8, 8)

    def test_odd_dimensions_padded(self):
        sub = subsample_chroma(np.ones((5, 7)))
        assert sub.shape == (3, 4)


class TestGOPStructure:
    def test_frame_type_pattern(self, frames):
        encoder = VideoEncoder(gop_size=3, quality=60)
        encoded = encoder.encode_sequence(frames)
        assert [e.frame_type for e in encoded] == ["I", "P", "P", "I", "P", "P"]

    def test_reference_flag(self, frames):
        encoder = VideoEncoder(gop_size=3, quality=60)
        decoded = VideoDecoder().decode_sequence(encoder.encode_sequence(frames[:3]))
        assert decoded[0].is_reference and not decoded[1].is_reference

    def test_p_frames_smaller_than_i(self, frames):
        encoded = VideoEncoder(gop_size=6, quality=60).encode_sequence(frames)
        i_size = encoded[0].size_bytes
        p_sizes = [e.size_bytes for e in encoded[1:]]
        assert max(p_sizes) < i_size

    def test_reset_restarts_gop(self, frames):
        encoder = VideoEncoder(gop_size=10, quality=60)
        encoder.encode_frame(frames[0])
        assert not encoder.next_is_reference
        encoder.reset()
        assert encoder.next_is_reference

    def test_motion_vectors_attached_to_p_frames(self, frames):
        encoded = VideoEncoder(gop_size=6, quality=60).encode_sequence(frames[:2])
        assert encoded[0].motion_vectors is None
        assert encoded[1].motion_vectors is not None
        assert encoded[1].motion_vectors.shape == (8, 12, 2)  # 64/8 x 96/8


class TestRoundTrip:
    @pytest.mark.parametrize("quality,min_db", [(40, 28.0), (70, 30.0), (95, 33.5)])
    def test_quality_scales_fidelity(self, frames, quality, min_db):
        encoded = VideoEncoder(gop_size=3, quality=quality).encode_sequence(frames[:3])
        decoded = VideoDecoder().decode_sequence(encoded)
        for original, recon in zip(frames, decoded):
            assert psnr(original, recon.rgb) >= min_db

    def test_higher_quality_more_bytes(self, frames):
        low = VideoEncoder(gop_size=1, quality=30).encode_frame(frames[0])
        high = VideoEncoder(gop_size=1, quality=90).encode_frame(frames[0])
        assert high.size_bytes > low.size_bytes

    def test_decoder_matches_encoder_reconstruction(self, frames):
        encoder = VideoEncoder(gop_size=6, quality=60)
        decoder = VideoDecoder()
        for frame in frames:
            decoded = decoder.decode_frame(encoder.encode_frame(frame))
        np.testing.assert_array_equal(decoded.rgb, encoder.last_reconstruction())

    def test_p_frame_internals_consistent(self, frames):
        encoded = VideoEncoder(gop_size=6, quality=60).encode_sequence(frames[:2])
        decoded = VideoDecoder().decode_sequence(encoded)
        p = decoded[1]
        assert p.prediction_rgb is not None and p.residual_rgb is not None
        np.testing.assert_allclose(
            p.prediction_rgb + p.residual_rgb, p.rgb, atol=1e-9
        )

    def test_decode_is_pure_function_of_payload(self, frames):
        encoded = VideoEncoder(gop_size=3, quality=60).encode_sequence(frames[:3])
        a = VideoDecoder().decode_sequence(encoded)
        b = VideoDecoder().decode_sequence(encoded)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.rgb, y.rgb)

    def test_long_gop_no_drift(self, frames):
        """Closed-loop prediction: error does not accumulate across P frames."""
        seq = frames * 2  # 12 frames, single GOP
        encoded = VideoEncoder(gop_size=12, quality=70).encode_sequence(seq)
        decoded = VideoDecoder().decode_sequence(encoded)
        first_p = psnr(seq[1], decoded[1].rgb)
        last_p = psnr(seq[-1], decoded[-1].rgb)
        assert last_p > first_p - 3.0


class TestErrors:
    def test_p_frame_before_reference(self, frames):
        encoded = VideoEncoder(gop_size=2, quality=60).encode_sequence(frames[:2])
        decoder = VideoDecoder()
        with pytest.raises(RuntimeError, match="reference"):
            decoder.decode_frame(encoded[1])

    def test_encoder_input_validation(self):
        with pytest.raises(ValueError):
            VideoEncoder(gop_size=0)
        with pytest.raises(ValueError):
            VideoEncoder().encode_frame(np.zeros((8, 8)))
