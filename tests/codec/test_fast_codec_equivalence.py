"""Fast codec path vs the frozen legacy baseline.

Every mechanism of the fast codec path (PR 2) must be output-equivalent
to the pre-PR implementation frozen in ``benchmarks/_legacy_codec.py``:
pruned full-search motion vectors exactly equal, vectorized compensation
bit-identical, batch-packed entropy bitstreams byte-identical, and the
whole-frame encoder producing byte-identical payloads.  A golden SHA-256
digest of a fixed rendered frame's bitstream guards against future
"optimizations" silently changing bytes.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from _legacy_codec import (  # noqa: E402
    LegacyBitWriter,
    LegacyVideoDecoder,
    LegacyVideoEncoder,
    legacy_compensate,
    legacy_encode_blocks,
    legacy_estimate_motion,
)
from repro.codec.bitstream import BitWriter  # noqa: E402
from repro.codec.color import rgb_to_ycbcr  # noqa: E402
from repro.codec.decoder import VideoDecoder  # noqa: E402
from repro.codec.encoder import VideoEncoder  # noqa: E402
from repro.codec.entropy import encode_blocks  # noqa: E402
from repro.codec import motion  # noqa: E402
from repro.codec.motion import compensate, estimate_motion  # noqa: E402
from repro.render.games import build_game  # noqa: E402


def _luma(rgb: np.ndarray) -> np.ndarray:
    y, _, _ = rgb_to_ycbcr(np.asarray(rgb, dtype=np.float64))
    return y * 255.0 - 128.0


class TestMotionEquivalence:
    """Pruned full search == exhaustive legacy search, exactly."""

    @pytest.mark.parametrize("radius", [0, 1, 3, 7])
    def test_integer_planes_exact(self, rng, radius):
        # uint8-range integer planes: every SAD is exactly representable,
        # so equality is airtight regardless of summation order.
        cur = rng.integers(0, 256, size=(48, 64)).astype(np.float64)
        ref = rng.integers(0, 256, size=(48, 64)).astype(np.float64)
        np.testing.assert_array_equal(
            estimate_motion(cur, ref, search_radius=radius),
            legacy_estimate_motion(cur, ref, search_radius=radius),
        )

    def test_shifted_integer_content(self, rng):
        base = rng.integers(0, 256, size=(72, 88)).astype(np.float64)
        cur = base[5:53, 7:71]
        ref = base[2:50, 3:67]  # cur is ref shifted by (3, 4)
        np.testing.assert_array_equal(
            estimate_motion(cur, ref), legacy_estimate_motion(cur, ref)
        )

    def test_rendered_float_planes(self, g3_sequence):
        cur = _luma(g3_sequence[1].color)
        ref = _luma(g3_sequence[0].color)
        np.testing.assert_array_equal(
            estimate_motion(cur, ref), legacy_estimate_motion(cur, ref)
        )

    # block=2 and block=3 bound with whole-block sums (sub == block).
    @pytest.mark.parametrize("block", [2, 3, 4, 8])
    def test_non_multiple_dims(self, rng, block):
        cur = rng.integers(0, 256, size=(30, 43)).astype(np.float64)
        ref = rng.integers(0, 256, size=(30, 43)).astype(np.float64)
        np.testing.assert_array_equal(
            estimate_motion(cur, ref, block=block, search_radius=3),
            legacy_estimate_motion(cur, ref, block=block, search_radius=3),
        )

    def test_rendered_float_planes_128x224(self):
        game = build_game("G3")
        cur = _luma(game.render_frame(2, 224, 128).color)
        ref = _luma(game.render_frame(1, 224, 128).color)
        np.testing.assert_array_equal(
            estimate_motion(cur, ref), legacy_estimate_motion(cur, ref)
        )

    def test_constant_plane_ties_keep_zero_motion(self):
        # Every offset ties at SAD 0; nearest-first order must keep (0, 0).
        plane = np.full((32, 40), 77.0)
        mv = estimate_motion(plane, plane)
        np.testing.assert_array_equal(mv, legacy_estimate_motion(plane, plane))
        assert not mv.any()

    @pytest.mark.parametrize("phase", [0, 1])
    def test_period_two_stripes_ties_go_nearest(self, phase):
        # Columns alternate 0/255. In phase, every even dx ties at SAD 0
        # and (0, 0) must win; out of phase, the odd dx tie and the
        # interior blocks must take the nearest one, (0, -1).
        ref = np.tile(np.array([0.0, 255.0]), (32, 24))
        cur = np.roll(ref, -phase, axis=1)
        mv = estimate_motion(cur, ref)
        np.testing.assert_array_equal(mv, legacy_estimate_motion(cur, ref))
        interior = mv[:, 1:-1].reshape(-1, 2)
        expected = (0, 0) if phase == 0 else (0, -1)
        assert (interior == expected).all()

    def test_survivors_span_many_chunks(self, rng, monkeypatch):
        # Random content leaves ~10k (offset, block) pairs the bound
        # cannot rule out; a 64-window chunk makes the gather loop run
        # over a hundred times.
        monkeypatch.setattr(motion, "_SAD_CHUNK", 64)
        cur = rng.integers(0, 256, size=(48, 64)).astype(np.float64)
        ref = rng.integers(0, 256, size=(48, 64)).astype(np.float64)
        np.testing.assert_array_equal(
            estimate_motion(cur, ref), legacy_estimate_motion(cur, ref)
        )


class TestCompensateEquivalence:
    def test_random_mvs_bit_identical(self, rng):
        ref = rng.uniform(-128, 127, size=(40, 56))
        mv = rng.integers(-7, 8, size=(5, 7, 2))
        np.testing.assert_array_equal(
            compensate(ref, mv), legacy_compensate(ref, mv)
        )

    def test_out_of_bounds_mvs_bit_identical(self, rng):
        ref = rng.uniform(-128, 127, size=(16, 24))
        mv = np.array([[[100, -100], [-50, 3], [7, 99]],
                       [[0, 0], [-99, -99], [12, -1]]], dtype=np.int64)
        np.testing.assert_array_equal(
            compensate(ref, mv), legacy_compensate(ref, mv)
        )

    def test_estimated_field_bit_identical(self, g3_sequence):
        cur = _luma(g3_sequence[2].color)
        ref = _luma(g3_sequence[1].color)
        mv = estimate_motion(cur, ref)
        np.testing.assert_array_equal(
            compensate(ref, mv), legacy_compensate(ref, mv)
        )


class TestEntropyByteIdentity:
    def _both(self, blocks: np.ndarray) -> tuple[bytes, bytes]:
        fast, legacy = BitWriter(), LegacyBitWriter()
        encode_blocks(blocks, fast)
        legacy_encode_blocks(blocks, legacy)
        return fast.getvalue(), legacy.getvalue()

    def test_sparse_dense_negative(self, rng):
        sparse = np.zeros((6, 8, 8), dtype=np.int64)
        sparse[::2, 0, 0] = 9
        dense = rng.integers(-30, 30, size=(6, 8, 8))
        negative = -np.abs(rng.integers(0, 200, size=(3, 8, 8)))
        for blocks in (sparse, dense, negative):
            fast, legacy = self._both(blocks)
            assert fast == legacy

    def test_all_zero_blocks(self):
        fast, legacy = self._both(np.zeros((5, 8, 8), dtype=np.int64))
        assert fast == legacy

    def test_mid_stream_alignment(self, rng):
        """Bulk writes must compose with prior odd-bit-offset content."""
        blocks = rng.integers(-15, 15, size=(3, 4, 4))
        fast, legacy = BitWriter(), LegacyBitWriter()
        # Leave both writers mid-byte.
        fast.write_codes(np.array([0b10110]), np.array([5]))
        legacy.write_bits(0b10110, 5)
        encode_blocks(blocks, fast)
        legacy_encode_blocks(blocks, legacy)
        assert fast.getvalue() == legacy.getvalue()

    def test_large_levels(self):
        blocks = np.zeros((2, 8, 8), dtype=np.int64)
        blocks[0, 0, 0] = 2**20
        blocks[1, 7, 7] = -(2**20)
        fast, legacy = self._both(blocks)
        assert fast == legacy


class TestFrameCodecEquivalence:
    def test_gop_payloads_byte_identical(self, g3_sequence):
        frames = [f.color for f in g3_sequence[:4]]
        legacy = LegacyVideoEncoder(gop_size=4, quality=60)
        fast = VideoEncoder(gop_size=4, quality=60)
        for i, frame in enumerate(frames):
            a = legacy.encode_frame(frame)
            b = fast.encode_frame(frame)
            assert a.payload == b.payload, f"frame {i} bitstream differs"
            assert a.frame_type == b.frame_type

    def test_decoders_agree(self, g3_sequence):
        frames = [f.color for f in g3_sequence[:3]]
        enc = VideoEncoder(gop_size=3, quality=60)
        encoded = [enc.encode_frame(f) for f in frames]
        fast = VideoDecoder().decode_sequence(encoded)
        legacy = LegacyVideoDecoder()
        for e, d in zip(encoded, fast):
            np.testing.assert_allclose(
                legacy.decode_frame(e).rgb, d.rgb, atol=1e-12
            )


class TestGoldenDigest:
    """Encode a fixed rendered frame and pin the bitstream SHA-256.

    If an 'optimization' changes these digests, it changed the format or
    the encoder's decisions — that must be an explicit, documented break,
    never a silent one.  (Digests cover the payload bytes of an I-frame
    and a following P-frame of the deterministic G3 scene.)
    """

    def test_g3_bitstream_digests_stable(self, g3_sequence):
        enc = VideoEncoder(gop_size=2, quality=60)
        i_frame = enc.encode_frame(g3_sequence[0].color)
        p_frame = enc.encode_frame(g3_sequence[1].color)
        digest_i = hashlib.sha256(i_frame.payload).hexdigest()
        digest_p = hashlib.sha256(p_frame.payload).hexdigest()
        # Regenerate by re-running this encode and printing the digests.
        assert digest_i == (
            "6f0a35d38fc1c6c4b683f11902515cc1c8a0a48190368ba2a5252807f700d6c8"
        )
        assert digest_p == (
            "34e6217cdc18fdaa41009c25fdd0cbc163237e9f67e2ff95df39fc5008638de8"
        )

