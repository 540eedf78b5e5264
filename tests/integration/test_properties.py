"""Cross-module property-based tests (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.decoder import VideoDecoder
from repro.codec.encoder import VideoEncoder
from repro.core.roi_search import RoIBox, search_roi_scored
from repro.metrics.psnr import psnr
from repro.sr.interpolate import bilinear


class TestCodecProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(16, 33), st.integers(16, 33), st.just(3)),
            elements=st.floats(0.0, 1.0, width=16),
        )
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_intra_roundtrip_bounded_error(self, frame):
        """Any valid frame survives an I-frame round trip with a loose
        PSNR floor. Per-pixel binary noise is pathological for 4:2:0
        chroma subsampling, so the floor is deliberately generous — the
        tight fidelity checks live in tests/codec on realistic frames."""
        encoder = VideoEncoder(gop_size=1, quality=85)
        decoded = VideoDecoder().decode_frame(encoder.encode_frame(frame))
        assert decoded.rgb.shape == frame.shape
        assert psnr(frame, decoded.rgb) > 14.0

    def test_intra_roundtrip_smooth_frame_high_fidelity(self):
        """A band-limited frame (what cameras/renderers produce) round
        trips at high fidelity — the complement of the adversarial case."""
        ys, xs = np.mgrid[0:32, 0:32]
        frame = np.stack(
            [
                0.5 + 0.4 * np.sin(xs / 5.0),
                0.5 + 0.4 * np.cos(ys / 7.0),
                0.5 + 0.3 * np.sin((xs + ys) / 9.0),
            ],
            axis=-1,
        )
        encoder = VideoEncoder(gop_size=1, quality=85)
        decoded = VideoDecoder().decode_frame(encoder.encode_frame(frame))
        assert psnr(frame, decoded.rgb) > 32.0

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_static_sequence_p_frames_cheap(self, n_frames):
        """A perfectly static stream produces tiny P-frames."""
        rng = np.random.default_rng(0)
        frame = rng.uniform(size=(24, 32, 3))
        encoder = VideoEncoder(gop_size=n_frames + 1, quality=60)
        encoded = encoder.encode_sequence([frame] * (n_frames + 1))
        for p_frame in encoded[1:]:
            assert p_frame.size_bytes < encoded[0].size_bytes / 2


class TestSearchProperties:
    @given(
        st.integers(8, 30),
        st.integers(8, 30),
        st.integers(2, 6),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_search_returns_valid_box(self, h, w, win, seed):
        values = np.random.default_rng(seed).uniform(size=(h, w))
        win = min(win, h, w)
        box = search_roi_scored(values, win, win, fine_stride=1).box
        assert 0 <= box.x <= w - win
        assert 0 <= box.y <= h - win
        assert box.width == box.height == win

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_search_never_beats_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(size=(20, 24))
        box = search_roi_scored(values, 6, 6, fine_stride=1).box
        found = values[box.y : box.y + 6, box.x : box.x + 6].sum()
        best = max(
            values[y : y + 6, x : x + 6].sum()
            for y in range(15)
            for x in range(19)
        )
        assert found <= best + 1e-9


class TestUpscalingProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(4, 12), st.integers(4, 12)),
            elements=st.floats(0.0, 1.0, width=16),
        ),
        st.integers(2, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_bilinear_stays_in_hull(self, image, factor):
        """Bilinear interpolation never exceeds the input value range."""
        out = bilinear(image, image.shape[0] * factor, image.shape[1] * factor)
        assert out.min() >= image.min() - 1e-9
        assert out.max() <= image.max() + 1e-9

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_roibox_clamp_idempotent(self, x, y):
        box = RoIBox(x * 3, y * 2, 5, 5)
        clamped = box.clamped(20, 20)
        assert clamped.clamped(20, 20) == clamped


class TestMetricProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.just((8, 8)),
            elements=st.floats(0.0, 1.0, width=16),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_psnr_symmetry(self, image):
        other = 1.0 - image
        if np.allclose(image, other):
            pytest.skip("degenerate all-0.5 image")
        assert psnr(image, other) == pytest.approx(psnr(other, image))
