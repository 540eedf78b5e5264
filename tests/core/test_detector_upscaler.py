"""RoIDetector (server) and RoIAssistedUpscaler (client) integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detector import RoIDetection, RoIDetector
from repro.core.roi_search import RoIBox
from repro.core.upscaler import RoIAssistedUpscaler
from repro.render.games import GAME_TABLE, build_game
from repro.sr.interpolate import bilinear


class TestDetector:
    def test_detects_synthetic_blob(self, synthetic_depth):
        detection = RoIDetector(16).detect(synthetic_depth)
        assert isinstance(detection, RoIDetection)
        blob = RoIBox(34, 24, 16, 16)
        assert detection.box.intersection_area(blob) > 0

    def test_box_inside_frame(self, synthetic_depth):
        box = RoIDetector(16).detect(synthetic_depth).box
        assert box.x_end <= 80 and box.y_end <= 60

    def test_window_clamped_to_frame(self):
        box = RoIDetector(500).detect(np.full((40, 50), 0.5)).box
        assert box.width == 40 and box.height == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            RoIDetector(1)
        with pytest.raises(ValueError):
            RoIDetector(16).detect(np.zeros((4, 4, 3)))

    @pytest.mark.parametrize("game_id", [g for g, _, _ in GAME_TABLE])
    def test_centers_on_subject_for_every_game(self, game_id):
        """The paper's key behaviour: depth-guided RoI lands on the
        centre-biased foreground subject in all ten genres."""
        frame = build_game(game_id).render_frame(5, 224, 128)
        box = RoIDetector(54).detect(frame.depth).box
        cx, cy = box.center
        assert abs(cx - 112) < 40, f"{game_id}: RoI x={cx} far from centre"
        assert abs(cy - 64) < 48, f"{game_id}: RoI y={cy} far from centre"

    def test_detection_is_deterministic(self, g3_frame):
        a = RoIDetector(24).detect(g3_frame.depth).box
        b = RoIDetector(24).detect(g3_frame.depth).box
        assert a == b


class TestHybridUpscaler:
    @pytest.fixture(scope="class")
    def upscaled(self, tiny_runner):
        rng = np.random.default_rng(0)
        frame = rng.uniform(size=(32, 48, 3))
        roi = RoIBox(10, 8, 16, 16)
        result = RoIAssistedUpscaler(tiny_runner).upscale(frame, roi)
        return frame, roi, result

    def test_output_shape(self, upscaled):
        frame, roi, result = upscaled
        assert result.frame.shape == (64, 96, 3)
        assert result.output_pixels == 64 * 96

    def test_outside_roi_is_bilinear(self, upscaled):
        """Non-RoI pixels must exactly match the GPU bilinear path."""
        frame, roi, result = upscaled
        reference = bilinear(frame, 64, 96)
        hr_roi = roi.scaled(2)
        mask = np.ones((64, 96), dtype=bool)
        mask[hr_roi.y : hr_roi.y_end, hr_roi.x : hr_roi.x_end] = False
        np.testing.assert_allclose(result.frame[mask], reference[mask], atol=1e-12)

    def test_inside_roi_is_dnn(self, upscaled, tiny_runner):
        frame, roi, result = upscaled
        expected = tiny_runner.upscale(roi.extract(frame))
        hr_roi = result.roi_hr
        np.testing.assert_allclose(
            result.frame[hr_roi.y : hr_roi.y_end, hr_roi.x : hr_roi.x_end],
            expected,
            atol=1e-12,
        )

    def test_pixel_accounting(self, upscaled):
        frame, roi, result = upscaled
        assert result.roi_pixels == roi.area
        assert result.non_roi_pixels == 32 * 48 - roi.area

    def test_roi_must_fit(self, tiny_runner):
        upscaler = RoIAssistedUpscaler(tiny_runner)
        with pytest.raises(ValueError, match="exceeds frame"):
            upscaler.upscale(np.zeros((16, 16, 3)), RoIBox(10, 10, 10, 10))

    def test_frame_shape_validation(self, tiny_runner):
        with pytest.raises(ValueError):
            RoIAssistedUpscaler(tiny_runner).upscale(np.zeros((16, 16)), RoIBox(0, 0, 4, 4))
