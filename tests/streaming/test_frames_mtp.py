"""Stream geometry, frame datatypes, and MTP accounting."""

from __future__ import annotations

import pytest

from repro.core.roi_search import RoIBox
from repro.streaming.frames import ROI_METADATA_BYTES, StreamGeometry
from repro.streaming.mtp import MTP_STAGES, MTPBreakdown


class TestGeometry:
    def test_defaults_model_720p(self):
        geo = StreamGeometry()
        assert geo.modeled_lr_pixels == 1280 * 720
        assert geo.modeled_hr_pixels == 2560 * 1440

    def test_pixel_and_byte_scale(self):
        geo = StreamGeometry(eval_lr_height=128, eval_lr_width=224)
        assert geo.pixel_scale == pytest.approx(921600 / (128 * 224))
        # Bytes extrapolate sublinearly (rate-resolution exponent 0.75).
        assert geo.byte_scale == pytest.approx(geo.pixel_scale**0.75)
        assert geo.byte_scale < geo.pixel_scale

    def test_modeled_roi_pixels(self):
        geo = StreamGeometry(eval_lr_height=128, eval_lr_width=224)
        roi = RoIBox(0, 0, 54, 54)
        modeled = geo.modeled_roi_pixels(roi)
        # 54/128 of frame height -> about (300/720)^2 of the modeled frame.
        assert modeled == pytest.approx(54 * 54 * geo.pixel_scale, abs=1)
        assert geo.modeled_roi_pixels(None) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamGeometry(eval_lr_height=1)
        with pytest.raises(ValueError):
            StreamGeometry(scale=0)
        with pytest.raises(ValueError):
            StreamGeometry(lr_source="magic")

    def test_roi_metadata_size(self):
        assert ROI_METADATA_BYTES == 16  # 4 x u32 coordinates


class TestMTP:
    def test_total(self):
        mtp = MTPBreakdown({"input": 5.0, "decode": 3.0, "upscale": 16.0})
        assert mtp.total_ms == 24.0
        assert mtp.stage("render") == 0.0

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown MTP"):
            MTPBreakdown({"teleport": 1.0})

    def test_mean(self):
        a = MTPBreakdown({"decode": 2.0})
        b = MTPBreakdown({"decode": 4.0, "upscale": 10.0})
        mean = MTPBreakdown.mean([a, b])
        assert mean.stage("decode") == 3.0
        assert mean.stage("upscale") == 5.0
        with pytest.raises(ValueError):
            MTPBreakdown.mean([])

    def test_stage_ordering_matches_pipeline(self):
        assert MTP_STAGES[0] == "input"
        assert MTP_STAGES[-1] == "display"
        assert MTP_STAGES.index("decode") > MTP_STAGES.index("network")
