"""Device profiles, latency model (paper anchors), probe, eye tracking."""

from __future__ import annotations

import pytest

from repro.platform import calibration as cal
from repro.platform.benchmark import max_realtime_roi_side
from repro.platform.device import DisplaySpec, get_device, pixel_7_pro, samsung_tab_s8
from repro.platform.eyetracking import eyetracking_cost
from repro.platform.latency import (
    cpu_bilinear_ms,
    cpu_warp_ms,
    decode_ms,
    gpu_bilinear_ms,
    npu_sr_latency_ms,
    server_gpu_utilization,
    transmission_ms,
)


@pytest.fixture(scope="module")
def s8():
    return samsung_tab_s8()


@pytest.fixture(scope="module")
def pixel():
    return pixel_7_pro()


class TestDevices:
    def test_get_device(self, s8):
        assert get_device("samsung_tab_s8").name == s8.name
        with pytest.raises(ValueError, match="unknown device"):
            get_device("iphone")

    def test_display_specs_match_datasheets(self, s8, pixel):
        assert (s8.display.width_px, s8.display.height_px) == (2560, 1600)
        assert s8.display.ppi == 274.0  # paper's cited GSMArena value
        assert pixel.display.ppi == 512.0

    def test_with_overrides(self, s8):
        slow = s8.with_overrides(npu_a_ms_per_px=s8.npu_a_ms_per_px * 10)
        assert slow.npu_a_ms_per_px > s8.npu_a_ms_per_px
        assert s8.npu_a_ms_per_px == samsung_tab_s8().npu_a_ms_per_px  # original intact

    def test_display_spec_validation(self):
        with pytest.raises(ValueError):
            DisplaySpec(0, 100, 300)
        with pytest.raises(ValueError):
            DisplaySpec(100, 100, -1)


class TestNPUAnchors:
    """The latency model must hit every number the paper publishes."""

    def test_s8_roi_anchor(self, s8):
        assert npu_sr_latency_ms(300 * 300, s8) == pytest.approx(16.2, abs=0.1)

    def test_s8_fullframe_anchor(self, s8):
        # 4.6 FPS reference-frame rate (Sec. V-B) -> 217.4 ms at 720p.
        assert npu_sr_latency_ms(1280 * 720, s8) == pytest.approx(217.4, rel=0.01)

    def test_pixel_roi_anchor(self, pixel):
        assert npu_sr_latency_ms(300 * 300, pixel) == pytest.approx(16.4, abs=0.1)

    def test_pixel_fullframe_anchor(self, pixel):
        # 4.3 FPS -> 232.6 ms (Fig. 10c shows ~233 ms upscaling for SOTA).
        assert npu_sr_latency_ms(1280 * 720, pixel) == pytest.approx(232.6, rel=0.01)

    def test_monotone_in_pixels(self, s8):
        lat = [npu_sr_latency_ms(px, s8) for px in (1e4, 1e5, 5e5, 1e6)]
        assert lat == sorted(lat)

    def test_superlinear_at_scale(self, s8):
        """The saturation term makes 10x pixels cost more than 10x time."""
        ratio = npu_sr_latency_ms(900_000, s8) / npu_sr_latency_ms(90_000, s8)
        assert ratio > 10.0

    def test_negative_pixels_rejected(self, s8):
        with pytest.raises(ValueError):
            npu_sr_latency_ms(-1, s8)


class TestOtherLatencies:
    def test_gpu_bilinear_anchor(self, s8):
        # Fig. 9: non-RoI bilinear on the S8 GPU takes 1.4 ms.
        assert gpu_bilinear_ms(1280 * 720 - 300 * 300, s8) == pytest.approx(1.4, abs=0.05)

    def test_gpu_bilinear_zero_pixels(self, s8):
        assert gpu_bilinear_ms(0, s8) == 0.0

    def test_nemo_nonref_stage_anchor(self, s8):
        # Sec. V-B: MV/residual upscale + HR reconstruction ~= 25 ms = 1.5x ours.
        stage = cpu_bilinear_ms(1280 * 720, s8) + cpu_warp_ms(2560 * 1440, s8)
        assert stage == pytest.approx(25.0, abs=0.5)
        assert stage / 16.2 == pytest.approx(1.5, abs=0.1)

    def test_decoder_hardware_vs_software(self, s8):
        px = 1280 * 720
        assert decode_ms(px, s8, hardware=True) < decode_ms(px, s8, hardware=False)

    def test_server_gpu_utilization_anchors(self):
        # Sec. IV-B2: 79 % at 1440p, 52 % at 720p on the GTX 3080 Ti.
        assert server_gpu_utilization(1280 * 720) == pytest.approx(52.0, rel=0.01)
        assert server_gpu_utilization(2560 * 1440) == pytest.approx(79.0, rel=0.01)

    def test_transmission_scales_with_bytes(self):
        assert transmission_ms(100_000) > transmission_ms(10_000) > transmission_ms(0)
        with pytest.raises(ValueError):
            transmission_ms(-5)
        with pytest.raises(ValueError):
            transmission_ms(10, bandwidth_mbps=0)


class TestProbe:
    def test_max_roi_near_paper_300(self, s8, pixel):
        # Sec. IV-B1: the real-time maximum on both devices is ~300 px.
        assert abs(max_realtime_roi_side(s8) - 300) <= 10
        assert abs(max_realtime_roi_side(pixel) - 300) <= 10

    def test_probe_respects_deadline(self, s8):
        side = max_realtime_roi_side(s8)
        assert npu_sr_latency_ms(side**2, s8) <= cal.REALTIME_DEADLINE_MS
        assert npu_sr_latency_ms((side + 1) ** 2, s8) > cal.REALTIME_DEADLINE_MS

    def test_larger_deadline_larger_window(self, s8):
        assert max_realtime_roi_side(s8, 33.3) > max_realtime_roi_side(s8, 16.66)

    def test_invalid_deadline(self, s8):
        with pytest.raises(ValueError):
            max_realtime_roi_side(s8, 0)


class TestEyeTracking:
    def test_paper_power_anchor(self, pixel):
        # Sec. III-A: the Pixel 7 Pro draws an extra 2.8 W for camera gaze.
        cost = eyetracking_cost(pixel)
        assert cost.power_w == 2.8
        assert cost.energy_per_frame_mj == pytest.approx(2800 / 60, rel=1e-6)

    def test_battery_drain(self, pixel):
        cost = eyetracking_cost(pixel, battery_wh=19.0)
        assert cost.battery_drain_pct_per_hour == pytest.approx(2.8 / 19 * 100, rel=1e-6)

    def test_validation(self, pixel):
        with pytest.raises(ValueError):
            eyetracking_cost(pixel, fps=0)
        with pytest.raises(ValueError):
            eyetracking_cost(pixel, battery_wh=0)

    def test_eyetracking_dwarfs_roi_detection(self, pixel):
        """The paper's motivation: server-side depth RoI costs the client 0 W."""
        assert eyetracking_cost(pixel).power_w > 1.0
