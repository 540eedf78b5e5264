"""Cross-module integration: the paper's headline orderings on a mini run.

These use the tiny SR profile and small frames, so the *absolute* numbers
are not the paper's — but every ordering the paper claims must hold:
GameStreamSR is real-time where NEMO is not, saves energy, and keeps
quality between bilinear and full-frame SR.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.platform import calibration as cal
from repro.platform.device import pixel_7_pro, samsung_tab_s8
from repro.render.games import build_game
from repro.streaming.client import (
    BilinearClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
)
from repro.streaming.frames import StreamGeometry
from repro.streaming.mtp import mtp_from_trace
from repro.streaming.pipeline import CLIENT_STAGES, SERVER_STAGES
from repro.streaming.server import GameStreamServer
from repro.streaming.session import run_session

GEO = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")
N = 6


@pytest.fixture(scope="module")
def sessions(tiny_runner):
    device = samsung_tab_s8()
    plan = plan_roi_window(device)
    out = {}
    for design, make in {
        "ours": lambda: GameStreamSRClient(device, tiny_runner, modeled_roi_side=plan.side),
        "nemo": lambda: NemoClient(device, tiny_runner),
        "bilinear": lambda: BilinearClient(device),
        "future": lambda: SRIntegratedDecoderClient(device, tiny_runner),
    }.items():
        roi = plan.side_for_frame(64) if design in ("ours", "future") else None
        server = GameStreamServer(build_game("G3"), GEO, roi_side=roi, gop_size=N, quality=70)
        out[design] = run_session(server, make(), n_frames=N)
    return out


class TestPaperOrderings:
    def test_reference_speedup_about_13x(self, sessions):
        speedup = sessions["nemo"].mean_upscale_ms(True) / sessions["ours"].mean_upscale_ms(True)
        assert 11.0 < speedup < 16.0

    def test_nonreference_speedup_above_1_4x(self, sessions):
        speedup = sessions["nemo"].mean_upscale_ms(False) / sessions["ours"].mean_upscale_ms(False)
        assert speedup > 1.4

    def test_ours_realtime_nemo_not(self, sessions):
        assert sessions["ours"].realtime_conformant()
        assert not sessions["nemo"].realtime_conformant()

    def test_gop60_speedup_about_2x(self, sessions):
        ratio = sessions["nemo"].gop_weighted_upscale_ms(60) / sessions[
            "ours"
        ].gop_weighted_upscale_ms(60)
        assert 1.5 < ratio < 2.6

    def test_mtp_improvement_about_4x(self, sessions):
        ours = sessions["ours"].mean_mtp(True).total_ms
        nemo = sessions["nemo"].mean_mtp(True).total_ms
        assert 3.0 < nemo / ours < 5.5
        assert ours < 70.0  # the paper's headline bound

    def test_mtp_within_cloud_gaming_budget(self, sessions):
        for reference in (True, False):
            assert sessions["ours"].mean_mtp(reference).total_ms < cal.MTP_FAST_PACED_MS

    def test_energy_savings_positive(self, sessions):
        ours = sessions["ours"].gop_weighted_energy(60).total
        nemo = sessions["nemo"].gop_weighted_energy(60).total
        assert 0.15 < 1 - ours / nemo < 0.45

    def test_future_decoder_saves_further_energy(self, sessions):
        """Fig. 15 prototype: bypassing the NPU on non-reference frames
        should cut upscaling energy well below the base design."""
        ours = sessions["ours"].gop_weighted_energy(60)
        future = sessions["future"].gop_weighted_energy(60)
        assert future.total < 0.8 * ours.total

    def test_bandwidth_against_2k_streaming(self, sessions):
        """Streaming LR + RoI uses far less bandwidth than native 2K."""
        lr_bitrate = sessions["ours"].mean_bitrate_mbps()
        assert lr_bitrate < 60.0  # sane absolute magnitude


class TestQualityOrderings:
    @pytest.fixture(scope="class")
    def quality(self, tiny_runner):
        geo = StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="downsample")
        device = samsung_tab_s8()
        plan = plan_roi_window(device)
        out = {}
        for design, client in {
            "ours": GameStreamSRClient(device, tiny_runner, modeled_roi_side=plan.side),
            "bilinear": BilinearClient(device),
        }.items():
            roi = plan.side_for_frame(64) if design == "ours" else None
            server = GameStreamServer(build_game("G3"), geo, roi_side=roi, gop_size=4, quality=70)
            out[design] = run_session(server, client, n_frames=4, evaluate_quality=True)
        return out

    def test_ours_at_least_bilinear(self, quality):
        assert quality["ours"].mean_psnr() >= quality["bilinear"].mean_psnr() - 0.1

    def test_psnr_stable_across_gop(self, quality):
        series = quality["ours"].psnr_series()
        assert max(series) - min(series) < 2.0


class TestCrossDevice:
    def test_both_devices_run(self, tiny_runner):
        for device in (samsung_tab_s8(), pixel_7_pro()):
            plan = plan_roi_window(device)
            server = GameStreamServer(
                build_game("G10"), GEO, roi_side=plan.side_for_frame(64), gop_size=2
            )
            client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=plan.side)
            result = run_session(server, client, n_frames=2)
            assert result.realtime_conformant()

    def test_mtp_assembly(self, tiny_runner):
        device = samsung_tab_s8()
        server = GameStreamServer(build_game("G1"), GEO, roi_side=24, gop_size=2)
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        frame = server.next_frame()
        result = client.process(frame)
        mtp = mtp_from_trace(frame.trace.extend(result.trace))
        assert mtp.total_ms == pytest.approx(
            sum(frame.trace.timings_ms(SERVER_STAGES).values())
            + sum(result.trace.timings_ms(CLIENT_STAGES).values())
        )
