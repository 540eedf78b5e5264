"""Server pipeline and the five client designs on short real sessions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform import calibration as cal
from repro.platform.device import samsung_tab_s8
from repro.render.games import build_game
from repro.streaming.client import (
    BilinearClient,
    FullFrameSRClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
)
from repro.streaming.frames import StreamGeometry
from repro.streaming.pipeline import SERVER_STAGES
from repro.streaming.server import GameStreamServer

GEO = StreamGeometry(eval_lr_height=48, eval_lr_width=80, lr_source="native")
N = 4


@pytest.fixture(scope="module")
def device():
    return samsung_tab_s8()


def make_server(roi_side=20, gop=N):
    return GameStreamServer(build_game("G5"), GEO, roi_side=roi_side, gop_size=gop, quality=60)


class TestServer:
    def test_frame_sequence_structure(self):
        server = make_server(gop=2)
        frames = [server.next_frame() for _ in range(4)]
        assert [f.encoded.frame_type for f in frames] == ["I", "P", "I", "P"]
        assert [f.index for f in frames] == [0, 1, 2, 3]

    def test_roi_attached_and_in_bounds(self):
        frame = make_server().next_frame()
        assert frame.roi is not None
        assert frame.roi.x_end <= 80 and frame.roi.y_end <= 48

    def test_roi_disabled_for_sota(self):
        server = make_server(roi_side=None)
        frame = server.next_frame()
        assert frame.roi is None
        assert frame.trace.timings_ms(SERVER_STAGES)["roi_detect"] == 0.0

    def test_server_timing_stages(self):
        timings = make_server().next_frame().trace.timings_ms(SERVER_STAGES)
        for stage in ("input", "game_logic", "render", "encode", "network"):
            assert timings[stage] > 0
        assert timings["roi_detect"] == cal.SERVER_ROI_DETECT_MS

    def test_modeled_bytes_extrapolated(self):
        frame = make_server().next_frame()
        assert frame.modeled_size_bytes > frame.encoded.size_bytes

    def test_downsample_mode_shares_hr_render(self):
        geo = StreamGeometry(eval_lr_height=48, eval_lr_width=80, lr_source="downsample")
        server = GameStreamServer(build_game("G5"), geo, roi_side=20, gop_size=2)
        frame = server.next_frame()
        hr = server.render_hr_reference(frame.index)
        assert hr.shape == (96, 160, 3)
        lr = server.render_lr(frame.index)
        np.testing.assert_allclose(
            lr.color, hr.reshape(48, 2, 80, 2, 3).mean(axis=(1, 3)), atol=1e-12
        )


class TestClients:
    def run_one(self, client, roi_side=20):
        server = make_server(roi_side=roi_side)
        return [client.process(server.next_frame()) for _ in range(N)]

    def test_gamestreamsr_realtime(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        results = self.run_one(client)
        for r in results:
            assert r.hr_frame.shape == (96, 160, 3)
            assert r.upscale_ms <= cal.REALTIME_DEADLINE_MS
        assert [r.frame_type for r in results[:2]] == ["I", "P"]

    def test_gamestreamsr_requires_roi(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner)
        server = make_server(roi_side=None)
        with pytest.raises(ValueError, match="RoI"):
            client.process(server.next_frame())

    def test_nemo_reference_slow_nonref_medium(self, device, tiny_runner):
        results = self.run_one(NemoClient(device, tiny_runner), roi_side=None)
        ref, nonref = results[0], results[1]
        assert ref.upscale_ms > 200.0  # full-frame DNN SR
        assert 16.66 < nonref.upscale_ms < 40.0
        assert ref.hr_frame.shape == (96, 160, 3)

    def test_nemo_energy_categories(self, device, tiny_runner):
        results = self.run_one(NemoClient(device, tiny_runner), roi_side=None)
        nonref = results[1]
        # NEMO's warp energy is charged to decode (calibration note).
        components = [c for c, _ in nonref.trace.energy_stages()["decode"]]
        assert len(components) == 2

    def test_bilinear_fastest(self, device):
        results = self.run_one(BilinearClient(device), roi_side=None)
        assert all(r.upscale_ms < 2.0 for r in results)

    def test_fullframe_sr_always_slow(self, device, tiny_runner):
        results = self.run_one(FullFrameSRClient(device, tiny_runner), roi_side=None)
        assert all(r.upscale_ms > 200.0 for r in results)

    def test_sr_integrated_decoder_bypasses_npu_on_nonref(self, device, tiny_runner):
        results = self.run_one(SRIntegratedDecoderClient(device, tiny_runner))
        ref, nonref = results[0], results[1]
        assert ref.upscale_ms > 0
        assert nonref.upscale_ms == 0.0
        assert nonref.trace.energy_stages()["upscale"] == []

    def test_reset_clears_reference_state(self, device, tiny_runner):
        client = NemoClient(device, tiny_runner)
        self.run_one(client, roi_side=None)
        client.reset()
        assert client._hr_reference is None

    def test_outputs_differ_between_designs(self, device, tiny_runner):
        ours = self.run_one(GameStreamSRClient(device, tiny_runner))
        bili = self.run_one(BilinearClient(device))
        assert not np.allclose(ours[0].hr_frame, bili[0].hr_frame)
