"""Session driver and aggregation."""

from __future__ import annotations

import pytest

from repro.network.link import NetworkLink
from repro.platform.device import samsung_tab_s8
from repro.platform.energy import EnergyBreakdown
from repro.render.games import build_game
from repro.sr.backends import build_backend
from repro.sr.dispatch import DifficultyDispatcher
from repro.streaming.abr import ABRController
from repro.streaming.adaptive import AdaptiveRoIController
from repro.streaming.client import BilinearClient, GameStreamSRClient
from repro.streaming.frames import StreamGeometry
from repro.streaming.server import GameStreamServer
from repro.streaming.session import SessionConfig, run_session

GEO = StreamGeometry(eval_lr_height=48, eval_lr_width=80, lr_source="native")


@pytest.fixture(scope="module")
def session(tiny_runner):
    device = samsung_tab_s8()
    server = GameStreamServer(build_game("G9"), GEO, roi_side=20, gop_size=3, quality=60)
    client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
    return run_session(server, client, n_frames=6)


class TestAggregation:
    def test_record_count_and_types(self, session):
        assert len(session.records) == 6
        assert [r.frame_type for r in session.records] == ["I", "P", "P", "I", "P", "P"]

    def test_mean_upscale_by_type(self, session):
        assert session.mean_upscale_ms(True) > 0
        assert session.mean_upscale_ms(False) > 0
        assert session.mean_upscale_ms() > 0

    def test_fps_inverse_of_latency(self, session):
        assert session.upscale_fps() == pytest.approx(1000.0 / session.mean_upscale_ms())

    def test_mtp_contains_all_stages(self, session):
        mtp = session.mean_mtp()
        assert mtp.total_ms > mtp.stage("upscale")
        assert mtp.stage("network") > 0

    def test_energy_breakdown(self, session):
        energy = session.mean_energy()
        assert isinstance(energy, EnergyBreakdown)
        assert energy.total > 0
        assert energy.upscale > energy.decode

    def test_gop_weighting(self, session):
        w1 = session.gop_weighted_upscale_ms(1)
        w60 = session.gop_weighted_upscale_ms(60)
        assert w1 == pytest.approx(session.mean_upscale_ms(True))
        # Ours: ref and non-ref cost the same, so weighting barely moves.
        assert w60 == pytest.approx(session.mean_upscale_ms(False), rel=0.05)
        energy60 = session.gop_weighted_energy(60)
        assert energy60.total > 0
        with pytest.raises(ValueError):
            session.gop_weighted_upscale_ms(0)

    def test_quality_unavailable_raises(self, session):
        with pytest.raises(ValueError, match="quality"):
            session.mean_psnr()
        with pytest.raises(ValueError, match="quality"):
            session.mean_lpips()

    def test_realtime_conformance(self, session):
        assert session.realtime_conformant()

    def test_bitrate(self, session):
        assert session.mean_bitrate_mbps() > 0


class TestQualityPath:
    def test_quality_evaluation(self, tiny_runner):
        geo = StreamGeometry(eval_lr_height=48, eval_lr_width=80, lr_source="downsample")
        server = GameStreamServer(build_game("G9"), geo, roi_side=None, gop_size=3)
        result = run_session(server, BilinearClient(samsung_tab_s8()), n_frames=3, evaluate_quality=True)
        assert len(result.psnr_series()) == 3
        assert result.mean_psnr() > 20

    def test_n_frames_validation(self, tiny_runner):
        server = GameStreamServer(build_game("G9"), GEO, roi_side=None, gop_size=3)
        with pytest.raises(ValueError):
            run_session(server, BilinearClient(samsung_tab_s8()), n_frames=0)


class TestSessionConfig:
    """Every knob-combination rule, checked on the config itself."""

    ABR = ABRController(initial_side=300, min_side=200, max_side=720)
    ADAPTIVE = AdaptiveRoIController(initial_side=300, min_side=200, max_side=720)
    BACKEND = build_backend("bilinear_gpu")
    DISPATCH = DifficultyDispatcher([BACKEND], budget_ms=8.0)

    def test_defaults_construct(self):
        config = SessionConfig()
        assert config.resolve_link() is None
        assert config.abr is None and not config.gop_reuse

    @pytest.mark.parametrize(
        "knobs, error, match",
        [
            (dict(abr=ABR, scenario="wifi_stable", adaptive=ADAPTIVE),
             ValueError, "abr= is mutually exclusive with adaptive"),
            (dict(abr=ABR, scenario="wifi_stable", gop_reuse=True),
             ValueError, "abr= is mutually exclusive with gop_reuse"),
            (dict(abr=ABR, scenario="wifi_stable", sr_backend=BACKEND),
             ValueError, "abr= is mutually exclusive with sr_backend"),
            (dict(abr=ABR, scenario="wifi_stable", dispatch=DISPATCH),
             ValueError, "abr= is mutually exclusive with dispatch"),
            (dict(gop_reuse=True, dispatch=DISPATCH),
             ValueError, "mutually exclusive SR execution knobs"),
            (dict(sr_backend=BACKEND, dispatch=DISPATCH),
             ValueError, "mutually exclusive SR execution knobs"),
            (dict(lpips_stride=0), ValueError, "lpips_stride"),
            (dict(scenario=42), TypeError, "scenario must be"),
            (dict(abr=ABR), ValueError, "needs a link"),
            (dict(link=NetworkLink(bandwidth_mbps=20.0, propagation_ms=8.0)),
             TypeError, "link"),
        ],
        ids=[
            "abr+adaptive", "abr+gop_reuse", "abr+sr_backend", "abr+dispatch",
            "gop_reuse+dispatch", "sr_backend+dispatch",
            "lpips_stride=0", "scenario=42", "abr-without-scenario",
            "removed-link-knob",
        ],
    )
    def test_rejected(self, knobs, error, match):
        with pytest.raises(error, match=match):
            SessionConfig(**knobs)

    def test_gop_reuse_composes_with_sr_backend(self):
        config = SessionConfig(gop_reuse=True, sr_backend=self.BACKEND)
        assert config.gop_reuse and config.sr_backend is self.BACKEND

    def test_holds_the_callers_objects(self):
        link = NetworkLink(bandwidth_mbps=20.0, propagation_ms=8.0)
        config = SessionConfig(abr=self.ABR, scenario=link)
        assert config.abr is self.ABR
        assert config.resolve_link() is link
