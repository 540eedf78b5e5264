"""Experiment driver plumbing."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ALL_GAME_IDS,
    DEVICE_NAMES,
    _make_client,
    _run_one_session,
    perf_geometry,
    performance_sessions,
    quality_geometry,
    upscale_factor_tradeoff,
)
from repro.core.roi_sizing import plan_roi_window
from repro.platform.device import get_device
from repro.render.games import GameWorkload
from repro.streaming import server as server_module
from repro.streaming.client import GameStreamSRClient, NemoClient


class TestGeometries:
    def test_perf_geometry_native(self):
        geo = perf_geometry()
        assert geo.lr_source == "native"
        assert geo.modeled_lr_pixels == 1280 * 720

    def test_quality_geometry_antialiased(self):
        geo = quality_geometry()
        assert geo.lr_source == "downsample"
        # Same RoI-fraction as the paper: 300/720 of frame height.
        assert geo.eval_lr_height * 300 // 720 > 0


class TestConstants:
    def test_all_games_listed(self):
        assert ALL_GAME_IDS == [f"G{i}" for i in range(1, 11)]

    def test_device_names(self):
        for name in DEVICE_NAMES:
            assert get_device(name).name == name


class TestClientFactory:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_roi_window(get_device("samsung_tab_s8"))

    def test_designs_route(self, plan, tiny_runner, monkeypatch):
        import repro.analysis.experiments as exp

        monkeypatch.setattr(exp, "default_runner", lambda: tiny_runner)
        device = get_device("samsung_tab_s8")
        assert isinstance(_make_client("gamestreamsr", device, plan), GameStreamSRClient)
        assert isinstance(_make_client("nemo", device, plan), NemoClient)

    def test_unknown_design(self, plan, tiny_runner, monkeypatch):
        import repro.analysis.experiments as exp

        monkeypatch.setattr(exp, "default_runner", lambda: tiny_runner)
        with pytest.raises(ValueError, match="unknown design"):
            _make_client("magic", get_device("samsung_tab_s8"), plan)


class TestTradeoffDriver:
    def test_factor_points_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = upscale_factor_tradeoff(factors=(2, 4), target=(64, 112))
        assert [p.factor for p in points] == [2, 4]
        assert points[0].npu_latency_ms > points[1].npu_latency_ms
        # second call hits the cache (same object content)
        again = upscale_factor_tradeoff(factors=(2, 4), target=(64, 112))
        assert [p.bilinear_psnr_db for p in again] == [p.bilinear_psnr_db for p in points]


class TestSessionDriver:
    def test_sessions_stream_a_live_game_on_the_memo(self, tiny_runner, monkeypatch):
        import repro.analysis.experiments as exp

        monkeypatch.setattr(exp, "default_runner", lambda: tiny_runner)
        servers = []
        monkeypatch.setattr(
            exp, "run_session", lambda server, client, **kw: servers.append(server)
        )
        _run_one_session(
            "G3", "samsung_tab_s8", "gamestreamsr", perf_geometry(),
            n_frames=2, gop_size=2, quality=70, evaluate_quality=False,
        )
        (server,) = servers
        assert type(server.game) is GameWorkload
        assert server.game.game_id == "G3"
        assert server.roi_side is not None
        assert server_module._memo_keys(server)[1] is not None

    @pytest.mark.parametrize("cache", ["disabled", "fresh"])
    def test_cells_of_one_game_render_each_frame_once(
        self, cache, tiny_runner, tmp_path, monkeypatch
    ):
        import repro.analysis.experiments as exp

        if cache == "disabled":
            monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(exp, "default_runner", lambda: tiny_runner)
        exp._game.cache_clear()
        calls = []
        render_frame = GameWorkload.render_frame

        def counting(game, index, *args, **kwargs):
            calls.append((game.game_id, index))
            return render_frame(game, index, *args, **kwargs)

        monkeypatch.setattr(GameWorkload, "render_frame", counting)
        out = performance_sessions(
            "samsung_tab_s8", game_ids=("G1", "G3"), n_frames=4, workers=1
        )
        exp._game.cache_clear()
        assert {design: sorted(cells) for design, cells in out.items()} == {
            "gamestreamsr": ["G1", "G3"],
            "nemo": ["G1", "G3"],
        }
        # Both designs of a game stream one game object back to back, so
        # the second replays the first's renders from the server memo.
        assert len(calls) == len(set(calls)) == 2 * 4
