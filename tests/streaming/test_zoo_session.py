"""Zoo backend / dispatch session plumbing: identity, knobs, observability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.codec.decoder import VideoDecoder
from repro.neural.models import QuickSRNet
from repro.observability import (
    MetricsRegistry,
    canonicalize_session_trace,
    observe_frame_trace,
    validate_session_trace,
)
from repro.platform.device import samsung_tab_s8
from repro.platform.energy import Component
from repro.render.games import build_game
from repro.sr.backends import build_backend
from repro.sr.dispatch import DifficultyDispatcher
from repro.sr.backends import NeuralBackend
from repro.sr.runner import SRRunner
from repro.sr.gop_reuse import REUSE_DIRTY_THRESHOLD
from repro.streaming.client import (
    BilinearClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
    _dirty_mask,
)
from repro.streaming.frames import StreamGeometry
from repro.streaming.server import GameStreamServer
from repro.streaming.session import run_session

from ._replay import replay_twice

GEO = StreamGeometry(eval_lr_height=48, eval_lr_width=80, lr_source="native")
N = 6


@pytest.fixture(scope="module")
def device():
    return samsung_tab_s8()


@pytest.fixture(scope="module")
def quicksrnet_backend():
    # Identity-initialized (untrained ~ nearest): a usable small net with
    # no training cost in the test suite.
    runner = SRRunner(QuickSRNet(scale=2, n_convs=1, feats=8, seed=0))
    return NeuralBackend(
        "quicksrnet", runner, quality_rank=3,
        latency_scale_field="quicksrnet_npu_latency_scale",
    )


def make_server():
    return GameStreamServer(build_game("G5"), GEO, roi_side=20, gop_size=3, quality=60)


def make_dispatcher(tiny_runner, budget_ms=8.33):
    return DifficultyDispatcher(
        [
            build_backend("edsr", runner=tiny_runner),
            build_backend("bilinear_gpu"),
        ],
        budget_ms=budget_ms,
    )


def canonical(result) -> str:
    export = result.to_trace_dict()
    validate_session_trace(export)
    return json.dumps(canonicalize_session_trace(export), sort_keys=True)


def roi_client(client_cls, device, runner):
    if client_cls is GameStreamSRClient:
        return GameStreamSRClient(device, runner, modeled_roi_side=300)
    return client_cls(device, runner)


def run_keeping_pixels(client, **knobs):
    """``run_session`` plus every frame's HR output."""
    frames = []
    inner = client.process

    def process(frame):
        result = inner(frame)
        frames.append(result.hr_frame)
        return result

    client.process = process
    result = run_session(make_server(), client, n_frames=N, **knobs)
    return result, frames


class TestDefaultPathUntouched:
    """sr_backend=None, dispatch=None: the session EDSR as the ``edsr``
    backend, through the same priced RoI pass as every zoo member."""

    @pytest.mark.parametrize("client_cls", [GameStreamSRClient, SRIntegratedDecoderClient])
    def test_no_zoo_artifacts_in_default_traces(
        self, client_cls, device, tiny_runner
    ):
        result = run_session(make_server(), client_cls(device, tiny_runner), n_frames=N)
        for record in result.records:
            meta = record.trace.span("upscale").metadata
            assert "dispatch" not in meta
            if meta.get("path") != "in_decoder_reconstruction":
                assert meta["sr_backend"] == "edsr"
        assert not any(
            name.startswith("sr.dispatch") for name in result.metrics.names()
        )

    @pytest.mark.parametrize("client_cls", [GameStreamSRClient, SRIntegratedDecoderClient])
    def test_explicit_edsr_backend_reproduces_default(
        self, client_cls, device, tiny_runner
    ):
        """The zero-cost zoo member: wrapping the session runner in the
        EDSR backend must not move a single modeled number or pixel."""
        base, base_hr = run_keeping_pixels(
            roi_client(client_cls, device, tiny_runner), evaluate_quality=True
        )
        zoo, zoo_hr = run_keeping_pixels(
            roi_client(client_cls, device, tiny_runner), evaluate_quality=True,
            sr_backend=build_backend("edsr", runner=tiny_runner),
        )
        assert [r.psnr_db for r in zoo.records] == [r.psnr_db for r in base.records]
        for a, b in zip(base.records, zoo.records):
            span_a, span_b = a.trace.span("upscale"), b.trace.span("upscale")
            assert span_a.modeled_ms == span_b.modeled_ms
            assert span_a.energy == span_b.energy
        assert upscale_spans(base) == upscale_spans(zoo)
        for a, b in zip(base_hr, zoo_hr):
            assert np.array_equal(a, b)
        assert base.mean_mtp().total_ms == zoo.mean_mtp().total_ms
        assert base.mean_energy().total == zoo.mean_energy().total


class TestBackendKnob:
    def test_small_backend_cuts_modeled_latency(
        self, device, tiny_runner, quicksrnet_backend
    ):
        base = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N,
        )
        small = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, sr_backend=quicksrnet_backend,
        )
        assert small.mean_upscale_ms(True) < base.mean_upscale_ms(True)
        meta = small.records[0].trace.span("upscale").metadata
        assert meta["sr_backend"] == "quicksrnet"
        assert meta["sr_ms"] < meta["merge_ms"] + base.mean_upscale_ms(True)

    def test_backend_scale_mismatch_rejected(self, device, tiny_runner):
        backend = build_backend("bilinear_gpu", scale=3)
        with pytest.raises(ValueError, match="scale"):
            run_session(
                make_server(), GameStreamSRClient(device, tiny_runner),
                n_frames=2, sr_backend=backend,
            )

    def test_gpu_backend_serializes_with_bilinear_rest(self, device, tiny_runner):
        # A GPU-engine SR backend shares silicon with the non-RoI
        # bilinear: the stage time is the sum, not the max.
        backend = build_backend("bilinear_gpu")
        result = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=2, sr_backend=backend,
        )
        meta = result.records[0].trace.span("upscale").metadata
        span = result.records[0].trace.span("upscale")
        assert span.modeled_ms == pytest.approx(meta["sr_ms"] + meta["gpu_ms"])

    def test_gpu_backend_serializes_merge_in_sr_integrated_decoder(
        self, device, tiny_runner
    ):
        # The SR-integrated decoder folds the merge into its upscale span
        # (merge_serial): on reference frames the GPU backend, the
        # bilinear rest and the merge all run one after another.
        result = run_session(
            make_server(), SRIntegratedDecoderClient(device, tiny_runner),
            n_frames=N, sr_backend=build_backend("bilinear_gpu"),
        )
        reference = [
            r.trace.span("upscale") for r in result.records
            if r.trace.span("upscale").metadata["path"] == "roi_sr"
        ]
        assert reference
        for span in reference:
            meta = span.metadata
            assert meta["sr_backend"] == "bilinear_gpu"
            assert span.modeled_ms == meta["sr_ms"] + meta["gpu_ms"] + meta["merge_ms"]


class TestKnobValidation:
    def test_gop_reuse_composes_with_backend(
        self, device, tiny_runner, quicksrnet_backend
    ):
        result = run_session(
            make_server(), GameStreamSRClient(device, tiny_runner),
            n_frames=N, gop_reuse=True, sr_backend=quicksrnet_backend,
        )
        metas = [r.trace.span("upscale").metadata for r in result.records]
        assert any(not meta["reuse"]["refresh"] for meta in metas)
        assert all(meta["sr_backend"] == "quicksrnet" for meta in metas)

    def test_dispatch_exclusive_with_backend(
        self, device, tiny_runner, quicksrnet_backend
    ):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_session(
                make_server(), GameStreamSRClient(device, tiny_runner),
                n_frames=2, sr_backend=quicksrnet_backend,
                dispatch=make_dispatcher(tiny_runner),
            )

    @pytest.mark.parametrize("knob", ["sr_backend", "dispatch"])
    def test_unsupported_designs_rejected(self, knob, device, tiny_runner):
        value = (
            make_dispatcher(tiny_runner)
            if knob == "dispatch"
            else build_backend("bilinear_gpu")
        )
        for client in (BilinearClient(device), NemoClient(device, tiny_runner)):
            with pytest.raises(ValueError, match=knob):
                run_session(make_server(), client, n_frames=2, **{knob: value})

    def test_configure_sr_defaults_are_noop(self, device, tiny_runner):
        client = NemoClient(device, tiny_runner)
        client.configure_sr()  # must not raise on any design


def upscale_spans(result):
    """Every frame's upscale span without its wall-clock time."""
    return [
        {**r.trace.span("upscale").to_dict(), "wall_ms": 0.0}
        for r in result.records
    ]


class TestReusedClient:
    """Each session sets every SR knob; nothing leaks into the next one."""

    def run_knob_sessions(self, client):
        run_session(make_server(), client, n_frames=N, gop_reuse=True)
        run_session(
            make_server(), client, n_frames=N,
            sr_backend=build_backend("bilinear_gpu"),
        )

    def test_default_session_matches_fresh_client(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        self.run_knob_sessions(client)
        reused = run_session(
            make_server(), client, n_frames=N, evaluate_quality=True
        )
        fresh = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, evaluate_quality=True,
        )
        assert upscale_spans(reused) == upscale_spans(fresh)
        assert reused.psnr_series() == fresh.psnr_series()

    def test_gop_reuse_alone_accepted_after_backend_session(
        self, device, tiny_runner
    ):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        self.run_knob_sessions(client)
        result = run_session(make_server(), client, n_frames=N, gop_reuse=True)
        for meta in (r.trace.span("upscale").metadata for r in result.records):
            assert "reuse" in meta
            # Full and partial refreshes run the session EDSR again, not
            # the last session's backend.
            assert meta["sr_backend"] == "edsr"


class TestGOPReuseOnBackend:
    """GOP reuse's partial refresh runs and is priced on the session's
    SR backend: a GPU-engine filter and a power-derated NPU net."""

    @pytest.fixture(params=["bilinear_gpu", "edsr_int8"])
    def backend(self, request, tiny_runner):
        if request.param == "bilinear_gpu":
            return build_backend("bilinear_gpu")
        # The int8 EDSR's latency and power fields over the tiny weights.
        return NeuralBackend(
            "edsr_int8", tiny_runner, quality_rank=1,
            latency_scale_field="edsr_int8_npu_latency_scale",
            power_scale_field="edsr_int8_npu_power_scale",
        )

    def test_partial_refresh_runs_on_backend(self, device, tiny_runner, backend):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        client.configure_sr(gop_reuse=True, sr_backend=backend)
        server, decoder = make_server(), VideoDecoder()
        partial = 0
        for _ in range(N):
            frame = server.next_frame()
            result = client.process(frame)
            decoded = decoder.decode_frame(frame.encoded)
            span = result.trace.span("upscale")
            meta = span.metadata
            assert meta["sr_backend"] == backend.name
            if meta["reuse"]["refresh"]:
                continue
            block, roi, s = frame.encoded.block, frame.roi, frame.geometry.scale
            dirty, dirty_px = _dirty_mask(
                decoded, frame.geometry, block, REUSE_DIRTY_THRESHOLD
            )
            dirty_roi = int(dirty_px[roi.y : roi.y_end, roi.x : roi.x_end].sum())
            sr_ms = backend.latency_ms(300**2 * dirty_roi / roi.area, device)
            assert meta["sr_ms"] == sr_ms
            # The backend's charge leads the span's energy; the warp,
            # bilinear rest and merge follow on the GPU.
            assert (span.energy[0].component, span.energy[0].ms) == (
                backend.component, backend.energy_charged_ms(sr_ms, device)
            )
            assert span.energy[-1].component is Component.GPU
            # Inside the RoI every dirty block holds the backend's window.
            blocks = [
                (by, bx) for by, bx in np.argwhere(dirty)
                if by * block < roi.y_end and (by + 1) * block > roi.y
                and bx * block < roi.x_end and (bx + 1) * block > roi.x
            ]
            origins = np.array(blocks, dtype=np.int64) * block
            tiles = backend.upscale_windows(
                decoded.rgb, origins, tile=block, halo=client.REUSE_TILE_HALO
            )
            roi_hr = roi.scaled(s)
            for tile_hr, (oy, ox) in zip(tiles, origins * s):
                y0, x0 = max(oy, roi_hr.y), max(ox, roi_hr.x)
                y1 = min(oy + block * s, roi_hr.y_end)
                x1 = min(ox + block * s, roi_hr.x_end)
                np.testing.assert_array_equal(
                    result.hr_frame[y0:y1, x0:x1],
                    tile_hr[y0 - oy : y1 - oy, x0 - ox : x1 - ox],
                )
            partial += bool(blocks)
        assert partial


class TestDispatchSessions:
    def test_dispatch_ledger_and_display_coupling(self, device, tiny_runner):
        disp = make_dispatcher(tiny_runner)
        result = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, dispatch=disp,
        )
        for record in result.records:
            span = record.trace.span("upscale")
            meta = span.metadata["dispatch"]
            assert sum(meta["backend_tiles"].values()) == meta["tiles_total"]
            # Budget honored per engine unless tiles overflowed.
            if meta["overflow_tiles"] == 0:
                for ms in meta["engine_ms"].values():
                    assert ms <= disp.budget_ms + 1e-9
            # The merge still rides the display span.
            display = record.trace.span("display")
            assert display.modeled_ms > span.metadata["merge_ms"]

    def test_dispatch_undercuts_edsr_everywhere(self, device, tiny_runner):
        base = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N,
        )
        routed = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, dispatch=make_dispatcher(tiny_runner),
        )
        assert routed.mean_upscale_ms(True) < base.mean_upscale_ms(True)

    def test_dispatch_session_replays_identically(self, device, tiny_runner):
        def run(wrap):
            client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
            return run_session(
                make_server(), wrap(client),
                n_frames=N, dispatch=make_dispatcher(tiny_runner),
            )

        replay_twice(run)

    def test_sr_integrated_dispatches_reference_frames_only(
        self, device, tiny_runner
    ):
        result = run_session(
            make_server(),
            SRIntegratedDecoderClient(device, tiny_runner),
            n_frames=N, dispatch=make_dispatcher(tiny_runner),
        )
        for record in result.records:
            meta = record.trace.span("upscale").metadata
            if meta.get("path") == "roi_sr":
                assert "dispatch" in meta
            else:
                assert meta.get("path") == "in_decoder_reconstruction"
                assert "dispatch" not in meta

    def test_observability_counters(self, device, tiny_runner):
        result = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, dispatch=make_dispatcher(tiny_runner),
        )
        registry = MetricsRegistry()
        for record in result.records:
            observe_frame_trace(registry, record.trace)
        metrics = registry.to_dict()
        assert metrics["sr.dispatch/frames"]["value"] == N
        tiles_per_frame = result.records[0].trace.span("upscale").metadata[
            "dispatch"
        ]["tiles_total"]
        assert metrics["sr.dispatch/tiles_total"]["value"] == N * tiles_per_frame
        assert metrics["sr.dispatch/upscale_ms"]["count"] == N

    def test_quality_stays_close_to_pure_edsr(self, device, tiny_runner):
        base = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, evaluate_quality=True,
        )
        routed = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, evaluate_quality=True,
            dispatch=make_dispatcher(tiny_runner),
        )
        base_psnr = np.mean([r.psnr_db for r in base.records])
        routed_psnr = np.mean([r.psnr_db for r in routed.records])
        # Easy tiles went to bilinear; the difficulty metric must keep
        # the damage small (the bench asserts the 0.5 dB criterion at
        # full scale — this is the fast smoke version).
        assert routed_psnr > base_psnr - 2.0
