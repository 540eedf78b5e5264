"""Zoo backend / dispatch session plumbing: identity, knobs, observability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.neural.models import QuickSRNet
from repro.observability import (
    MetricsRegistry,
    canonicalize_session_trace,
    observe_frame_trace,
    validate_session_trace,
)
from repro.platform.device import samsung_tab_s8
from repro.render.games import build_game
from repro.sr.backends import build_backend
from repro.sr.dispatch import DifficultyDispatcher
from repro.sr.backends import NeuralBackend
from repro.sr.runner import SRRunner
from repro.streaming.client import (
    BilinearClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
)
from repro.streaming.frames import StreamGeometry
from repro.streaming.server import GameStreamServer
from repro.streaming.session import apply_client_knobs, run_session

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


class TestDefaultPathUntouched:
    """sr_backend=None, dispatch=None must leave the paper path alone."""

    @pytest.mark.parametrize("client_cls", [GameStreamSRClient, SRIntegratedDecoderClient])
    def test_no_zoo_artifacts_in_default_traces(
        self, client_cls, device, tiny_runner
    ):
        result = run_session(make_server(), client_cls(device, tiny_runner), n_frames=N)
        for record in result.records:
            meta = record.trace.span("upscale").metadata
            assert "dispatch" not in meta
            assert "sr_backend" not in meta
        assert not any(
            name.startswith("sr.dispatch") for name in result.metrics.names()
        )

    def test_explicit_edsr_backend_reproduces_default(self, device, tiny_runner):
        """The zero-cost zoo member: wrapping the session runner in the
        EDSR backend must not move a single modeled number or pixel."""
        base = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, evaluate_quality=True,
        )
        zoo = run_session(
            make_server(),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=300),
            n_frames=N, evaluate_quality=True,
            sr_backend=build_backend("edsr", runner=tiny_runner),
        )
        assert [r.psnr_db for r in zoo.records] == [r.psnr_db for r in base.records]
        for a, b in zip(base.records, zoo.records):
            assert a.trace.span("upscale").modeled_ms == b.trace.span("upscale").modeled_ms
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
            GameStreamSRClient(device, tiny_runner, sr_backend=backend)

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


class TestKnobValidation:
    def test_mutually_exclusive_with_gop_reuse(
        self, device, tiny_runner, quicksrnet_backend
    ):
        with pytest.raises(ValueError, match="mutually exclusive"):
            GameStreamSRClient(
                device, tiny_runner, gop_reuse=True,
                sr_backend=quicksrnet_backend,
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_session(
                make_server(),
                GameStreamSRClient(device, tiny_runner, sr_backend=quicksrnet_backend),
                n_frames=2, gop_reuse=True,
            )

    def test_dispatch_exclusive_with_backend(
        self, device, tiny_runner, quicksrnet_backend
    ):
        with pytest.raises(ValueError, match="mutually exclusive"):
            GameStreamSRClient(
                device, tiny_runner,
                sr_backend=quicksrnet_backend,
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

    def test_apply_client_knobs_defaults_are_noop(self, device, tiny_runner):
        client = NemoClient(device, tiny_runner)
        apply_client_knobs(client)  # must not raise on any design


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
