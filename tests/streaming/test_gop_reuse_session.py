"""GOP-reuse session behavior: identity guarantees, refreshes, transport."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.network.link import NetworkLink
from repro.platform.device import samsung_tab_s8
from repro.render.games import build_game
from repro.streaming.client import (
    BilinearClient,
    GameStreamSRClient,
    SRIntegratedDecoderClient,
)
from repro.streaming.frames import StreamGeometry
from repro.streaming.server import GameStreamServer
from repro.streaming.session import run_session

from ._replay import replay_twice

GEO = StreamGeometry(eval_lr_height=48, eval_lr_width=80, lr_source="native")
N = 6
GOP = 3


@pytest.fixture(scope="module")
def device():
    return samsung_tab_s8()


def make_server(gop=GOP):
    return GameStreamServer(build_game("G5"), GEO, roi_side=20, gop_size=gop, quality=60)


def make_frames(n=N, gop=GOP):
    server = make_server(gop)
    return [server.next_frame() for _ in range(n)]


def reuse_meta(result_or_record):
    return result_or_record.trace.span("upscale").metadata.get("reuse")


class TestThresholdZeroBitIdentity:
    """threshold 0.0 marks every block dirty, collapsing reuse to the
    exact full per-frame path — the structural equivalence guarantee."""

    def test_gamestreamsr_pixels_identical(self, device, tiny_runner):
        frames = make_frames()
        plain = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        reuse = GameStreamSRClient(
            device, tiny_runner, modeled_roi_side=300, reuse_threshold=0.0
        )
        reuse.configure_sr(gop_reuse=True)
        for frame in frames:
            a = plain.process(frame)
            b = reuse.process(frame)
            assert np.array_equal(a.hr_frame, b.hr_frame)
            assert a.trace.span("upscale").modeled_ms == b.trace.span(
                "upscale"
            ).modeled_ms
            meta = reuse_meta(b)
            assert meta["refresh"] is True
            if frame.encoded.frame_type == "P" and frame.index % GOP != 0:
                assert meta["reason"] == "all_dirty"

    def test_sr_integrated_decoder_identical(self, device, tiny_runner):
        frames = make_frames()
        plain = SRIntegratedDecoderClient(device, tiny_runner)
        reuse = SRIntegratedDecoderClient(device, tiny_runner, reuse_threshold=0.0)
        reuse.configure_sr(gop_reuse=True)
        for frame in frames:
            a = plain.process(frame)
            b = reuse.process(frame)
            assert np.array_equal(a.hr_frame, b.hr_frame)
            # All-dirty => the residual engine runs in full: identical cost.
            assert a.trace.span("decode").modeled_ms == b.trace.span(
                "decode"
            ).modeled_ms


class TestDefaultOffByteIdentity:
    def test_off_traces_carry_no_reuse_artifacts(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        result = run_session(make_server(), client, n_frames=N)
        for record in result.records:
            assert "reuse" not in record.trace.span("upscale").metadata
            assert all(s.name != "sr.reuse/warp" for s in record.trace.spans)
        assert "sr.reuse/frames" not in result.metrics.to_dict()

    def test_unsupported_client_raises(self, device):
        with pytest.raises(ValueError, match="gop_reuse"):
            run_session(
                make_server(), BilinearClient(device), n_frames=2, gop_reuse=True
            )


class TestRefreshBoundaries:
    def test_i_frames_always_refresh(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        result = run_session(make_server(), client, n_frames=N, gop_reuse=True)
        n_iframes = sum(1 for r in result.records if r.frame_type == "I")
        assert n_iframes == 2
        metrics = result.metrics.to_dict()
        assert metrics["sr.reuse/refresh_reference_frame"]["value"] == n_iframes
        assert metrics["sr.reuse/frames"]["value"] == N
        for record in result.records:
            meta = reuse_meta(record)
            if record.frame_type == "I":
                assert meta["refresh"] is True
                assert meta["reason"] == "reference_frame"

    def test_warp_frames_emit_warp_span(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        result = run_session(make_server(), client, n_frames=N, gop_reuse=True)
        warped = [
            r for r in result.records if reuse_meta(r)["refresh"] is False
        ]
        assert warped, "GOP 3 on G5 must warp at least one P-frame"
        for record in warped:
            span = record.trace.span("sr.reuse/warp")
            assert span is not None and not span.mtp
            assert span.modeled_ms == reuse_meta(record)["warp_ms"] > 0.0
            ledger = reuse_meta(record)
            assert (
                ledger["tiles_reused"]
                + ledger["tiles_recomputed_sr"]
                + ledger["tiles_recomputed_bilinear"]
                == ledger["tiles_total"]
            )

    def test_every_upscale_span_names_its_backend(self, device, tiny_runner):
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        result = run_session(make_server(), client, n_frames=N, gop_reuse=True)
        refreshes = {reuse_meta(r)["refresh"] for r in result.records}
        assert refreshes == {True, False}
        for record in result.records:
            assert record.trace.span("upscale").metadata["sr_backend"] == "edsr"

    def test_index_gap_breaks_chain(self, device, tiny_runner):
        frames = make_frames(n=3, gop=10)  # I P P, one GOP
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        client.configure_sr(gop_reuse=True)
        client.process(frames[0])
        assert reuse_meta(client.process(frames[1]))["refresh"] is False
        # Feed frame 2 relabeled as frame 3 (as if frame 2 were dropped):
        # the cache must refuse to warp across the index gap.
        gap_frame = dataclasses.replace(frames[2], index=frames[2].index + 1)
        meta = reuse_meta(client.process(gap_frame))
        assert meta["refresh"] is True
        assert meta["reason"] == "chain_break"

    def test_reset_clears_cache_and_replays_identically(
        self, device, tiny_runner
    ):
        frames = make_frames()
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        client.configure_sr(gop_reuse=True)
        first = [reuse_meta(client.process(f)) for f in frames]
        client.reset()
        assert client._reuse.hr is None and client._reuse.last_index is None
        second = [reuse_meta(client.process(f)) for f in frames]
        assert first == second

    def test_skip_dropped_cascade_refreshes_on_heal(self, device, tiny_runner):
        """Lossy link + skip_dropped: skipped frames carry no reuse meta,
        and the first processed frame after a gap is a mandatory refresh."""
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
        result = run_session(
            make_server(),
            client,
            n_frames=N,
            scenario=NetworkLink(
                bandwidth_mbps=20.0, propagation_ms=8.0, loss_rate=0.3, seed=13
            ),
            link_deadline_ms=80.0,
            skip_dropped=True,
            gop_reuse=True,
        )
        skipped = [
            r
            for r in result.records
            if r.trace.span("upscale").metadata.get("skipped")
        ]
        assert skipped, "seed must skip at least one frame"
        for record in skipped:
            assert "reuse" not in record.trace.span("upscale").metadata
        healed = False
        gap_open = False
        for record in result.records:
            if record.trace.span("upscale").metadata.get("skipped"):
                gap_open = True
                continue
            meta = reuse_meta(record)
            if gap_open:
                assert meta["refresh"] is True
                healed = True
            gap_open = False
        assert healed, "seed must process a frame after a skip gap"


class TestSeededReplay:
    def test_reuse_session_replays_identically(self, device, tiny_runner):
        def run(wrap):
            client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=300)
            return run_session(make_server(), wrap(client), n_frames=N, gop_reuse=True)

        first, _ = replay_twice(run)
        assert any(reuse_meta(r)["refresh"] is False for r in first.records)


class TestSRIntegratedDecoderReuse:
    def test_masked_residual_is_cheaper(self, device, tiny_runner):
        frames = make_frames()
        plain = SRIntegratedDecoderClient(device, tiny_runner)
        reuse = SRIntegratedDecoderClient(device, tiny_runner)
        reuse.configure_sr(gop_reuse=True)
        saw_saving = False
        for frame in frames:
            a = plain.process(frame)
            b = reuse.process(frame)
            if frame.encoded.frame_type == "P":
                cost_a = a.trace.span("decode").modeled_ms
                cost_b = b.trace.span("decode").modeled_ms
                assert cost_b <= cost_a + 1e-12
                if cost_b < cost_a:
                    saw_saving = True
                meta = b.trace.span("decode").metadata["reuse"]
                assert 0.0 <= meta["dirty_fraction"] <= 1.0
        assert saw_saving, "some block of some P-frame must be clean"
