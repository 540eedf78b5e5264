"""End-to-end sessions with the lossy transport and the adaptive RoI loop.

These exercise the two default-off extension hooks of
:func:`repro.streaming.session.run_session`: a seeded lossy
:class:`NetworkLink` replacing the flat bandwidth model, and an
:class:`AdaptiveRoIController` closing the RoI-sizing loop from measured
upscale spans.
"""

from __future__ import annotations

import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.network import NetworkLink
from repro.platform.device import get_device
from repro.render.games import build_game
from repro.streaming import (
    AdaptiveRoIController,
    BilinearClient,
    GameStreamSRClient,
    GameStreamServer,
    StreamGeometry,
    run_session,
)

N_FRAMES = 6


def _geometry():
    return StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")


def _server(roi_side, gop=N_FRAMES):
    return GameStreamServer(build_game("G3"), _geometry(), roi_side=roi_side, gop_size=gop)


class TestLossyLinkSession:
    LINK_KW = dict(bandwidth_mbps=20.0, propagation_ms=8.0, loss_rate=0.3, seed=7)

    def _run(self, deadline_ms=float("inf")):
        device = get_device("samsung_tab_s8")
        return run_session(
            _server(None),
            BilinearClient(device),
            n_frames=N_FRAMES,
            scenario=NetworkLink(**self.LINK_KW),
            link_deadline_ms=deadline_ms,
        )

    def test_transmit_outcome_replays_into_network_span(self):
        """The session's network spans must match a fresh identically-seeded
        link replayed over the recorded frame sizes, byte for byte."""
        result = self._run()
        replay = NetworkLink(**self.LINK_KW)
        total_retx = 0
        for record in result.records:
            expected = replay.transmit(record.modeled_size_bytes)
            span = record.trace.span("network")
            assert span.modeled_ms == expected.latency_ms
            assert span.metadata["n_packets"] == expected.n_packets
            assert span.metadata["n_retransmissions"] == expected.n_retransmissions
            assert span.metadata["dropped"] == expected.dropped
            assert span.metadata["transport"] == "lossy_link"
            assert record.network_retransmissions == expected.n_retransmissions
            # MTP must flow through the measured (not flat) latency.
            assert record.mtp.stage("network") == expected.latency_ms
            total_retx += expected.n_retransmissions
        assert total_retx > 0  # 30 % loss over 6 frames: retx all but certain
        assert result.total_retransmissions() == total_retx

    def test_retransmissions_surface_in_metrics(self):
        result = self._run()
        assert (
            result.metrics.counter("network_retransmissions").value
            == result.total_retransmissions()
        )

    def test_deadline_drops_match_link_semantics(self):
        """With a tight deadline, drop flags must equal ``latency > deadline``
        and surface in drop_rate + the metrics counter."""
        deadline = 15.0
        result = self._run(deadline_ms=deadline)
        replay = NetworkLink(**self.LINK_KW)
        n_dropped = 0
        for record in result.records:
            expected = replay.transmit(record.modeled_size_bytes, deadline_ms=deadline)
            assert record.dropped == expected.dropped
            assert record.dropped == (expected.latency_ms > deadline)
            n_dropped += int(expected.dropped)
        assert 0 < n_dropped  # lossy 20 Mbps link misses a 15 ms deadline sometimes
        assert result.drop_rate() == n_dropped / N_FRAMES
        assert result.metrics.counter("frames_dropped").value == n_dropped

    def test_lossless_link_equals_flat_model_plus_loss_hooks(self):
        """loss_rate=0 at the calibrated bandwidth/propagation reproduces the
        flat model's latency: the transport stage is then a pure no-op."""
        from repro.platform import calibration as cal
        from repro.platform import latency as lat

        device = get_device("samsung_tab_s8")
        link = NetworkLink(
            bandwidth_mbps=cal.NETWORK_BANDWIDTH_MBPS,
            propagation_ms=cal.NETWORK_PROPAGATION_MS,
            loss_rate=0.0,
        )
        result = run_session(
            _server(None), BilinearClient(device), n_frames=2, scenario=link
        )
        for record in result.records:
            assert record.mtp.stage("network") == pytest.approx(
                lat.transmission_ms(record.modeled_size_bytes), abs=1e-12
            )
            assert not record.dropped
            assert record.network_retransmissions == 0


def _is_skipped(record):
    return record.trace.span("upscale").metadata.get("skipped", False)


def _canon_trace(trace):
    """Frame-trace dict with the (nondeterministic) wall clock zeroed."""
    d = trace.to_dict()
    d["spans"] = [{**span, "wall_ms": 0.0} for span in d["spans"]]
    return d


class TestSkipDropped:
    """Regression pins for the ``skip_dropped=`` knob of ``run_session``.

    The seeded lossy link at GOP 3 / 80 ms deadline yields a
    deterministic mix: transport-dropped frames (0, 4), P-frames skipped
    on the broken reference chain (1, 2, 5), and a delivered I-frame (3)
    that heals the chain and is processed in full.
    """

    LINK_KW = dict(bandwidth_mbps=20.0, propagation_ms=8.0, loss_rate=0.3, seed=13)
    DEADLINE_MS = 80.0
    GOP = 3

    def _run(self, **kwargs):
        device = get_device("samsung_tab_s8")
        return run_session(
            _server(None, gop=self.GOP),
            BilinearClient(device),
            n_frames=N_FRAMES,
            scenario=NetworkLink(**self.LINK_KW),
            link_deadline_ms=self.DEADLINE_MS,
            **kwargs,
        )

    def test_default_still_processes_dropped_frames(self):
        """skip_dropped defaults off: dropped frames are decoded and
        upscaled in full — the historical behavior, pinned here."""
        result = self._run()
        dropped = [r for r in result.records if r.dropped]
        assert dropped, "seed must produce at least one drop"
        assert len(dropped) < N_FRAMES, "seed must deliver at least one frame"
        for record in result.records:
            assert record.upscale_ms > 0.0
            for name in ("decode", "upscale", "display"):
                assert "skipped" not in record.trace.span(name).metadata

    def test_skip_dropped_zeroes_client_spans(self):
        result = self._run(skip_dropped=True)
        skipped = [r for r in result.records if _is_skipped(r)]
        assert skipped
        reasons = set()
        for record in skipped:
            assert record.upscale_ms == 0.0
            for name in ("decode", "upscale", "display"):
                span = record.trace.span(name)
                assert span.modeled_ms == 0.0
                assert span.metadata["skipped"] is True
                reasons.add(span.metadata["reason"])
            # The RX radio window was still spent: network energy stays,
            # decode/upscale energy is zero.
            assert record.energy.network > 0.0
            assert record.energy.decode == 0.0
            assert record.energy.upscale == 0.0
        # Both skip causes occur: deadline misses and the broken chain.
        assert reasons == {"transport_drop", "reference_lost"}

    def test_reference_chain_cascades_and_heals_at_i_frame(self):
        """A skipped frame makes later P-frames undecodable (their
        reference is missing or stale) until a delivered I-frame resets
        the decoder."""
        result = self._run(skip_dropped=True)
        reason = {
            r.index: r.trace.span("upscale").metadata.get("reason")
            for r in result.records
        }
        dropped = {r.index for r in result.records if r.dropped}
        assert dropped == {0, 4}
        assert reason[0] == reason[4] == "transport_drop"
        assert reason[1] == reason[2] == reason[5] == "reference_lost"
        # Frame 3 opens a new GOP: delivered I-frame, processed in full.
        assert result.records[3].frame_type == "I"
        assert reason[3] is None
        assert result.records[3].upscale_ms > 0.0

    def test_skip_dropped_leaves_processed_frames_untouched(self):
        """Frames the skip run still processes are byte-identical to the
        default run (the healing I-frame resets decoder state)."""
        base = self._run()
        skip = self._run(skip_dropped=True)
        processed = [r for r in skip.records if not _is_skipped(r)]
        assert processed
        for b in processed:
            a = base.records[b.index]
            assert a.dropped == b.dropped
            assert _canon_trace(a.trace) == _canon_trace(b.trace)
            assert a.mtp.total_ms == b.mtp.total_ms
            assert a.energy == b.energy

    def test_skip_dropped_excludes_frames_from_quality(self):
        result = self._run(skip_dropped=True, evaluate_quality=True)
        assert any(not _is_skipped(r) for r in result.records)
        for record in result.records:
            if _is_skipped(record):
                assert record.psnr_db is None
            else:
                assert record.psnr_db is not None

    def test_skip_dropped_hides_frames_from_adaptive_controller(self):
        """The controller never observes a zeroed upscale span — a skipped
        frame must not be mistaken for a fast one and grow the window."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        from repro.analysis.experiments import default_runner

        controller = AdaptiveRoIController(
            initial_side=plan.side, min_side=plan.min_side, max_side=720
        )
        observed = []
        observe = controller.observe
        controller.observe = lambda ms: observed.append(ms) or observe(ms)
        client = GameStreamSRClient(device, default_runner(), modeled_roi_side=plan.side)
        result = run_session(
            _server(plan.side_for_frame(64), gop=self.GOP),
            client,
            n_frames=N_FRAMES,
            scenario=NetworkLink(**self.LINK_KW),
            link_deadline_ms=self.DEADLINE_MS,
            adaptive=controller,
            skip_dropped=True,
        )
        n_skipped = sum(1 for r in result.records if _is_skipped(r))
        assert 0 < n_skipped < N_FRAMES
        assert len(observed) == N_FRAMES - n_skipped


class TestAdaptiveSession:
    def test_controller_shrinks_roi_when_over_deadline(self):
        """Pin an oversized RoI so upscale blows the 16.66 ms budget: the
        controller must shrink the side on both server and client."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        from repro.analysis.experiments import default_runner

        initial = 700  # ~full-frame NPU SR on 720p: way over deadline
        controller = AdaptiveRoIController(
            initial_side=initial, min_side=plan.min_side, max_side=720
        )
        client = GameStreamSRClient(device, default_runner(), modeled_roi_side=initial)
        server = _server(roi_side=64)
        result = run_session(
            server, client, n_frames=N_FRAMES, adaptive=controller
        )

        assert controller.side < initial
        # The controller saw deadline misses (the shrink's cause).
        assert max(r.upscale_ms for r in result.records) > controller.deadline_ms
        # The side is pushed at frame start and observed at frame end, so
        # the client tracks the controller with one frame of lag: it holds
        # the side the controller had *before* the final observation.
        assert client.modeled_roi_side < initial
        # The server's detection window followed the same applied side
        # (rescaled to the eval frame height, floored at 2).
        expected_eval = max(2, min(round(client.modeled_roi_side * 64 / 720), 64))
        assert server.roi_side == expected_eval
        # Upscale latency must fall as the window shrinks.
        assert result.records[-1].upscale_ms < result.records[0].upscale_ms

    def test_controller_grows_back_under_budget(self):
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        from repro.analysis.experiments import default_runner

        controller = AdaptiveRoIController(
            initial_side=plan.min_side, min_side=plan.min_side, max_side=720
        )
        client = GameStreamSRClient(
            device, default_runner(), modeled_roi_side=plan.min_side
        )
        run_session(_server(roi_side=64), client, n_frames=4, adaptive=controller)
        assert controller.side > plan.min_side  # additive growth with headroom

    def test_default_session_never_touches_the_controller_hooks(self):
        """Without adaptive=, a pinned client side stays pinned."""
        device = get_device("samsung_tab_s8")
        from repro.analysis.experiments import default_runner

        plan = plan_roi_window(device)
        client = GameStreamSRClient(device, default_runner(), modeled_roi_side=plan.side)
        server = _server(roi_side=plan.side_for_frame(64))
        before = server.roi_side
        run_session(server, client, n_frames=2)
        assert client.modeled_roi_side == plan.side
        assert server.roi_side == before
