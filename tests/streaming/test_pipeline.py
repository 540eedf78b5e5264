"""Units for the stage/trace primitives in repro.streaming.pipeline."""

from __future__ import annotations

import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.observability import (
    FRAME_TRACE_SCHEMA,
    SchemaError,
    validate,
)
from repro.platform import latency as lat
from repro.platform.device import get_device
from repro.platform.energy import Component
from repro.render.games import build_game
from repro.streaming import (
    GameStreamSRClient,
    GameStreamServer,
    StreamGeometry,
    run_session,
)
from repro.streaming.pipeline import (
    CLIENT_STAGES,
    FrameTrace,
    SERVER_STAGES,
    modeled_pipeline_schedule,
    split_transmission,
)


class TestStageRecording:
    def test_stage_records_span_with_wall_clock(self):
        trace = FrameTrace(index=0)
        with trace.stage("decode") as st:
            st.modeled_ms = 3.5
            st.add_energy(Component.HW_DECODER, 3.5)
            st.meta(hardware=True)
        span = trace.span("decode")
        assert span.modeled_ms == 3.5
        assert span.wall_ms >= 0.0
        assert span.mtp
        assert span.metadata == {"hardware": True}
        assert [(a.component, a.ms) for a in span.energy] == [
            (Component.HW_DECODER, 3.5)
        ]

    def test_stage_appends_span_on_exception(self):
        trace = FrameTrace(index=0)
        with pytest.raises(RuntimeError):
            with trace.stage("render") as st:
                st.modeled_ms = 1.0
                raise RuntimeError("boom")
        assert trace.has_span("render")

    def test_negative_modeled_ms_rejected(self):
        trace = FrameTrace(index=0)
        with pytest.raises(ValueError):
            with trace.stage("render") as st:
                st.modeled_ms = -1.0

    def test_unknown_energy_category_rejected(self):
        trace = FrameTrace(index=0)
        with trace.stage("decode") as st:
            with pytest.raises(ValueError):
                st.add_energy(Component.CPU, 1.0, category="display")


class TestFrameTraceAccounting:
    def _trace(self):
        trace = FrameTrace(index=7, frame_type="P")
        trace.add_span("network", 10.0, mtp=True)
        trace.add_span("network", 0.5, mtp=False)  # client RX, energy only
        trace.add_span("decode", 3.0)
        trace.add_span("upscale", 8.0)
        trace.add_span("display", 2.0)
        return trace

    def test_timings_view_sums_mtp_spans_only(self):
        trace = self._trace()
        assert trace.timings_ms(CLIENT_STAGES) == {
            "decode": 3.0,
            "upscale": 8.0,
            "display": 2.0,
        }
        assert trace.stage_ms("network") == 10.0  # the mtp=False RX excluded
        assert trace.total_modeled_ms == 23.0

    def test_duplicate_mtp_spans_sum(self):
        trace = FrameTrace(index=0)
        trace.add_span("upscale", 2.0)
        trace.add_span("upscale", 3.0)
        assert trace.stage_ms("upscale") == 5.0

    def test_absent_stage_is_zero(self):
        trace = FrameTrace(index=0)
        assert trace.timings_ms(SERVER_STAGES)["roi_detect"] == 0.0

    def test_energy_category_redirection(self):
        trace = FrameTrace(index=0)
        trace.add_span("upscale", 5.0)
        trace.span("upscale").add_energy(Component.CPU, 4.0)
        # NEMO-style: warp runs in upscale but is charged to decode.
        trace.span("upscale").add_energy(Component.RECON_MEMORY, 1.0, category="decode")
        stages = trace.energy_stages()
        assert stages["upscale"] == [(Component.CPU, 4.0)]
        assert stages["decode"] == [(Component.RECON_MEMORY, 1.0)]

    def test_category_named_span_contributes_empty_key(self):
        trace = FrameTrace(index=0)
        trace.add_span("upscale", 0.0)  # idle upscaler, no attributions
        assert trace.energy_stages() == {"upscale": []}

    def test_amend_span_replaces_cost_and_energy(self):
        trace = self._trace()
        trace.amend_span(
            "decode",
            modeled_ms=9.0,
            energy=[(Component.HW_DECODER, 6.0), (Component.COMPOSITION, 3.0)],
            augmented=True,
        )
        span = trace.span("decode")
        assert span.modeled_ms == 9.0
        assert len(span.energy) == 2
        assert span.metadata["augmented"] is True

    def test_amend_missing_span_raises(self):
        with pytest.raises(KeyError):
            FrameTrace(index=0).amend_span("network", modeled_ms=1.0)

    def test_extend_merges_server_and_client(self):
        server = FrameTrace(index=3)
        server.add_span("network", 10.0)
        client = FrameTrace(index=3, frame_type="I")
        client.add_span("decode", 3.0)
        merged = server.extend(client)
        assert [s.name for s in merged.spans] == ["network", "decode"]
        assert merged.frame_type == "I"
        assert merged.total_modeled_ms == 13.0

    def test_extend_rejects_index_mismatch(self):
        with pytest.raises(ValueError):
            FrameTrace(index=1).extend(FrameTrace(index=2))

    def test_to_dict_validates_against_schema(self):
        trace = self._trace()
        trace.span("decode").add_energy(Component.HW_DECODER, 3.0)
        validate(trace.to_dict(), FRAME_TRACE_SCHEMA)

    def test_schema_rejects_malformed_span(self):
        d = self._trace().to_dict()
        del d["spans"][0]["modeled_ms"]
        with pytest.raises(SchemaError):
            validate(d, FRAME_TRACE_SCHEMA)


class TestSplitTransmission:
    def test_matches_legacy_float_expressions_exactly(self):
        for n in (0, 1, 1400, 54321):
            split = split_transmission(n)
            assert split.total_ms == lat.transmission_ms(n)
            assert split.propagation_ms == lat.transmission_ms(0)
            # The seed client computed rx as the *difference* of the two
            # totals; the split must preserve that exact expression.
            assert split.serialization_ms == (
                lat.transmission_ms(n) - lat.transmission_ms(0)
            )

    def test_serialization_grows_with_bytes(self):
        assert (
            split_transmission(100_000).serialization_ms
            > split_transmission(10_000).serialization_ms
            > split_transmission(0).serialization_ms
            == 0.0
        )


# -- modeled pipeline schedule --------------------------------------------


def _trace(index, server_ms, client_ms):
    t = FrameTrace(index=index, frame_type="P")
    t.add_span("encode", server_ms)
    t.add_span("upscale", client_ms)
    return t


class TestModeledSchedule:
    def test_balanced_pipeline_approaches_2x(self):
        traces = [_trace(i, 10.0, 10.0) for i in range(100)]
        sched = modeled_pipeline_schedule(traces, depth=2)
        assert sched.serial_total_ms == 2000.0
        # Pipelined: fill (10 ms) + 100 client slots of 10 ms.
        assert sched.pipelined_total_ms == 1010.0
        assert sched.speedup == pytest.approx(2000.0 / 1010.0)

    def test_depth_one_serializes(self):
        # depth=1: server i+1 must wait for client i (single slot).
        traces = [_trace(i, 10.0, 5.0) for i in range(3)]
        sched = modeled_pipeline_schedule(traces, depth=1)
        assert sched.pipelined_total_ms == 45.0
        assert sched.speedup == pytest.approx(1.0)
        # depth=2 overlaps: server free-runs one ahead of the client.
        sched2 = modeled_pipeline_schedule(traces, depth=2)
        assert sched2.pipelined_total_ms == 35.0

    def test_bottleneck_side_bounds_throughput(self):
        traces = [_trace(i, 2.0, 10.0) for i in range(50)]
        sched = modeled_pipeline_schedule(traces, depth=2)
        # Client-bound: sustained FPS ~= 1000 / client_ms.
        assert sched.pipelined_fps == pytest.approx(1000.0 / 10.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            modeled_pipeline_schedule([], depth=2)
        with pytest.raises(ValueError, match="depth"):
            modeled_pipeline_schedule([_trace(0, 1.0, 1.0)], depth=0)

    def test_client_rx_span_is_not_server_time(self):
        """The client's ``mtp=False`` network span is RX-energy
        bookkeeping: it must not be charged to the server half."""
        trace = _trace(0, 10.0, 5.0)
        trace.add_span("network", 2.0, mtp=False)
        sched = modeled_pipeline_schedule([trace], depth=2)
        assert sched.server_busy_ms == 10.0
        assert sched.serial_total_ms == trace.total_modeled_ms == 15.0

    def test_serial_total_is_session_mtp(self, tiny_runner):
        """On a real session the serial baseline is the summed MTP, so
        ``serial_fps`` is 1000 / the session's mean MTP."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        server = GameStreamServer(
            build_game("G3"),
            StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native"),
            roi_side=plan.side_for_frame(64),
            gop_size=3,
        )
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=plan.side)
        result = run_session(server, client, n_frames=4)
        traces = result.frame_traces()
        assert any(
            span.name == "network" and not span.mtp
            for t in traces
            for span in t.spans
        )
        sched = modeled_pipeline_schedule(traces, depth=2)
        mtp_sum = sum(r.mtp.total_ms for r in result.records)
        assert sched.serial_total_ms == pytest.approx(mtp_sum, abs=1e-9)
        assert sched.serial_fps == pytest.approx(
            1000.0 / result.mean_mtp().total_ms, rel=1e-12
        )
