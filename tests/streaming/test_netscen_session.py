"""Sessions over trace-driven network scenarios with the ABR loop.

The seeded-determinism contract of the ``scenario=``/``abr=`` knobs:
the same :class:`~repro.network.trace.LinkTrace` + seed must produce
identical :class:`~repro.network.link.TransmitResult` sequences — and
therefore byte-identical session traces — run to run.
"""

from __future__ import annotations

import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.network import build_scenario
from repro.observability import canonicalize_session_trace, validate_session_trace
from repro.platform.device import get_device
from repro.streaming import (
    AdaptiveRoIController,
    BilinearClient,
    GameStreamSRClient,
    GameStreamServer,
    StreamGeometry,
    build_abr,
    run_session,
)

N_FRAMES = 8
NET_BUDGET_MS = 100.0


def _geometry():
    return StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="native")


def _server(roi_side, gop=N_FRAMES):
    from repro.render.games import build_game

    return GameStreamServer(
        build_game("G3"), _geometry(), roi_side=roi_side, gop_size=gop
    )


def _abr_session_kwargs(runner):
    device = get_device("samsung_tab_s8")
    plan = plan_roi_window(device)
    client = GameStreamSRClient(device, runner, modeled_roi_side=plan.side)
    abr = build_abr(
        plan.side,
        plan.min_side,
        720,
        runner=runner,
        profile="tiny",
        net_budget_ms=NET_BUDGET_MS,
    )
    return client, plan, abr


def _run_serial(runner, scenario="lte_drive", **extra):
    client, plan, abr = _abr_session_kwargs(runner)
    kwargs = dict(
        n_frames=N_FRAMES,
        scenario=scenario,
        abr=abr,
        link_deadline_ms=NET_BUDGET_MS,
        skip_dropped=True,
        **extra,
    )
    return run_session(_server(plan.side_for_frame(64)), client, **kwargs)


class TestSeededDeterminism:
    def test_same_scenario_same_seed_identical_traces(self, tiny_runner):
        """Two independent serial runs over the same canned scenario must
        be byte-identical — including the scenario/abr span metadata."""
        a = _run_serial(tiny_runner).to_trace_dict()
        b = _run_serial(tiny_runner).to_trace_dict()
        assert canonicalize_session_trace(a) == canonicalize_session_trace(b)

    def test_prebuilt_link_replays_scenario(self, tiny_runner):
        """scenario= accepts a pre-built TraceDrivenLink; resetting and
        re-running it reproduces the session byte for byte."""
        link = build_scenario("lte_walk", seed=4)
        a = _run_serial(tiny_runner, scenario=link).to_trace_dict()
        link.reset()
        b = _run_serial(tiny_runner, scenario=link).to_trace_dict()
        assert canonicalize_session_trace(a) == canonicalize_session_trace(b)


class TestTraceExport:
    def test_trace_json_schema_valid_with_scenario_metadata(self, tiny_runner, tmp_path):
        result = _run_serial(tiny_runner)
        trace = result.to_trace_dict()
        validate_session_trace(trace)  # raises SchemaError on violation
        result.export_trace_json(tmp_path / "netscen_trace.json")

        net_spans = [
            span
            for frame in trace["frames"]
            for span in frame["spans"]
            if span["name"] == "network" and "scenario" in span["metadata"]
        ]
        assert len(net_spans) == N_FRAMES
        for span in net_spans:
            meta = span["metadata"]
            assert meta["scenario"]["scenario"] == "lte_drive"
            assert meta["scenario"]["bandwidth_mbps"] > 0.0
            assert meta["scenario"]["burst_state"] in ("good", "bad")
            assert meta["abr"]["rung"] in (
                "hq", "default", "balanced", "low", "floor"
            )
            assert meta["abr"]["roi_side"] > 0

    def test_scenario_and_abr_metrics_recorded(self, tiny_runner):
        result = _run_serial(tiny_runner)
        metrics = result.metrics
        assert metrics.counter("net.scenario/frames").value == N_FRAMES
        assert metrics.counter("net.scenario/frames_lte_drive").value == N_FRAMES
        assert metrics.counter("abr/frames").value == N_FRAMES
        assert metrics.histogram("net.scenario/bandwidth_mbps").count == N_FRAMES
        assert metrics.histogram("abr/quality").count == N_FRAMES


class TestABRBehavior:
    def test_abr_downshifts_under_outage(self, tiny_runner):
        """lte_drive's 3.5-5 Mbps outage segments must push the ladder off
        the top rung, and the downshift must force an IDR refresh."""
        client, plan, abr = _abr_session_kwargs(tiny_runner)
        run_session(
            _server(plan.side_for_frame(64)),
            client,
            n_frames=N_FRAMES,
            scenario="lte_drive",
            abr=abr,
            link_deadline_ms=NET_BUDGET_MS,
            skip_dropped=True,
        )
        assert abr.n_downshifts > 0
        assert abr.n_idr_requests > 0
        assert abr.ladder.index(abr.rung) > 0

    def test_abr_holds_top_rung_on_stable_wifi(self, tiny_runner):
        client, plan, abr = _abr_session_kwargs(tiny_runner)
        result = run_session(
            _server(plan.side_for_frame(64)),
            client,
            n_frames=N_FRAMES,
            scenario="wifi_stable",
            abr=abr,
            link_deadline_ms=NET_BUDGET_MS,
            skip_dropped=True,
        )
        assert abr.n_downshifts == 0
        assert result.drop_rate() == 0.0

    def test_no_backend_named_without_a_pool(self, tiny_runner):
        """A controller built without a runner has no backend pool: it
        switches no client backend, so its spans name none."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        abr = build_abr(plan.side, plan.min_side, 720, net_budget_ms=NET_BUDGET_MS)
        result = run_session(
            _server(plan.side_for_frame(64)),
            GameStreamSRClient(device, tiny_runner, modeled_roi_side=plan.side),
            n_frames=N_FRAMES,
            scenario="lte_drive",
            abr=abr,
            link_deadline_ms=NET_BUDGET_MS,
            skip_dropped=True,
        )
        assert abr.n_downshifts > 0
        assert [
            r.trace.span("network").metadata["abr"]["sr_backend"]
            for r in result.records
        ] == [None] * N_FRAMES
        named = {
            r.trace.span("upscale").metadata.get("sr_backend")
            for r in result.records
        }
        assert named - {None} == {"edsr"}

    def test_conformance_rate_bounds(self, tiny_runner):
        result = _run_serial(tiny_runner)
        rate = result.conformance_rate()
        assert 0.0 <= rate <= 1.0
        # Conformant frames are a subset of delivered (non-dropped) ones.
        assert rate <= 1.0 - result.drop_rate() + 1e-9


class TestKnobValidation:
    def test_abr_conflicts_with_subsumed_knobs(self, tiny_runner):
        client, plan, abr = _abr_session_kwargs(tiny_runner)
        adaptive = AdaptiveRoIController(
            initial_side=plan.side, min_side=plan.min_side, max_side=720
        )
        for conflict in (
            dict(adaptive=adaptive),
            dict(gop_reuse=True),
        ):
            with pytest.raises(ValueError, match="mutually exclusive"):
                run_session(
                    _server(plan.side_for_frame(64)),
                    client,
                    n_frames=2,
                    scenario="lte_walk",
                    abr=abr,
                    **conflict,
                )

    def test_bad_scenario_type_rejected(self):
        device = get_device("samsung_tab_s8")
        with pytest.raises(TypeError, match="scenario must be"):
            run_session(
                _server(None), BilinearClient(device), n_frames=2, scenario=42
            )


class TestDefaultPathUnchanged:
    def test_no_scenario_metadata_without_knobs(self, tiny_runner):
        """The default session must not grow scenario/abr metadata or
        metrics — the knobs are strictly additive."""
        device = get_device("samsung_tab_s8")
        plan = plan_roi_window(device)
        client = GameStreamSRClient(device, tiny_runner, modeled_roi_side=plan.side)
        result = run_session(
            _server(plan.side_for_frame(64)), client, n_frames=4
        )
        for record in result.records:
            meta = record.trace.span("network").metadata
            assert "scenario" not in meta
            assert "abr" not in meta
        assert not any(
            n.startswith(("net.scenario/", "abr/")) for n in result.metrics.names()
        )
