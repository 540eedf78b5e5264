"""Staged pipeline vs frozen seed implementation: bit-identical sessions.

The multi-layer stage/trace refactor must be a pure re-organization at
the paper's default knobs: for every design, every frame's timing dicts,
MTP stages, energy integrals, payload bytes, and output pixels (PSNR)
must equal the seed implementation *exactly* (no tolerance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.roi_sizing import plan_roi_window
from repro.platform.device import get_device
from repro.render.games import build_game
from repro.streaming.client import (
    BilinearClient,
    FullFrameSRClient,
    GameStreamSRClient,
    NemoClient,
    SRIntegratedDecoderClient,
)
from repro.streaming.frames import StreamGeometry
from repro.streaming.server import GameStreamServer
from repro.streaming.session import run_session

from ._legacy_session import (
    LegacyBilinearClient,
    LegacyFullFrameSRClient,
    LegacyGameStreamSRClient,
    LegacyNemoClient,
    LegacySRIntegratedDecoderClient,
    energy_of_frame,
    legacy_mtp,
    legacy_next_frame,
)

N_FRAMES = 4
GOP = 3  # frames 0..3 -> I P P I: both reference and dependent paths

DESIGNS = [
    "gamestreamsr",
    "nemo",
    "bilinear",
    "fullframe_sr",
    "sr_integrated_decoder",
]


def _geometry() -> StreamGeometry:
    return StreamGeometry(eval_lr_height=64, eval_lr_width=112, lr_source="downsample")


def _make_server(roi_side):
    return GameStreamServer(
        build_game("G3"), _geometry(), roi_side=roi_side, gop_size=GOP
    )


def _make_pair(design, device, runner, plan):
    """(new client, legacy client, server RoI side) for one design."""
    if design == "gamestreamsr":
        return (
            GameStreamSRClient(device, runner, modeled_roi_side=plan.side),
            LegacyGameStreamSRClient(device, runner, modeled_roi_side=plan.side),
            plan.side_for_frame(64),
        )
    if design == "nemo":
        return NemoClient(device, runner), LegacyNemoClient(device, runner), None
    if design == "bilinear":
        return BilinearClient(device), LegacyBilinearClient(device), None
    if design == "fullframe_sr":
        return (
            FullFrameSRClient(device, runner),
            LegacyFullFrameSRClient(device, runner),
            None,
        )
    if design == "sr_integrated_decoder":
        return (
            SRIntegratedDecoderClient(device, runner),
            LegacySRIntegratedDecoderClient(device, runner),
            plan.side_for_frame(64),
        )
    raise ValueError(design)


@pytest.mark.parametrize("design", DESIGNS)
def test_staged_pipeline_matches_seed_exactly(design, tiny_runner):
    device = get_device("samsung_tab_s8")
    plan = plan_roi_window(device)
    new_client, legacy_client, roi_side = _make_pair(
        design, device, tiny_runner, plan
    )

    # New path: the refactored run_session (default knobs: no link, no
    # adaptive controller), which derives everything from traces.
    new_result = run_session(
        _make_server(roi_side), new_client, n_frames=N_FRAMES, evaluate_quality=True
    )

    # Seed path: frozen server pipeline + monolithic client + dict-based
    # MTP/energy assembly, replayed frame by frame.
    legacy_server = _make_server(roi_side)
    legacy_client.reset()
    for record in new_result.records:
        server_frame = legacy_next_frame(legacy_server)
        client_result = legacy_client.process(server_frame)

        assert record.frame_type == client_result.frame_type
        assert record.modeled_size_bytes == server_frame.modeled_size_bytes

        # Timing views: both dicts must match the seed key-for-key.
        new_frame_trace = record.trace
        assert new_frame_trace is not None
        new_server_timings = {
            s: new_frame_trace.stage_ms(s) for s in server_frame.server_timings_ms
        }
        assert new_server_timings == server_frame.server_timings_ms
        assert record.upscale_ms == client_result.upscale_ms

        # MTP: trace-derived breakdown == seed dict-derived breakdown.
        assert record.mtp.stages_ms == legacy_mtp(server_frame, client_result).stages_ms

        # Energy: trace integration == seed dict integration, field-exact.
        legacy_energy = energy_of_frame(device, client_result)
        assert record.energy.decode == legacy_energy.decode
        assert record.energy.upscale == legacy_energy.upscale
        assert record.energy.network == legacy_energy.network
        assert record.energy.display == legacy_energy.display

        # Pixels: identical real computation, identical output.
        legacy_psnr = _psnr_against(legacy_server, server_frame.index, client_result)
        assert record.psnr_db == legacy_psnr


def _psnr_against(server, index, client_result):
    from repro.metrics.psnr import psnr

    return psnr(server.render_hr_reference(index), client_result.hr_frame)


def test_client_timings_view_has_only_client_stages(tiny_runner):
    """The client timing dict must not contain a network key (it would
    shadow the server's network stage in a dict-based MTP assembly)."""
    device = get_device("samsung_tab_s8")
    client = BilinearClient(device)
    result = run_session(_make_server(None), client, n_frames=2)
    trace = result.records[0].trace
    assert trace is not None
    # The merged trace still records the client RX span, but outside MTP.
    rx_spans = [s for s in trace.spans if s.name == "network"]
    assert len(rx_spans) == 2  # server downlink + client energy-only RX
    assert rx_spans[0].mtp and not rx_spans[1].mtp
    assert record_keys(result) == {"decode", "upscale", "display"}


def record_keys(result):
    keys = set()
    for r in result.records:
        client_spans = [s for s in r.trace.spans if s.name in ("decode", "upscale", "display")]
        keys.update(s.name for s in client_spans)
    return keys
